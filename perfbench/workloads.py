"""The four benchmark workloads, driven through the library's public API.

Each workload builds its environment in :meth:`setup`, runs closed-loop
operations until a deadline in :meth:`run`, checks every output, and turns
a traced run into per-layer rows in :meth:`layer_rows`. Inputs (secret
bytes, reboot/resume schedules, kernel order) come only from the seed.
"""

from __future__ import annotations

import contextlib
import math
import os
import random
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core import (CMD_UNLOAD, Attester, VerifierPolicy, measure_bytes,
                        start_verifier)
from repro.crypto import ecdsa
from repro.fleet import (FleetConfig, build_attester_stacks, run_one_handshake,
                         start_fleet_gateway)
from repro.testbed import Testbed
from repro.walc import compile_source
from repro.wasm import codecache
from repro.wasm.pgo import profile_module
from repro.workloads.attested import SECRET_ADDR, build_attested_app
from repro.workloads.polybench import all_kernels

from spans import (OP, Recorder, batch_fallbacks, inclusive_ms, per_op,
                   span_rows)

HOST = "perfbench.verifier"
PORT = 7000

#: Iterations of the calibration loop, about 1.5 ms of interpreter work.
CALIBRATION_ITERATIONS = 6000
#: Calibration loop CPU time on the reference host (2-vCPU x86-64
#: container, CPython 3.11). Per-op times are reported at this speed.
REFERENCE_CALIBRATION_S = 1.3e-3


def calibration_loop(iterations: int = CALIBRATION_ITERATIONS) -> int:
    """Fixed interpreter work that touches none of the library's code."""
    table = {}
    values = [0] * 64
    acc = 0
    for i in range(iterations):
        acc = (acc * 31 + i) & 0xFFFFFFFF
        values[i & 63] ^= acc
        table[i & 255] = acc
    return acc


def calibrate() -> float:
    """CPU seconds the calibration loop takes on this thread right now.

    On a shared host the same interpreter work takes up to 1.8x longer in
    some seconds than in others, in CPU time as well as in wall time, and
    each vCPU slows on its own. Every operation is preceded by one sample
    on its own thread, timed in that thread's CPU time so that the
    interpreter lock held by other threads does not count.
    """
    started = time.thread_time()
    calibration_loop()
    return time.thread_time() - started


@dataclass
class Run:
    """What one measuring phase produced."""

    latencies_s: List[float] = field(default_factory=list)
    #: The calibration sample taken before each latency's operation.
    calibration_s: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: Outputs that differed from the expected bytes or checksums.
    wrong: int = 0
    window_s: float = 0.0
    #: Why operations failed.
    errors: List[str] = field(default_factory=list)
    #: Wrong outputs and invariant violations (a SimClock delta that moved).
    problems: List[str] = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    def scales(self) -> List[float]:
        """Per latency, the factor that converts it to reference speed."""
        return [REFERENCE_CALIBRATION_S / sample
                for sample in self.calibration_s]


def _maybe_span(recorder: Optional[Recorder], name: str = OP):
    return recorder.span(name) if recorder is not None \
        else contextlib.nullcontext()


class CodeCacheDelta:
    """Hit ratio of the process-wide Wasm code cache over one phase."""

    def __init__(self) -> None:
        self.hits = codecache.DEFAULT_CACHE.hits
        self.misses = codecache.DEFAULT_CACHE.misses

    def ratio(self) -> float:
        hits = codecache.DEFAULT_CACHE.hits - self.hits
        lookups = hits + codecache.DEFAULT_CACHE.misses - self.misses
        return hits / lookups if lookups else 0.0


# ---------------------------------------------------------------------------
# Fleet handshakes (fleet-reboot, fleet-sharded)
# ---------------------------------------------------------------------------


class _CheckingAttester(Attester):
    """An Attester that keeps the last secret it decrypted, for the check."""

    last_secret: Optional[bytes] = None

    def handle_msg3(self, session, data):
        secret = super().handle_msg3(session, data)
        self.last_secret = secret
        return secret


class Fleet:
    """Closed-loop attesters against the fleet gateway.

    Each attester thread holds one connection at a time and waits for the
    secret before its next handshake. A scheduled reboot swaps in a fresh
    :class:`Attester` (no resumption key), which forces the full ECDSA
    appraisal; the other handshakes resume with the CMAC ticket.
    """

    ATTESTERS = 2
    SECRET_BYTES = 4096
    #: Reboots are drawn as shuffled blocks, so every block of this many
    #: handshakes of an attester holds exactly half reboots.
    BLOCK = 10

    def __init__(self, seed: int, shards: int) -> None:
        self.shards = shards
        rng = random.Random(seed)
        self.secret = rng.randbytes(self.SECRET_BYTES)
        self.identity = ecdsa.keypair_from_private(
            rng.randrange(1, 2 ** 200))
        self.schedules = []
        for _ in range(self.ATTESTERS):
            schedule = []
            for _ in range(400):
                block = [True] * (self.BLOCK // 2) \
                    + [False] * (self.BLOCK - self.BLOCK // 2)
                rng.shuffle(block)
                schedule.extend(block)
            self.schedules.append(schedule)
        self.next_index = [0] * self.ATTESTERS
        self.gateway = None

    def setup(self) -> None:
        testbed = Testbed()
        policy = VerifierPolicy()
        client = None if self.shards else testbed.create_device().client
        secret = self.secret
        self.gateway = start_fleet_gateway(
            testbed.network, HOST, PORT, client, testbed.vendor_key,
            self.identity, policy, lambda: secret,
            FleetConfig(shards=self.shards))
        self.testbed = testbed
        self.stacks = build_attester_stacks(testbed, policy, self.ATTESTERS)
        # Warm-up: one full handshake per attester earns the resumption
        # ticket that scheduled resumes redeem.
        for stack in self.stacks:
            stack.attester = _CheckingAttester(os.urandom)
            result = self._handshake(stack, 0)
            if not result.ok or stack.attester.last_secret != secret:
                raise RuntimeError(f"warm-up handshake failed: {result.error}")
        self.gateway.drain_records()

    def teardown(self) -> None:
        if self.gateway is not None:
            self.gateway.stop()
            self.gateway = None

    def _handshake(self, stack, attempt):
        return run_one_handshake(self.testbed.network, HOST, PORT,
                                 self.identity.public_bytes(), stack,
                                 attempt)

    def run(self, seconds: float, recorder: Optional[Recorder]) -> Run:
        self.gateway.drain_records()
        before = self.gateway.snapshot()
        runs = [Run() for _ in self.stacks]
        deadline = time.perf_counter() + seconds

        def attester_loop(slot: int) -> None:
            stack, out = self.stacks[slot], runs[slot]
            schedule = self.schedules[slot]
            while time.perf_counter() < deadline:
                index = self.next_index[slot]
                self.next_index[slot] += 1
                if schedule[index % len(schedule)]:
                    stack.attester = _CheckingAttester(os.urandom)
                stack.attester.last_secret = None
                calibration = calibrate()
                started = time.perf_counter()
                with _maybe_span(recorder):
                    result = self._handshake(stack, index)
                elapsed = time.perf_counter() - started
                out.attempted += 1
                if not result.ok:
                    out.failed += 1
                    out.errors.append(result.error)
                elif stack.attester.last_secret != self.secret:
                    out.failed += 1
                    out.wrong += 1
                    out.problems.append("fleet secret differs from the "
                                        "provisioned bytes")
                else:
                    out.latencies_s.append(elapsed)
                    out.calibration_s.append(calibration)

        threads = [threading.Thread(target=attester_loop, args=(slot,),
                                    name=f"attester-{slot}")
                   for slot in range(len(self.stacks))]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        total = Run(window_s=time.perf_counter() - started)
        for part in runs:
            total.latencies_s.extend(part.latencies_s)
            total.calibration_s.extend(part.calibration_s)
            total.attempted += part.attempted
            total.failed += part.failed
            total.wrong += part.wrong
            total.errors.extend(part.errors)
            total.problems.extend(part.problems)
        total.extra["records"] = self.gateway.drain_records()
        total.extra["before"] = before
        total.extra["after"] = self.gateway.snapshot()
        return total

    def layer_rows(self, traced: Run, recorder: Recorder) -> Dict[str, float]:
        records = traced.extra["records"]
        ops = traced.attempted
        service = {"msg0": 0.0, "msg2": 0.0}
        for record in records:
            if record.kind in service:
                service[record.kind] += record.service_s
        # In-process, gateway work is visible as server-thread spans; with
        # shards it runs in another process and only the records see it.
        shard_ns = int(sum(service.values()) * 1e9) if self.shards else 0
        rows = span_rows(recorder, service_ns=shard_ns)
        before, after = traced.extra["before"], traced.extra["after"]

        def delta(section, key):
            return ((after.get(section) or {}).get(key, 0)
                    - (before.get(section) or {}).get(key, 0))

        hits, misses = delta("cache", "hits"), delta("cache", "misses")
        drains = delta("counters", "batch_drains")
        batched = delta("counters", "batch_verified")
        return {
            "_rows": rows,
            "fleet.service_msg0_ms": per_op(service["msg0"], ops) * 1e3,
            "fleet.service_msg2_ms": per_op(service["msg2"], ops) * 1e3,
            "fleet.wait_ms": rows["spans_ms"].get("fleet.wait", 0.0),
            "fleet.cache_hit_ratio": hits / (hits + misses)
            if hits + misses else 0.0,
            "fleet.batch_sigs_per_batch": batched / drains if drains else 0.0,
            "fleet.batch_fallbacks": float(batch_fallbacks(recorder)),
            "wasm.codecache_hit_ratio": 0.0,
        }


# ---------------------------------------------------------------------------
# attest-1mb: the paper's Fig. 2 flow with a 1 MB secret
# ---------------------------------------------------------------------------


class Attest:
    """Open a WaTZ session, load the attested app, attest, receive 1 MB."""

    SECRET_BYTES = 1 << 20
    HEAP = 14 * 1024 * 1024
    TABLE_IV = ("core.wasi_ra.handshake", "core.wasi_ra.collect_quote",
                "core.wasi_ra.send_quote", "core.wasi_ra.receive_data")

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        self.secret = rng.randbytes(self.SECRET_BYTES)
        self.identity = ecdsa.keypair_from_private(
            rng.randrange(1, 2 ** 200))
        self.sim_ns: Optional[int] = None
        self.testbed = None

    def setup(self) -> None:
        testbed = Testbed()
        self.device = testbed.create_device()
        verifier_device = testbed.create_device()
        self.app = build_attested_app(
            self.identity.public_bytes(), HOST, PORT,
            secret_capacity=self.SECRET_BYTES + 4096)
        policy = VerifierPolicy()
        policy.endorse(self.device.attestation_public_key)
        policy.trust_measurement(measure_bytes(self.app).digest)
        secret = self.secret
        start_verifier(testbed.network, HOST, PORT, verifier_device.client,
                       testbed.vendor_key, self.identity, policy,
                       lambda: secret)
        self.testbed = testbed
        # Warm-up: fills the code cache, as a device re-attesting would.
        warm = Run()
        self._op(warm, None)
        if warm.failed:
            raise RuntimeError(f"warm-up attestation failed: {warm.errors}")

    def teardown(self) -> None:
        if self.testbed is not None:
            self.testbed.network.shutdown(HOST, PORT)
            self.testbed = None

    def _op(self, out: Run, recorder: Optional[Recorder]) -> None:
        device = self.device
        out.attempted += 1
        calibration = calibrate()
        sim_start = device.soc.clock.now_ns()
        started = time.perf_counter()
        try:
            with _maybe_span(recorder):
                session = device.open_watz(heap_size=self.HEAP)
                try:
                    loaded = device.load_wasm(session, self.app)
                    received = device.run_wasm(session, loaded["app"],
                                               "attest")
                    elapsed = time.perf_counter() - started
                    sim_ns = device.soc.clock.now_ns() - sim_start
                    # The check reads the app's linear memory directly,
                    # after the timed part of the operation.
                    memory = session.ta._apps[loaded["app"]].instance.memory
                    landed = bytes(memory.read(SECRET_ADDR, received)) \
                        if received == self.SECRET_BYTES else None
                finally:
                    session.close()
        except Exception as exc:  # a failed op is counted, not fatal
            out.failed += 1
            out.errors.append(f"{type(exc).__name__}: {exc}")
            return
        if received != self.SECRET_BYTES:
            out.failed += 1
            out.errors.append(f"attest returned {received}")
            return
        if landed != self.secret:
            out.failed += 1
            out.wrong += 1
            out.problems.append("1 MB secret differs at SECRET_ADDR")
            return
        out.latencies_s.append(elapsed)
        out.calibration_s.append(calibration)
        if self.sim_ns is None:
            self.sim_ns = sim_ns
        elif sim_ns != self.sim_ns:
            out.problems.append(
                f"SimClock per attest moved: {sim_ns} ns vs {self.sim_ns}")

    def run(self, seconds: float, recorder: Optional[Recorder]) -> Run:
        out = Run()
        cache = CodeCacheDelta()
        started = time.perf_counter()
        deadline = started + seconds
        while time.perf_counter() < deadline:
            self._op(out, recorder)
        out.window_s = time.perf_counter() - started
        out.extra["codecache_hit_ratio"] = cache.ratio()
        return out

    def layer_rows(self, traced: Run, recorder: Recorder) -> Dict[str, float]:
        rows = span_rows(recorder)
        values = {"_rows": rows,
                  "wasm.codecache_hit_ratio":
                      traced.extra["codecache_hit_ratio"]}
        for name, ms in inclusive_ms(recorder, self.TABLE_IV).items():
            values[name + "_ms"] = ms
        return values


# ---------------------------------------------------------------------------
# polybench-watz: Fig. 5 inside the trusted runtime
# ---------------------------------------------------------------------------


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values)) \
        if values else 0.0


class PolyBench:
    """Cold-load and run all 30 PolyBench kernels in WaTZ at o2 and o3.

    One operation is one kernel: load at o2, run, unload, load at o3 with
    the profile recorded in set-up, run, unload. Passes run whole, each in
    a seed-shuffled kernel order, until the deadline has passed.
    """

    HEAP = 12 * 1024 * 1024

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.kernels = {kernel.name: kernel for kernel in all_kernels()}
        self.session = None

    def setup(self) -> None:
        self.device = Testbed().create_device()
        self.session = self.device.open_watz(heap_size=self.HEAP)
        self.binaries, self.profiles, self.reference = {}, {}, {}
        for name, kernel in self.kernels.items():
            binary = compile_source(kernel.walc_source(kernel.default_size))
            self.binaries[name] = binary
            self.profiles[name] = profile_module(binary, [("run", ())])
            self.reference[name] = kernel.native(kernel.default_size)

    def teardown(self) -> None:
        if self.session is not None:
            self.session.close()
            self.session = None

    def _load_run(self, name: str, opt_level: int, out: Run):
        params = {"code_cache": False, "opt_level": opt_level}
        if opt_level == 3:
            params["profile"] = self.profiles[name]
        started = time.perf_counter()
        loaded = self.device.load_wasm(self.session, self.binaries[name],
                                       **params)
        loaded_at = time.perf_counter()
        result = self.device.run_wasm(self.session, loaded["app"], "run")
        finished = time.perf_counter()
        self.session.invoke(CMD_UNLOAD, {"app": loaded["app"]})
        if result != self.reference[name]:
            out.wrong += 1
            out.problems.append(
                f"{name} o{opt_level} checksum {result!r} != "
                f"{self.reference[name]!r}")
        return loaded_at - started, finished - loaded_at

    def run(self, seconds: float, recorder: Optional[Recorder]) -> Run:
        out = Run()
        cache = CodeCacheDelta()
        samples = {name: {"load": [], "o2": [], "o3": [], "ratio": []}
                   for name in self.kernels}
        started = time.perf_counter()
        deadline = started + seconds
        while time.perf_counter() < deadline:
            order = sorted(self.kernels)
            self.rng.shuffle(order)
            for name in order:
                kernel = self.kernels[name]
                native_started = time.perf_counter()
                native = kernel.native(kernel.default_size)
                native_s = time.perf_counter() - native_started
                if native != self.reference[name]:
                    out.problems.append(f"{name} native checksum moved")
                out.attempted += 1
                wrong_before = out.wrong
                calibration = calibrate()
                op_started = time.perf_counter()
                try:
                    with _maybe_span(recorder):
                        load2, run2 = self._load_run(name, 2, out)
                        load3, run3 = self._load_run(name, 3, out)
                except Exception as exc:  # a failed op is counted, not fatal
                    out.failed += 1
                    out.errors.append(f"{name}: {type(exc).__name__}: {exc}")
                    continue
                elapsed = time.perf_counter() - op_started
                if out.wrong != wrong_before:
                    out.failed += 1
                    continue
                out.latencies_s.append(elapsed)
                out.calibration_s.append(calibration)
                entry = samples[name]
                entry["load"].append(load2 + load3)
                entry["o2"].append(run2)
                entry["o3"].append(run3)
                entry["ratio"].append(run2 / native_s)
        out.window_s = time.perf_counter() - started
        out.extra["samples"] = samples
        out.extra["codecache_hit_ratio"] = cache.ratio()
        return out

    def layer_rows(self, traced: Run, recorder: Recorder) -> Dict[str, float]:
        samples = traced.extra["samples"]
        measured = {name: entry for name, entry in samples.items()
                    if entry["o2"]}
        values = {"_rows": span_rows(recorder),
                  "wasm.codecache_hit_ratio":
                      traced.extra["codecache_hit_ratio"]}
        for name, entry in measured.items():
            values[f"wasm.run_o2_ms.{name}"] = \
                statistics.median(entry["o2"]) * 1e3
            values[f"wasm.run_o3_ms.{name}"] = \
                statistics.median(entry["o3"]) * 1e3
        values["wasm.run_o2_geomean_ms"] = geomean(
            statistics.median(e["o2"]) * 1e3 for e in measured.values())
        values["wasm.run_o3_geomean_ms"] = geomean(
            statistics.median(e["o3"]) * 1e3 for e in measured.values())
        values["wasm.load_geomean_ms"] = geomean(
            statistics.median(e["load"]) * 1e3 for e in measured.values())
        values["wasm.vs_native"] = geomean(
            statistics.median(e["ratio"]) for e in measured.values())
        return values


def make(name: str, seed: int):
    if name == "fleet-reboot":
        return Fleet(seed, shards=0)
    if name == "fleet-sharded":
        return Fleet(seed, shards=1)
    if name == "attest-1mb":
        return Attest(seed)
    if name == "polybench-watz":
        return PolyBench(seed)
    raise ValueError(f"unknown workload {name!r}")
