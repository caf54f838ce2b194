"""In-memory span recorder that times calls into each layer's public API.

Nothing inside ``src/`` is instrumented. While a :class:`Recorder` is
installed, the public functions and methods listed in :data:`TARGETS` are
replaced by timing wrappers: in every module that holds a reference to
them (so ``from x import f`` call sites are covered too) and on their
classes. Uninstalling restores the originals. Each thread keeps its own
span list and stack, so recording takes no lock on the hot path; the
spans stay in memory until :meth:`Recorder.dump` writes them out.

A span's self time is its duration minus the time its child spans cover.
Summed over one thread's spans, self times add up to the wall time of that
thread's outermost spans exactly, which is what lets the per-layer table
close on the per-op time with an explicit ``unattributed`` remainder.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: Name of the root span the benchmark opens around every operation.
OP = "op"

#: (module, attribute path, span name, counter) for every timed entry
#: point. ``counter`` names an extra per-call count, or a callable
#: ``(args, kwargs) -> (name, amount)`` for counts taken from arguments.
TARGETS: List[Tuple[str, str, str, object]] = [
    # hw: world transitions (timed on entry and exit, not their body).
    ("repro.hw.soc", "SoC.enter_secure_world", "hw.transition", "hw.smc"),
    ("repro.hw.soc", "SoC.rpc_to_normal_world", "hw.transition", "hw.smc"),
    # optee: the GP client API.
    ("repro.optee.gp_api", "TaSession.invoke", "optee.invoke", None),
    ("repro.optee.gp_api", "TaSession.close", "optee.session", None),
    ("repro.optee.gp_api", "OpTeeClient.open_session", "optee.session",
     None),
    # crypto
    ("repro.crypto.ecdh", "generate", "crypto.ecdh", None),
    ("repro.crypto.ecdh", "shared_secret", "crypto.ecdh", None),
    ("repro.crypto.ecdsa", "sign", "crypto.ecdsa_sign", None),
    ("repro.crypto.ecdsa", "verify", "crypto.ecdsa_verify",
     "crypto.ecdsa_verify_calls"),
    ("repro.crypto.batch", "verify_batch", "crypto.ecdsa_verify_batch",
     lambda args, kwargs: ("crypto.ecdsa_verify_calls", len(args[0]))),
    ("repro.crypto.ec", "precompute_public_key", "crypto.ec_precompute",
     None),
    ("repro.crypto.kdf", "derive_session_keys", "crypto.kdf", None),
    ("repro.crypto.gcm", "AesGcm.__init__", "crypto.gcm_key_setup",
     "crypto.gcm_keys"),
    ("repro.crypto.gcm", "AesGcm.seal", "crypto.gcm_bulk", None),
    ("repro.crypto.gcm", "AesGcm.open", "crypto.gcm_bulk", None),
    ("repro.crypto.gcm", "GcmSealStream.__init__", "crypto.gcm_bulk", None),
    ("repro.crypto.gcm", "GcmSealStream.update_into", "crypto.gcm_bulk",
     lambda args, kwargs: ("crypto.gcm_bytes", len(args[1]))),
    ("repro.crypto.gcm", "GcmSealStream.final", "crypto.gcm_bulk", None),
    ("repro.crypto.gcm", "GcmOpenStream.__init__", "crypto.gcm_bulk", None),
    ("repro.crypto.gcm", "GcmOpenStream.update", "crypto.gcm_bulk",
     lambda args, kwargs: ("crypto.gcm_bytes", len(args[1]))),
    ("repro.crypto.gcm", "GcmOpenStream.final", "crypto.gcm_bulk", None),
    ("repro.crypto.cmac", "AesCmac.__init__", "crypto.cmac", None),
    ("repro.crypto.cmac", "AesCmac.mac", "crypto.cmac", None),
    ("repro.crypto.cmac", "AesCmac.verify", "crypto.cmac", None),
    # core: the RA protocol engines, WASI-RA and the in-process transport.
    ("repro.core.attester", "Attester.start_session", "core.attester.msg0",
     None),
    ("repro.core.attester", "Attester.make_msg0", "core.attester.msg0",
     None),
    ("repro.core.attester", "Attester.handle_msg1", "core.attester.msg2",
     None),
    ("repro.core.attester", "Attester.collect_evidence",
     "core.attester.msg2", None),
    ("repro.core.attester", "Attester.make_msg2", "core.attester.msg2",
     None),
    ("repro.core.attester", "Attester.handle_msg3", "core.attester.msg3",
     None),
    ("repro.core.verifier", "Verifier.handle_msg0", "core.verifier.msg0",
     None),
    ("repro.core.verifier", "Verifier.handle_msg2", "core.verifier.msg2",
     None),
    ("repro.core.wasi_ra", "WasiRa.net_handshake", "core.wasi_ra.handshake",
     None),
    ("repro.core.wasi_ra", "WasiRa.collect_quote",
     "core.wasi_ra.collect_quote", None),
    ("repro.core.wasi_ra", "WasiRa.net_send_quote",
     "core.wasi_ra.send_quote", None),
    ("repro.core.wasi_ra", "WasiRa.net_receive_data",
     "core.wasi_ra.receive_data", None),
    ("repro.core.transport", "ClientConnection.receive",
     "core.transport.receive", None),
    # wasm: decoder, validator, AOT codegen, instantiation, execution.
    ("repro.wasm.decoder", "decode_module", "wasm.decode", None),
    ("repro.wasm.validation", "validate_module", "wasm.validate", None),
    ("repro.wasm.aot", "AotCompiler.compile_function", "wasm.compile", None),
    ("repro.wasm.runtime", "Engine.instantiate", "wasm.instantiate", None),
    ("repro.wasm.runtime", "Instance.invoke", "wasm.run", None),
]

#: Layers of the per-op table, in print order.
LAYERS = ("hw", "optee", "crypto", "core", "fleet", "wasm")


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


class _ThreadLog:
    """One thread's spans and open-span stack."""

    __slots__ = ("name", "spans", "stack", "counts")

    def __init__(self, name: str) -> None:
        self.name = name
        #: [name, start_ns, end_ns, parent_index]
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.counts: Dict[str, int] = defaultdict(int)


class Recorder:
    """Per-thread span lists plus counters; see the module docstring."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._logs: List[_ThreadLog] = []
        self._logs_lock = threading.Lock()
        #: (owner, attribute, original) of every installed wrapper.
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = _ThreadLog(threading.current_thread().name)
            self._local.log = log
            with self._logs_lock:
                self._logs.append(log)
        return log

    def begin(self, name: str) -> int:
        log = self._log()
        parent = log.stack[-1] if log.stack else -1
        log.spans.append([name, time.perf_counter_ns(), 0, parent])
        index = len(log.spans) - 1
        log.stack.append(index)
        return index

    def end(self, index: int) -> None:
        log = self._local.log
        log.spans[index][2] = time.perf_counter_ns()
        log.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def count(self, name: str, amount: int = 1) -> None:
        self._log().counts[name] += amount

    # -- patching ----------------------------------------------------------

    def _wrap_function(self, fn: Callable, name: str, counter) -> Callable:
        begin, end, count = self.begin, self.end, self.count

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if counter is not None:
                if callable(counter):
                    count(*counter(args, kwargs))
                else:
                    count(counter)
            index = begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                end(index)

        return timed

    def _wrap_transition(self, cm_factory: Callable, name: str,
                         counter: str) -> Callable:
        """A world transition is a context manager: time its entry and
        exit legs as leaf spans and leave its body to the caller's span."""
        span, count = self.span, self.count

        @functools.wraps(cm_factory)
        @contextlib.contextmanager
        def timed(*args, **kwargs):
            count(counter)
            inner = cm_factory(*args, **kwargs)
            with span(name):
                inner.__enter__()
            try:
                yield
            except BaseException as exc:
                with span(name):
                    suppressed = inner.__exit__(type(exc), exc,
                                                exc.__traceback__)
                if not suppressed:
                    raise
            else:
                with span(name):
                    inner.__exit__(None, None, None)

        return timed

    def install(self) -> None:
        """Replace every target with its timing wrapper."""
        replacements: Dict[int, Tuple[Callable, Callable]] = {}
        for module_name, path, name, counter in TARGETS:
            module = importlib.import_module(module_name)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = owner.__dict__[attr]
            if name == "hw.transition":
                wrapper = self._wrap_transition(original, name, counter)
            else:
                wrapper = self._wrap_function(original, name, counter)
            if owner_name:
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
            else:
                replacements[id(original)] = (original, wrapper)
        # Module-level functions: rebind every module-global reference,
        # including names imported with ``from module import function``.
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not namespace or not getattr(module, "__name__", "") \
                    .startswith("repro"):
                continue
            for attr, value in list(namespace.items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis ----------------------------------------------------------

    def logs(self) -> List[_ThreadLog]:
        with self._logs_lock:
            return list(self._logs)

    def counts(self) -> Dict[str, int]:
        total: Dict[str, int] = defaultdict(int)
        for log in self.logs():
            for name, amount in log.counts.items():
                total[name] += amount
        return dict(total)

    def self_times(self) -> Tuple[Dict[str, int], Dict[str, int], int, int]:
        """Self time per span name, split by side.

        Returns ``(client, server, op_ns, ops)``: ``client`` sums self
        times on threads that ran operations (their root spans are
        :data:`OP`); ``server`` sums them on every other thread, such as
        gateway workers serving the clients' messages. ``op_ns`` is the
        summed duration of the root spans and ``ops`` their number.
        """
        client: Dict[str, int] = defaultdict(int)
        server: Dict[str, int] = defaultdict(int)
        op_ns = 0
        ops = 0
        for log in self.logs():
            spans = log.spans
            child_ns = [0] * len(spans)
            for name, start, end, parent in spans:
                if parent >= 0:
                    child_ns[parent] += end - start
            is_client = any(span[0] == OP for span in spans)
            side = client if is_client else server
            for index, (name, start, end, parent) in enumerate(spans):
                side[name] += end - start - child_ns[index]
                if name == OP:
                    op_ns += end - start
                    ops += 1
        return dict(client), dict(server), op_ns, ops

    def dump(self, path: str, extra: Optional[dict] = None) -> None:
        """Write every span (relative ns) and counter as one JSON file."""
        logs = self.logs()
        origin = min((log.spans[0][1] for log in logs if log.spans),
                     default=0)
        payload = {
            "format": "name, start_ns, end_ns, parent_index",
            "threads": [
                {"thread": log.name,
                 "counts": dict(log.counts),
                 "spans": [[name, start - origin, end - origin, parent]
                           for name, start, end, parent in log.spans]}
                for log in logs
            ],
        }
        if extra:
            payload.update(extra)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, separators=(",", ":"))
            handle.write("\n")


# -- analysis of a finished traced run ------------------------------------


def per_op(value: float, ops: int) -> float:
    return value / ops if ops else 0.0


def span_rows(recorder: Recorder, service_ns: int = 0) -> dict:
    """Per-op self time of every span name plus the per-layer table.

    Server-thread spans (gateway workers) and ``service_ns`` (work done
    in shard processes, known only from the gateway's records) happened
    while a client sat in ``core.transport.receive``; that span's client
    self time is split into them and ``fleet.wait``, the remainder the
    client waited on queueing, IPC and the interpreter lock. Rows plus
    ``unattributed`` (root-span self time: benchmark and glue code) sum
    to the traced per-op time exactly.
    """
    client, server, op_ns, ops = recorder.self_times()
    rows: Dict[str, float] = {}
    for side in (client, server):
        for name, ns in side.items():
            if name != OP:
                rows[name] = rows.get(name, 0.0) + ns
    served_ns = sum(server.values()) + service_ns
    if served_ns:
        receive_ns = client.get("core.transport.receive", 0)
        rows["core.transport.receive"] = \
            rows.get("core.transport.receive", 0) - receive_ns
        rows["fleet.wait"] = receive_ns - served_ns
        rows["fleet.service"] = float(service_ns)
    spans_ms = {name: per_op(ns, ops) / 1e6 for name, ns in rows.items()}
    table = {layer: 0.0 for layer in LAYERS}
    for name, ms in spans_ms.items():
        table[layer_of(name)] += ms
    op_ms = per_op(op_ns, ops) / 1e6
    table["unattributed"] = op_ms - sum(table.values())
    return {"spans_ms": spans_ms, "layers_ms": table, "op_ms": op_ms,
            "ops": ops, "counts": recorder.counts()}


def batch_fallbacks(recorder: Recorder) -> int:
    """Plain verifies a batch verification fell back to, one per item its
    combined check could not settle."""
    fallbacks = 0
    for log in recorder.logs():
        spans = log.spans
        for name, _start, _end, parent in spans:
            if name == "crypto.ecdsa_verify" and parent >= 0 \
                    and spans[parent][0] == "crypto.ecdsa_verify_batch":
                fallbacks += 1
    return fallbacks


def inclusive_ms(recorder: Recorder, names) -> Dict[str, float]:
    """Per-op inclusive time of outermost spans with the given names."""
    totals = {name: 0 for name in names}
    ops = 0
    for log in recorder.logs():
        spans = log.spans
        for name, start, end, parent in spans:
            if name == OP:
                ops += 1
            if name not in totals:
                continue
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0] != name:
                ancestor = spans[ancestor][3]
            if ancestor < 0:
                totals[name] += end - start
    return {name: per_op(ns, ops) / 1e6 for name, ns in totals.items()}
