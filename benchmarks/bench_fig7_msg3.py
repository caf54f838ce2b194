"""Fig. 7: execution time of msg3 versus secret-blob size.

The paper transfers 0.5-3 MB of confidential data under AES-GCM and
observes linear scaling with matching encryption (verifier) and
decryption (attester) costs. Two measurements here:

* the protocol-level sweep (``test_fig7_msg3_scaling``) through
  ``handle_msg2``/``handle_msg3`` — what Fig. 7 actually plots;
* the raw AES-GCM seal/open throughput of both execution paths
  (vectorised streaming pipeline vs scalar reference), exported as
  ``BENCH_msg3.json`` with per-size MB/s so the speedup trajectory is
  diffable across PRs.

``test_msg3_throughput_smoke`` is the CI gate: the fast path must hold
>= 5x over the reference on a 512 kB seal+open, re-measured once against
runner noise and only enforced on hosts with at least two CPUs (the
pipeline splits bulk keystream/GHASH work across threads; a single
shared core measures the scheduler instead).
"""

from __future__ import annotations

import os
import time

from repro.bench import format_duration, format_table, save_json, save_report
from repro.core.attester import Attester
from repro.core.measurement import measure_bytes
from repro.core.verifier import Verifier, VerifierPolicy
from repro.crypto import ecdsa, gcm
from repro.crypto.gcm import STRIPE_WIDTH, AesGcm

_DEVICE = ecdsa.keypair_from_private(555111)
_IDENTITY = ecdsa.keypair_from_private(555222)
_CLAIM = measure_bytes(b"fig7 app").digest

SIZES = [512 * 1024, 1024 * 1024, 2 * 1024 * 1024, 3 * 1024 * 1024]
_SMOKE_SIZES = [512 * 1024, 1024 * 1024]
_GATE_SIZE = 512 * 1024
_GATE_SPEEDUP = 5.0

# Paper Fig. 7: ~3 ms at 0.5 MB up to ~17 ms at 3 MB (per direction).
_PAPER_MS = {512 * 1024: 3.0, 1024 * 1024: 5.8,
             2 * 1024 * 1024: 11.0, 3 * 1024 * 1024: 17.0}

_KEY = b"\x42" * 16
_IV = b"\x24" * 12


def _established_session():
    attester = Attester(os.urandom)
    policy = VerifierPolicy()
    policy.endorse(_DEVICE.public_bytes())
    policy.trust_measurement(_CLAIM)
    verifier = Verifier(_IDENTITY, policy, os.urandom)
    session = attester.start_session(_IDENTITY.public_bytes())
    verifier_session, msg1 = verifier.handle_msg0(attester.make_msg0(session))
    attester.handle_msg1(session, msg1)
    msg2 = attester.attest(session, _CLAIM, _DEVICE.public_bytes(),
                           lambda body: ecdsa.sign(_DEVICE.private, body))
    return attester, verifier, session, verifier_session, msg2


def _sweep():
    attester, verifier, session, verifier_session, msg2 = \
        _established_session()
    results = []
    for size in SIZES:
        blob = os.urandom(size)
        started = time.perf_counter()
        msg3 = verifier.handle_msg2(verifier_session, msg2, blob)
        encrypt_s = time.perf_counter() - started
        started = time.perf_counter()
        received = attester.handle_msg3(session, msg3)
        decrypt_s = time.perf_counter() - started
        assert received == blob
        results.append((size, encrypt_s, decrypt_s))
        # Re-arm the verifier session for the next size.
        attester, verifier, session, verifier_session, msg2 = \
            _established_session()
    return results


# --- raw seal/open throughput, both paths --------------------------------------


def _measure_seal_open(cipher: AesGcm, blob: bytes, rounds: int):
    """Best-of-``rounds`` seal and open seconds for ``blob``."""
    best_seal = best_open = float("inf")
    for _ in range(rounds):
        started = time.perf_counter()
        sealed = cipher.seal(_IV, blob)
        best_seal = min(best_seal, time.perf_counter() - started)
        started = time.perf_counter()
        opened = cipher.open(_IV, sealed)
        best_open = min(best_open, time.perf_counter() - started)
        assert opened == blob
    return best_seal, best_open


def _path_entry(size: int, seal_s: float, open_s: float) -> dict:
    mb = size / (1024 * 1024)
    return {
        "seal_s": seal_s,
        "open_s": open_s,
        "seal_mb_s": mb / seal_s,
        "open_mb_s": mb / open_s,
    }


def _gcm_series(sizes, fast_rounds: int = 3, reference_rounds: int = 1):
    """Per-size seal/open timings for the fast and reference GCM paths."""
    cipher = AesGcm(_KEY)
    # Warm the per-subkey stripe tables and the thread pool once so the
    # measurements see the steady state fleet lanes run in.
    cipher.seal(_IV, bytes(gcm._VECTOR_MIN_BLOCKS * 16))
    entries = []
    for size in sizes:
        blob = os.urandom(size)
        fast_seal, fast_open = _measure_seal_open(cipher, blob, fast_rounds)
        with gcm.reference_paths():
            ref_seal, ref_open = _measure_seal_open(cipher, blob,
                                                    reference_rounds)
        entries.append({
            "bytes": size,
            "fast": _path_entry(size, fast_seal, fast_open),
            "reference": _path_entry(size, ref_seal, ref_open),
            "speedup_seal": ref_seal / fast_seal,
            "speedup_open": ref_open / fast_open,
            "speedup_seal_open": (ref_seal + ref_open)
                                 / (fast_seal + fast_open),
        })
    return entries


def _save_msg3_json(entries) -> None:
    save_json("BENCH_msg3", {
        "series": "fig7_msg3",
        "stripe_width": STRIPE_WIDTH,
        "sizes": entries,
    })


def _entries_table(entries) -> str:
    rows = []
    for entry in entries:
        rows.append((
            f"{entry['bytes'] // 1024} kB",
            f"{entry['fast']['seal_mb_s']:.1f} / "
            f"{entry['fast']['open_mb_s']:.1f}",
            f"{entry['reference']['seal_mb_s']:.1f} / "
            f"{entry['reference']['open_mb_s']:.1f}",
            f"{entry['speedup_seal_open']:.1f}x",
        ))
    return format_table(
        "msg3 AES-GCM throughput — fast vs reference path",
        ["blob size", "fast MB/s (seal/open)", "reference MB/s (seal/open)",
         "speedup"], rows)


def test_fig7_msg3_scaling(benchmark):
    results = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    rows = []
    for size, encrypt_s, decrypt_s in results:
        rows.append((
            f"{size // 1024} kB",
            f"{_PAPER_MS[size]:.1f} ms (each side)",
            f"enc {format_duration(encrypt_s)} / "
            f"dec {format_duration(decrypt_s)}",
            "",
        ))
    save_report("fig7_msg3", format_table(
        "Fig. 7 — msg3 execution time vs secret-blob size "
        "(paper vs measured)",
        ["blob size", "paper", "measured", "note"], rows,
    ))
    entries = _gcm_series(SIZES)
    _save_msg3_json(entries)
    save_report("fig7_msg3_paths", _entries_table(entries))
    # Shape: linear scaling — 3 MB costs roughly 6x the 0.5 MB time
    # (wide band: the constant ECDSA cost of handle_msg2 flattens the
    # ratio once the symmetric path is fast).
    small = results[0][1] + results[0][2]
    large = results[-1][1] + results[-1][2]
    assert 2.0 <= large / small <= 12.0
    # Shape: sealing and opening evolve proportionally (paper §VI-E). The
    # protocol-level numbers no longer show this — handle_msg2's constant
    # ECDSA cost and the first-seal GHASH table build dwarf the fast
    # symmetric path at 0.5 MB — so pin it on the raw GCM measurements.
    for entry in entries:
        for side in ("fast", "reference"):
            assert 0.4 <= entry[side]["seal_s"] / entry[side]["open_s"] <= 2.5


def test_msg3_throughput_smoke():
    """CI gate: fast path >= 5x reference on a 512 kB seal+open.

    Mirrors the DESIGN.md §14 gate pattern: one re-measure against
    runner noise before the gate may fail, and the threshold is only
    enforced on hosts with at least two CPUs — the measurement and the
    ``BENCH_msg3.json`` artifact are recorded either way.
    """
    entries = _gcm_series(_SMOKE_SIZES)
    gate = next(e for e in entries if e["bytes"] == _GATE_SIZE)
    host_cpus = os.cpu_count() or 1
    if gate["speedup_seal_open"] < _GATE_SPEEDUP and host_cpus >= 2:
        # One re-measure against noise before the gate may fail.
        entries = _gcm_series(_SMOKE_SIZES)
        gate = next(e for e in entries if e["bytes"] == _GATE_SIZE)
    _save_msg3_json(entries)
    save_report("msg3_throughput_smoke", _entries_table(entries))
    if host_cpus < 2:
        return  # informational only on single-CPU hosts
    assert gate["speedup_seal_open"] >= _GATE_SPEEDUP, entries
