"""Microbenchmarks for the attestation crypto fast paths.

Compares the wNAF/comb/Shamir P-256 implementation against the retained
double-and-add reference on the four operations that dominate the WaTZ
handshake (Table III): ECDSA sign, ECDSA verify, ECDH shared-secret
derivation and a full msg0..msg3 protocol exchange. Headline rows are
measured with warm precomputation tables — the fleet steady state, where
the generator tables are built once per process and the verifier holds a
per-key table for each endorsed device.

A second table times AES-GCM under a *fresh* key, as every handshake
session has one: a cold-cache ``AesGcm(key)`` plus a 4 kB msg3 seal, and
a 1 MB seal. It also times the parts of the stripe-table crossover (the
build, and the scalar and striped fold per block) that
``gcm._VECTOR_MIN_BLOCKS`` is set from.

A third table times the CTR keystream, the bulk of every msg3 seal and
open: ``Aes128.ctr_keystream_into`` (whole-state rounds, counter-mode
caching of rounds 1-2) against the reference ``ctr_keystream``, median of
interleaved rounds, at 1, 256, 8192 and 65536 blocks. It also finds the
request size up to which per-block ``encrypt_block`` calls beat the
vectorised path, which ``aes._SCALAR_MAX_BLOCKS`` is set from.

Writes ``bench_results/crypto_microbench.txt`` (human-readable) and
``bench_results/BENCH_crypto.json`` (machine-readable, for CI artifact
diffing). The ``>= 3x`` assertions on verify and ECDH are the PR's
acceptance floor; measured speedups are typically 4-5x.
"""

from __future__ import annotations

import hashlib
import itertools
import statistics
import time

import numpy as np

from repro.bench import format_duration, format_table, save_json, save_report
from repro.core import VerifierPolicy
from repro.core.attester import Attester
from repro.core.measurement import measure_bytes
from repro.core.verifier import Verifier
from repro.crypto import aes, ec, ecdh, ecdsa, gcm

_ROUNDS = 12
_MESSAGE = b"watz evidence body for the microbench"
_GCM_IV = b"\x00" * 12
_HANDSHAKE_MSG3 = 4096
_BULK_MSG3 = 1 << 20
_KEYSTREAM_BLOCKS = (1, 256, 8192, 65536)
_CROSSOVER_BLOCKS = range(1, 17)


def _private_scalar(label: bytes) -> int:
    """A deterministic full-width scalar (naive cost scales with bits)."""
    return int.from_bytes(hashlib.sha256(label).digest(), "big") % ec.N


_SIGNER = ecdsa.keypair_from_private(_private_scalar(b"microbench signer"))
_PEER = ecdsa.keypair_from_private(_private_scalar(b"microbench peer"))


def _time(callable_, rounds=_ROUNDS):
    """Best-of-rounds wall clock; robust against scheduler noise."""
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - start)
    return best


def _deterministic_random(label):
    state = {"n": 0}

    def random_bytes(size):
        state["n"] += 1
        out = b""
        while len(out) < size:
            out += hashlib.sha256(
                f"{label}/{state['n']}/{len(out)}".encode()).digest()
        return out[:size]

    return random_bytes


def _handshake_once():
    """One full msg0..msg3 exchange between in-process engines."""
    claim = measure_bytes(b"microbench app").digest
    policy = VerifierPolicy()
    policy.endorse(_SIGNER.public_bytes())
    policy.trust_measurement(claim)
    attester = Attester(_deterministic_random("a"))
    verifier = Verifier(_PEER, policy, _deterministic_random("v"))
    session = attester.start_session(_PEER.public_bytes())
    vsession, msg1 = verifier.handle_msg0(attester.make_msg0(session))
    attester.handle_msg1(session, msg1)
    signed = attester.collect_evidence(
        session.anchor, claim, _SIGNER.public_bytes(),
        lambda body: ecdsa.sign(_SIGNER.private, body))
    msg3 = verifier.handle_msg2(vsession, attester.make_msg2(session, signed),
                                b"secret" * 16)
    return attester.handle_msg3(session, msg3)


def _measure_suite():
    """Time the four operations on the currently selected crypto path."""
    signature = ecdsa.sign(_SIGNER.private, _MESSAGE)
    return {
        "sign": _time(lambda: ecdsa.sign(_SIGNER.private, _MESSAGE)),
        "verify": _time(
            lambda: ecdsa.verify(_SIGNER.public, _MESSAGE, signature)),
        "ecdh": _time(
            lambda: ecdh.shared_secret(_SIGNER.private, _PEER.public)),
        "handshake": _time(_handshake_once, rounds=3),
    }


def _fresh_key_seal(size: int, rounds: int) -> float:
    """Best-of-rounds cold-cache ``AesGcm(key)`` plus one ``size`` seal."""
    plaintext = bytes(size)
    keys = iter(hashlib.sha256(b"fresh gcm key %d" % i).digest()[:16]
                for i in range(rounds))

    def once():
        gcm.AesGcm(next(keys)).seal(_GCM_IV, plaintext)

    gcm.clear_table_cache()
    return _time(once, rounds=rounds)


def _gcm_crossover() -> dict:
    """Fresh-key seals of N blocks with the stripe build forced off and
    on (median of interleaved rounds): the smallest N where building the
    stripe tables pays is the crossover ``_VECTOR_MIN_BLOCKS`` is set to."""
    threshold = gcm._VECTOR_MIN_BLOCKS
    sizes = [threshold // 2, threshold, threshold * 2]
    keys = (hashlib.sha256(b"crossover key %d" % i).digest()[:16]
            for i in itertools.count())
    series = {}
    try:
        for blocks in sizes:
            plaintext = bytes(blocks * 16)
            samples = {"scalar": [], "striped": []}
            for _ in range(9):
                for path, minimum in (("scalar", 1 << 62),
                                      ("striped", gcm.STRIPE_WIDTH)):
                    gcm._VECTOR_MIN_BLOCKS = minimum
                    cipher = gcm.AesGcm(next(keys))
                    start = time.perf_counter()
                    cipher.seal(_GCM_IV, plaintext)
                    samples[path].append(time.perf_counter() - start)
            series[blocks] = {path: statistics.median(times)
                              for path, times in samples.items()}
    finally:
        gcm._VECTOR_MIN_BLOCKS = threshold
    pays = [blocks for blocks in sizes
            if series[blocks]["striped"] <= series[blocks]["scalar"]]
    return {
        "vector_min_blocks": threshold,
        "fresh_key_seal_s": series,
        "stripes_pay_from_blocks": min(pays) if pays else None,
    }


def _interleaved_medians(candidates: dict, rounds: int) -> dict:
    """Median wall time of each callable, run alternately ``rounds`` times."""
    samples = {name: [] for name in candidates}
    for _ in range(rounds):
        for name, callable_ in candidates.items():
            start = time.perf_counter()
            callable_()
            samples[name].append(time.perf_counter() - start)
    return {name: statistics.median(times) for name, times in samples.items()}


def _keystream_suite() -> dict:
    """Fast keystream against the reference, and the scalar crossover."""
    cipher = aes.Aes128(hashlib.sha256(b"keystream key").digest()[:16])
    sizes = {}
    for blocks in _KEYSTREAM_BLOCKS:
        out = np.empty(blocks * 16, dtype=np.uint8)
        sizes[blocks] = _interleaved_medians({
            "fast": lambda: cipher.ctr_keystream_into(_GCM_IV, 2, out),
            "reference": lambda: cipher.ctr_keystream(_GCM_IV, 2, blocks),
        }, rounds=21 if blocks <= 8192 else 5)
    crossover = {}
    for blocks in _CROSSOVER_BLOCKS:
        out = np.empty(blocks * 16, dtype=np.uint8)
        crossover[blocks] = _interleaved_medians({
            "scalar": lambda: [
                cipher.encrypt_block(_GCM_IV + (2 + i).to_bytes(4, "big"))
                for i in range(blocks)],
            "vector": lambda: cipher._ctr_vector_into(_GCM_IV, 2, out),
        }, rounds=31)
    scalar_wins = [blocks for blocks, times in crossover.items()
                   if times["scalar"] < times["vector"]]
    return {
        "keystream_s": sizes,
        "crossover_s": crossover,
        "scalar_pays_up_to_blocks": max(scalar_wins, default=0),
        "scalar_max_blocks": aes._SCALAR_MAX_BLOCKS,
    }


def _gcm_suite() -> dict:
    gcm.clear_table_cache()
    suite = {
        "fresh_key_4k_s": _fresh_key_seal(_HANDSHAKE_MSG3, _ROUNDS),
        "stripe_builds_4k": gcm.table_cache_info()["stripe_builds"],
        "fresh_key_1m_s": _fresh_key_seal(_BULK_MSG3, 3),
        "stripe_builds_1m": gcm.table_cache_info()["stripe_builds"],
    }
    suite.update(_gcm_crossover())
    gcm.clear_table_cache()
    return suite


def test_crypto_microbench():
    # Warm tables first: generator combs are process-wide and built once;
    # the per-key tables model a verifier that has precomputed its
    # endorsed device keys (exactly what the gateway prewarm does).
    ec.warm_generator_tables()
    ec.precompute_public_key(_SIGNER.public)
    ec.precompute_public_key(_PEER.public)
    fast = _measure_suite()

    with ec.reference_paths():
        naive = _measure_suite()

    operations = ["sign", "verify", "ecdh", "handshake"]
    speedups = {op: naive[op] / fast[op] for op in operations}
    rows = [[op, format_duration(naive[op]), format_duration(fast[op]),
             f"{speedups[op]:.1f}x"] for op in operations]
    fresh_gcm = _gcm_suite()
    gcm_rows = [
        ["fresh key + 4 kB seal", format_duration(fresh_gcm["fresh_key_4k_s"]),
         f"{fresh_gcm['stripe_builds_4k']} stripe builds"],
        ["fresh key + 1 MB seal", format_duration(fresh_gcm["fresh_key_1m_s"]),
         f"{fresh_gcm['stripe_builds_1m']} stripe builds"],
    ]
    for blocks, times in fresh_gcm["fresh_key_seal_s"].items():
        gcm_rows.append([
            f"fresh key + {blocks} blocks, scalar / striped",
            f"{format_duration(times['scalar'])} / "
            f"{format_duration(times['striped'])}",
            "median; striped includes the build"])
    gcm_rows.append([
        "stripe build pays from", f"{fresh_gcm['stripes_pay_from_blocks']}"
        " blocks", f"_VECTOR_MIN_BLOCKS = {fresh_gcm['vector_min_blocks']}"])
    keystream = _keystream_suite()
    keystream_rows = [
        [f"{blocks} blocks", format_duration(times["reference"]),
         format_duration(times["fast"]),
         f"{times['reference'] / times['fast']:.1f}x"]
        for blocks, times in keystream["keystream_s"].items()]
    keystream_rows.append([
        "scalar cipher pays up to",
        f"{keystream['scalar_pays_up_to_blocks']} blocks", "",
        f"_SCALAR_MAX_BLOCKS = {keystream['scalar_max_blocks']}"])
    save_report("crypto_microbench", "\n".join([
        format_table(
            "P-256 fast paths vs naive reference (warm tables, best of "
            f"{_ROUNDS})",
            ["operation", "naive", "fast", "speedup"], rows,
        ),
        format_table(
            "Fresh-key AES-GCM (cold subkey-table cache)",
            ["operation", "time", "note"], gcm_rows,
        ),
        format_table(
            "AES-CTR keystream, fast vs reference (median of interleaved "
            "rounds)",
            ["request", "reference", "fast", "speedup"], keystream_rows,
        ),
    ]))

    save_json("BENCH_crypto", {
        "rounds": _ROUNDS,
        "naive_s": naive,
        "fast_s": fast,
        "speedup": speedups,
        "gcm_fresh_key": fresh_gcm,
        "ctr_keystream": keystream,
    })

    # Acceptance floor: the handshake-dominating verify and ECDH must be
    # at least 3x over the naive reference.
    assert speedups["verify"] >= 3.0, speedups
    assert speedups["ecdh"] >= 3.0, speedups
    assert fast["handshake"] < naive["handshake"]
    # Handshake-sized messages under a fresh key never build the stripe
    # tables; every fresh 1 MB seal does, once.
    assert fresh_gcm["stripe_builds_4k"] == 0, fresh_gcm
    assert fresh_gcm["stripe_builds_1m"] == 3, fresh_gcm
