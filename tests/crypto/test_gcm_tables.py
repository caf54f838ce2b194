"""GHASH subkey tables, pinned to the field definition.

The scalar and stripe tables are built by linearity (single-bit products
XORed together); ``_gf_mult`` stays as the bit-by-bit reference these
tests check every builder against. Also covers the subkey-table cache
counters and the shared stripe index tile under concurrent folds.
"""

import random
import threading
import time

import numpy as np
import pytest

from repro.crypto import gcm
from repro.crypto.gcm import STRIPE_WIDTH, AesGcm

_EDGE_SUBKEYS = [0, 1, gcm._R, (1 << 128) - 1]
_RANDOM_SUBKEYS = [random.Random(seed).getrandbits(128) for seed in range(3)]
_SUBKEYS = _EDGE_SUBKEYS + _RANDOM_SUBKEYS


def _powers(h: int, count: int) -> list:
    """``[h^1, ..., h^count]`` by repeated reference multiplication."""
    powers = [h]
    while len(powers) < count:
        powers.append(gcm._gf_mult(powers[-1], h))
    return powers


@pytest.mark.parametrize("h", _SUBKEYS, ids=lambda h: f"{h:032x}")
def test_scalar_tables_match_definition(h):
    tables = gcm._build_ghash_tables(h)
    assert len(tables) == 16
    for i, row in enumerate(tables):
        assert len(row) == 256
        for b in range(256):
            assert row[b] == gcm._gf_mult(b << (120 - 8 * i), h), (i, b)


@pytest.mark.parametrize("h", _SUBKEYS, ids=lambda h: f"{h:032x}")
def test_stripe_tables_match_definition(h):
    stripes = gcm._StripeTables(h, gcm._build_ghash_tables(h))
    powers = _powers(h, STRIPE_WIDTH)
    for pos, b in [(0, 1), (3, 0x5A), (15, 0xFF)]:
        assert stripes.horner[pos][b] == gcm._gf_mult(
            b << (120 - 8 * pos), powers[-1])
    rng = random.Random(h & 0xFFFF)
    triples = [(0, 0, 0), (15, STRIPE_WIDTH - 1, 255), (7, 31, 0x80)]
    triples += [(rng.randrange(16), rng.randrange(STRIPE_WIDTH),
                 rng.randrange(256)) for _ in range(40)]
    for pos, power_index, byte in triples:
        pair = stripes.gather[pos].view(np.uint64)[
            2 * (power_index * 256 + byte):2 * (power_index * 256 + byte) + 2]
        got = (int(pair[0]) << 64) | int(pair[1])
        expected = gcm._gf_mult(byte << (120 - 8 * pos),
                                powers[power_index])
        assert got == expected, (pos, power_index, byte)


def test_power_base_is_full_length_under_concurrent_mixed_sizes(monkeypatch):
    """Folds of different sizes racing to grow the shared index tile each
    get back a tile of exactly the length they asked for.

    A line tracer hands the GIL to another thread at every line of
    ``_power_base``, so the interleavings that used to return a tile
    shorter than asked for (grow, then re-read a global another thread
    has since replaced) occur on nearly every run.
    """
    monkeypatch.setattr(gcm, "_POWER_BASE", np.empty(0, dtype=np.intp))
    code = gcm._power_base.__code__

    def yield_every_line(frame, event, arg):
        time.sleep(1e-5)
        return yield_every_line

    def tracer(frame, event, arg):
        return yield_every_line if frame.f_code is code else None

    sizes = [STRIPE_WIDTH * k for k in (1, 2, 7, 33, 64, 300)]
    pattern = (STRIPE_WIDTH - 1 - np.arange(STRIPE_WIDTH)) << 8
    errors = []
    barrier = threading.Barrier(4)

    def worker(seed):
        rng = random.Random(seed)
        barrier.wait()
        for _ in range(150):
            n = rng.choice(sizes)
            if rng.random() < 0.2:
                gcm._POWER_BASE = np.empty(0, dtype=np.intp)
            base = gcm._power_base(n)
            if len(base) != n or not np.array_equal(
                    base, np.tile(pattern, n // STRIPE_WIDTH)):
                errors.append((n, len(base)))

    threads = [threading.Thread(target=worker, args=(seed,))
               for seed in range(4)]
    threading.settrace(tracer)
    try:
        for thread in threads:
            thread.start()
    finally:
        threading.settrace(None)
    for thread in threads:
        thread.join()
    assert not errors, errors[:5]


def test_table_cache_counters():
    gcm.clear_table_cache()
    info = gcm.table_cache_info()
    assert info == {"entries": 0, "capacity": info["capacity"], "hits": 0,
                    "misses": 0, "stripe_builds": 0}
    key = bytes(range(16))
    AesGcm(key)
    AesGcm(key)
    info = gcm.table_cache_info()
    assert (info["entries"], info["hits"], info["misses"]) == (1, 1, 1)
    cipher = AesGcm(key)
    cipher.seal(b"\x00" * 12, bytes(4096))
    assert gcm.table_cache_info()["stripe_builds"] == 0
    cipher.seal(b"\x00" * 12, bytes(gcm._VECTOR_MIN_BLOCKS * 16))
    cipher.seal(b"\x00" * 12, bytes(gcm._VECTOR_MIN_BLOCKS * 16))
    assert gcm.table_cache_info()["stripe_builds"] == 1
    for index in range(info["capacity"] + 3):
        AesGcm(index.to_bytes(16, "big"))
    assert gcm.table_cache_info()["entries"] == info["capacity"]
    gcm.clear_table_cache()
    assert gcm.table_cache_info()["entries"] == 0
