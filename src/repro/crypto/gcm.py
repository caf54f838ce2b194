"""AES-128-GCM authenticated encryption (NIST SP 800-38D).

The verifier delivers the *secret blob* of msg3 under AES-GCM (paper §IV,
Table II: ``iv || AES-GCM_Ke(data)``). Two execution paths are provided,
mirroring :mod:`repro.crypto.ec`:

* a scalar reference path — per-block GHASH over byte-indexed tables and a
  byte-generator CTR XOR — retained verbatim as the oracle every fast-path
  change is differentially tested against;
* a vectorised fast path: NumPy ``bitwise_xor`` over ``frombuffer`` views
  for CTR, and striped GHASH with aggregated reduction — tables for
  H^1..H^W let a whole :data:`STRIPE_WIDTH`-block stripe be folded with 16
  batched gathers, with a scalar Horner step carrying the state across
  stripes.

:func:`use_fast_paths` switches between them at runtime; the switch selects
*algorithms* only — every ciphertext, tag, and accept/reject decision is
identical on both paths.

The streaming API (:meth:`AesGcm.stream_seal` / :meth:`AesGcm.stream_open`,
init/update/final semantics like :class:`repro.crypto.hashing.IncrementalHash`)
encrypts and folds GHASH in one pass over memoryview chunks so megabyte
msg3 blobs cross the pipeline without full-buffer intermediate copies. The
open stream never releases plaintext before the tag verifies.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

import numpy as np

from repro.crypto.aes import BLOCK_SIZE, Aes128
from repro.crypto.hashing import constant_time_equal
from repro.errors import AuthenticationError, CryptoError

IV_SIZE = 12
TAG_SIZE = 16

#: Blocks per GHASH stripe on the fast path. 64 blocks (1 KiB) keeps the
#: per-subkey stripe tables at 4 MiB while leaving the sequential Horner
#: fold with only N/64 scalar steps — small enough to disappear behind the
#: vectorised gathers (see DESIGN.md §16 for the width trade-off).
STRIPE_WIDTH = 64

#: Minimum whole blocks in a single fold before it builds a subkey's
#: stripe tables: the measured crossover of the stripe-table build against
#: the scalar fold it replaces (see DESIGN.md §16). Handshake-sized
#: messages stay below it and never pay the build. Once a subkey's stripe
#: tables exist, any fold of at least one stripe uses them.
_VECTOR_MIN_BLOCKS = 4096

#: Whole blocks in one fold/keystream call before work is split across
#: threads (numpy releases the GIL inside gathers). 16384 blocks = 256 KiB.
_PARALLEL_MIN_BLOCKS = 16384
_MAX_POOL_WORKERS = 4

_R = 0xE1 << 120
_MASK64 = (1 << 64) - 1


# --- fast/reference switch -----------------------------------------------------

_fast_paths = True


def use_fast_paths(enabled: bool) -> bool:
    """Select vectorised (True) or scalar reference (False) bulk crypto.

    Returns the previous setting. The switch selects *algorithms* only:
    ciphertexts, tags, and accept/reject behaviour are identical."""
    global _fast_paths
    previous = _fast_paths
    _fast_paths = bool(enabled)
    return previous


def fast_paths_enabled() -> bool:
    return _fast_paths


@contextmanager
def reference_paths() -> Iterator[None]:
    """Run a block on the scalar reference implementation."""
    previous = use_fast_paths(False)
    try:
        yield
    finally:
        use_fast_paths(previous)


# --- field arithmetic and reference tables -------------------------------------


def _mult_by_x(value: int) -> int:
    """Multiply a field element by x in GCM's bit-reflected representation."""
    if value & 1:
        return (value >> 1) ^ _R
    return value >> 1


def _gf_mult(x: int, y: int) -> int:
    """Reference GF(2^128) multiplication, bit by bit: the definition the
    table builders are tested against."""
    z = 0
    v = x
    for i in range(128):
        if (y >> (127 - i)) & 1:
            z ^= v
        v = _mult_by_x(v)
    return z


def _build_ghash_tables(h: int) -> List[List[int]]:
    """Per-byte-position multiplication tables for the hash subkey ``h``.

    ``tables[i][b]`` equals ``(b placed at byte position i) * h``, so a full
    product is 16 table lookups XORed together. Position 0 is the most
    significant byte. Multiplication by ``h`` is linear over XOR, so each
    row needs only its 8 single-bit products — ``h * x^d`` for the row's 8
    bit degrees ``d``, walked with 128 successive :func:`_mult_by_x` steps
    across all rows — and every other entry is ``row[bit | b] = row[b] ^
    single``, filled from the low bit up (255 XORs per row).
    """
    tables = []
    v = h
    for _ in range(16):
        singles = []
        for _ in range(8):  # degrees 8i .. 8i+7: byte bits 0x80 .. 0x01
            singles.append(v)
            v = _mult_by_x(v)
        row = [0]
        for single in reversed(singles):  # bit 0x01 first
            row += [entry ^ single for entry in row]
        tables.append(row)
    return tables


def _mult_tables(x: int, tables: List[List[int]]) -> int:
    """``x * h`` via the per-byte tables of ``h`` (16 lookups)."""
    acc = 0
    for i in range(16):
        acc ^= tables[i][(x >> (8 * (15 - i))) & 0xFF]
    return acc


# --- striped fast-path tables --------------------------------------------------


class _StripeTables:
    """Aggregated-reduction tables: products against H^1..H^W at once.

    For a stripe of W blocks the GHASH recurrence telescopes to
    ``Y' = Y * H^W  ^  sum_j X_j * H^(W-j)`` — every block's product uses a
    *different* subkey power, so all W products are data-independent and
    vectorise. ``gather[pos]`` holds, for byte position ``pos``, the product
    of every (power, byte value) pair packed as one complex128 (hi||lo
    uint64 halves), so a single ``np.take`` fetches a full 128-bit product.
    ``horner[pos][b]`` is the scalar per-byte table of H^W that carries the
    accumulated state across stripes.
    """

    def __init__(self, h: int, scalar_tables: List[List[int]]) -> None:
        width = STRIPE_WIDTH
        powers = [h]
        for _ in range(width - 1):
            powers.append(_mult_tables(powers[-1], scalar_tables))
        # Walk the 128 single-bit products x^d * H^(k+1) for all powers k
        # at once; singles[d] holds them as (hi, lo) uint64 halves.
        hi = np.array([p >> 64 for p in powers], dtype=np.uint64)
        lo = np.array([p & _MASK64 for p in powers], dtype=np.uint64)
        singles = np.empty((128, width, 2), dtype=np.uint64)
        r_hi = np.uint64(0xE1 << 56)
        one = np.uint64(1)
        shift63 = np.uint64(63)
        for d in range(128):
            singles[d, :, 0] = hi
            singles[d, :, 1] = lo
            lsb = lo & one
            lo = (lo >> one) | ((hi & one) << shift63)
            hi = (hi >> one) ^ (lsb * r_hi)
        # By linearity entry ``b | bit`` is entry ``b`` XOR the single for
        # ``bit``. Each position is filled byte-major in one reused 256 KiB
        # scratch, so every XOR runs over contiguous (W, 2) rows, and is
        # then transposed into the (power, byte) gather layout, moving each
        # 128-bit product as one complex128.
        lanes = singles.reshape(16, 8, width, 2)  # lane 0 = byte bit 0x80
        gather = np.empty((16, width, 256), dtype=np.complex128)
        scratch = np.empty((256, width, 2), dtype=np.uint64)
        scratch[0] = 0
        by_byte = scratch.view(np.complex128).reshape(256, width)
        for pos in range(16):
            for k in range(8):
                size = 1 << k
                np.bitwise_xor(scratch[:size], lanes[pos, 7 - k],
                               out=scratch[size:2 * size])
            gather[pos] = by_byte.T
        self.gather = [gather[pos].reshape(width * 256) for pos in range(16)]
        self.horner = _build_ghash_tables(powers[-1])


class _SubkeyTables:
    """All per-subkey state: scalar tables eagerly, stripe tables lazily.

    Stripe tables cost 4 MiB and a few milliseconds, so they are only
    built the first time a fold of at least :data:`_VECTOR_MIN_BLOCKS`
    runs — fresh session keys sealing small payloads never pay for them.
    """

    __slots__ = ("h", "scalar", "_stripes", "_lock")

    def __init__(self, h: int) -> None:
        self.h = h
        self.scalar = _build_ghash_tables(h)
        self._stripes = None
        self._lock = threading.Lock()

    def stripes(self, nblocks: int) -> Optional[_StripeTables]:
        """Stripe tables for a fold of ``nblocks`` blocks, or ``None`` when
        they are not built yet and the fold is too small to pay for them."""
        tables = self._stripes
        if tables is None and nblocks >= _VECTOR_MIN_BLOCKS:
            with self._lock:
                tables = self._stripes
                if tables is None:
                    tables = _StripeTables(self.h, self.scalar)
                    self._stripes = tables
                    with _table_cache_lock:
                        _table_stats["stripe_builds"] += 1
        return tables


#: Bounded LRU of per-subkey tables (same idiom as
#: ``ec.precompute_public_key``): fleet lanes re-keying per session reuse
#: tables instead of rebuilding all 16x256 entries per ``AesGcm`` instance.
_TABLE_CACHE_CAPACITY = 16
_table_cache: "OrderedDict[int, _SubkeyTables]" = OrderedDict()
_table_cache_lock = threading.Lock()
_table_stats = {"hits": 0, "misses": 0, "stripe_builds": 0}


def _tables_for_subkey(h: int) -> _SubkeyTables:
    with _table_cache_lock:
        entry = _table_cache.get(h)
        if entry is not None:
            _table_cache.move_to_end(h)
            _table_stats["hits"] += 1
            return entry
        _table_stats["misses"] += 1
    entry = _SubkeyTables(h)  # built outside the lock; ties pick one winner
    with _table_cache_lock:
        winner = _table_cache.setdefault(h, entry)
        _table_cache.move_to_end(h)
        while len(_table_cache) > _TABLE_CACHE_CAPACITY:
            _table_cache.popitem(last=False)
    return winner


def clear_table_cache() -> None:
    """Drop every cached subkey table and zero the counters."""
    with _table_cache_lock:
        _table_cache.clear()
        for name in _table_stats:
            _table_stats[name] = 0


def table_cache_info() -> Dict[str, int]:
    """Subkey-table cache occupancy and counters since the last clear."""
    with _table_cache_lock:
        return {"entries": len(_table_cache),
                "capacity": _TABLE_CACHE_CAPACITY, **_table_stats}


# --- worker pool (bulk folds and keystreams on multi-core hosts) ---------------

_pool = None
_pool_pid = 0
_pool_lock = threading.Lock()


def _bulk_workers(nblocks: int) -> int:
    if nblocks < _PARALLEL_MIN_BLOCKS:
        return 1
    cpus = os.cpu_count() or 1
    if cpus <= 1:
        return 1
    return min(_MAX_POOL_WORKERS, cpus)


def _executor() -> ThreadPoolExecutor:
    global _pool, _pool_pid
    pid = os.getpid()
    if _pool is None or _pool_pid != pid:  # forked children get a fresh pool
        with _pool_lock:
            if _pool is None or _pool_pid != pid:
                _pool = ThreadPoolExecutor(max_workers=_MAX_POOL_WORKERS,
                                           thread_name_prefix="gcm-bulk")
                _pool_pid = pid
    return _pool


# --- GHASH ---------------------------------------------------------------------


class _Ghash:
    """Streaming GHASH accumulator over prebuilt subkey tables (reference)."""

    def __init__(self, tables: List[List[int]]) -> None:
        self._tables = tables
        self._state = 0

    def update_blocks(self, data: bytes) -> None:
        """Fold zero-padded 16-byte blocks of ``data`` into the state."""
        tables = self._tables
        state = self._state
        full_end = len(data) - len(data) % BLOCK_SIZE
        for offset in range(0, full_end, BLOCK_SIZE):
            block = int.from_bytes(data[offset : offset + BLOCK_SIZE], "big")
            x = state ^ block
            acc = 0
            for i in range(16):
                acc ^= tables[i][(x >> (8 * (15 - i))) & 0xFF]
            state = acc
        if full_end != len(data):
            tail = data[full_end:] + b"\x00" * (BLOCK_SIZE - (len(data) - full_end))
            block = int.from_bytes(tail, "big")
            x = state ^ block
            acc = 0
            for i in range(16):
                acc ^= tables[i][(x >> (8 * (15 - i))) & 0xFF]
            state = acc
        self._state = state

    def digest(self) -> int:
        return self._state


_POWER_BASE = np.empty(0, dtype=np.intp)
_power_base_lock = threading.Lock()


def _power_base(n: int) -> np.ndarray:
    """Index bases ``(power_index << 8)`` tiled per stripe, cached and grown.

    Block ``j`` of a stripe multiplies ``H^(W-j)`` = ``powers[W-1-j]``; the
    gather index is ``(W-1-j) << 8 | byte``. The pattern repeats every
    stripe, so one cached tile serves every fold. The slice is taken from
    a local reference: a concurrent fold may swap the global, but only
    ever for a longer tile.
    """
    global _POWER_BASE
    base = _POWER_BASE
    if base.size < n:
        reps = -(-n // STRIPE_WIDTH)
        pattern = (STRIPE_WIDTH - 1 - np.arange(STRIPE_WIDTH, dtype=np.intp)) << 8
        base = np.tile(pattern, reps)
        with _power_base_lock:
            if _POWER_BASE.size < base.size:
                _POWER_BASE = base
    return base[:n]


def _column_products(gather: List[np.ndarray], mat: np.ndarray,
                     base: np.ndarray, out: np.ndarray) -> None:
    """XOR together all 16 byte-position products of each block into ``out``.

    One batched gather per byte position; products travel as complex128 so
    hi and lo 64-bit halves move in a single take. Every index is in range,
    so ``mode="wrap"`` gives the default's result without its copy of
    ``out`` through a buffer.
    """
    idx = np.empty(len(mat), dtype=np.intp)
    np.add(base, mat[:, 0], out=idx)
    np.take(gather[0], idx, out=out, mode="wrap")
    scratch = np.empty_like(out)
    acc = out.view(np.uint64)
    for pos in range(1, 16):
        np.add(base, mat[:, pos], out=idx)
        np.take(gather[pos], idx, out=scratch, mode="wrap")
        acc ^= scratch.view(np.uint64)


def _fold_striped(state: int, tables: _StripeTables, mat: np.ndarray,
                  nstripes: int) -> int:
    """Fold ``nstripes`` full stripes of blocks (``mat``: (n, 16) uint8)."""
    width = STRIPE_WIDTH
    n = nstripes * width
    base = _power_base(n)
    acc = np.empty(n, dtype=np.complex128)
    workers = _bulk_workers(n)
    if workers > 1:
        # Stripe-aligned slices: the power pattern restarts identically at
        # every stripe boundary, so each worker reuses the same base tile.
        pool = _executor()
        step = -(-nstripes // workers) * width
        futures = [
            pool.submit(_column_products, tables.gather,
                        mat[begin:begin + step], base[:min(step, n - begin)],
                        acc[begin:begin + step])
            for begin in range(0, n, step)
        ]
        for future in futures:
            future.result()
    else:
        _column_products(tables.gather, mat, base, acc)
    folded = np.bitwise_xor.reduce(
        acc.view(np.uint64).reshape(nstripes, width, 2), axis=1)
    highs = folded[:, 0].tolist()
    lows = folded[:, 1].tolist()
    t0, t1, t2, t3, t4, t5, t6, t7, t8, t9, t10, t11, t12, t13, t14, t15 = \
        tables.horner
    for s in range(nstripes):
        stripe = (highs[s] << 64) | lows[s]
        if state:
            stripe ^= (
                t0[(state >> 120) & 0xFF] ^ t1[(state >> 112) & 0xFF]
                ^ t2[(state >> 104) & 0xFF] ^ t3[(state >> 96) & 0xFF]
                ^ t4[(state >> 88) & 0xFF] ^ t5[(state >> 80) & 0xFF]
                ^ t6[(state >> 72) & 0xFF] ^ t7[(state >> 64) & 0xFF]
                ^ t8[(state >> 56) & 0xFF] ^ t9[(state >> 48) & 0xFF]
                ^ t10[(state >> 40) & 0xFF] ^ t11[(state >> 32) & 0xFF]
                ^ t12[(state >> 24) & 0xFF] ^ t13[(state >> 16) & 0xFF]
                ^ t14[(state >> 8) & 0xFF] ^ t15[state & 0xFF]
            )
        state = stripe
    return state


def _fold_scalar(state: int, tables: List[List[int]], view,
                 start_block: int, end_block: int) -> int:
    """Per-block fold over full blocks of a memoryview: 16 table lookups a
    block, indexed by the bytes of ``state ^ block`` unpacked at once."""
    t0, t1, t2, t3, t4, t5, t6, t7, t8, t9, t10, t11, t12, t13, t14, t15 = \
        tables
    from_bytes = int.from_bytes
    for offset in range(start_block * BLOCK_SIZE, end_block * BLOCK_SIZE,
                        BLOCK_SIZE):
        (b0, b1, b2, b3, b4, b5, b6, b7,
         b8, b9, b10, b11, b12, b13, b14, b15) = (
            state ^ from_bytes(view[offset:offset + BLOCK_SIZE], "big")
        ).to_bytes(BLOCK_SIZE, "big")
        state = (t0[b0] ^ t1[b1] ^ t2[b2] ^ t3[b3] ^ t4[b4] ^ t5[b5]
                 ^ t6[b6] ^ t7[b7] ^ t8[b8] ^ t9[b9] ^ t10[b10] ^ t11[b11]
                 ^ t12[b12] ^ t13[b13] ^ t14[b14] ^ t15[b15])
    return state


class _GhashState:
    """Streaming GHASH over arbitrary-length chunks with segment padding.

    ``update`` absorbs bytes; ``close_segment`` zero-pads the dangling
    partial block exactly as the reference :class:`_Ghash` pads each
    ``update_blocks`` call, so a (aad, ciphertext, lengths) segment
    sequence digests identically on both paths.
    """

    __slots__ = ("_tables", "_fast", "_state", "_partial")

    def __init__(self, tables: _SubkeyTables, fast: bool) -> None:
        self._tables = tables
        self._fast = fast
        self._state = 0
        self._partial = bytearray()

    def update(self, data) -> None:
        if not len(data):
            return
        view = memoryview(data)
        if self._partial:
            need = BLOCK_SIZE - len(self._partial)
            take = min(need, len(view))
            self._partial.extend(view[:take])
            view = view[take:]
            if len(self._partial) < BLOCK_SIZE:
                return
            self._state = _fold_scalar(
                self._state, self._tables.scalar, self._partial, 0, 1)
            self._partial.clear()
        nblocks = len(view) // BLOCK_SIZE
        if nblocks:
            whole = view[: nblocks * BLOCK_SIZE]
            self._state = self._fold_blocks(whole, nblocks)
            view = view[nblocks * BLOCK_SIZE :]
        if len(view):
            self._partial.extend(view)

    def _fold_blocks(self, view, nblocks: int) -> int:
        state = self._state
        stripes = None
        if self._fast and nblocks >= STRIPE_WIDTH:
            stripes = self._tables.stripes(nblocks)
        if stripes is None:
            return _fold_scalar(state, self._tables.scalar, view, 0, nblocks)
        nstripes = nblocks // STRIPE_WIDTH
        full = nstripes * STRIPE_WIDTH
        mat = np.frombuffer(view, dtype=np.uint8,
                            count=full * BLOCK_SIZE).reshape(full, 16)
        state = _fold_striped(state, stripes, mat, nstripes)
        if full != nblocks:
            state = _fold_scalar(state, self._tables.scalar, view,
                                 full, nblocks)
        return state

    def close_segment(self) -> None:
        if self._partial:
            self._partial.extend(b"\x00" * (BLOCK_SIZE - len(self._partial)))
            self._state = _fold_scalar(
                self._state, self._tables.scalar, self._partial, 0, 1)
            self._partial.clear()

    def digest(self) -> int:
        return self._state


# --- CTR keystream streams -----------------------------------------------------


def _ctr_fill(cipher: Aes128, iv: bytes, start_block: int,
              out: np.ndarray) -> None:
    """Fill ``out`` with fast-path keystream, split across threads when big."""
    nblocks = len(out) // BLOCK_SIZE
    workers = _bulk_workers(nblocks)
    if workers <= 1:
        cipher.ctr_keystream_into(iv, start_block, out)
        return
    pool = _executor()
    step = -(-nblocks // workers)
    futures = [
        pool.submit(cipher.ctr_keystream_into, iv, start_block + begin,
                    out[begin * BLOCK_SIZE : (begin + step) * BLOCK_SIZE])
        for begin in range(0, nblocks, step)
    ]
    for future in futures:
        future.result()


class _CtrFast:
    """Chunked CTR XOR: numpy keystream blocks, ``bitwise_xor`` over views."""

    def __init__(self, cipher: Aes128, iv: bytes) -> None:
        self._cipher = cipher
        self._iv = iv
        self._next_block = 2
        self._leftover = b""

    def xor_into(self, src, out) -> None:
        src_arr = np.frombuffer(src, dtype=np.uint8)
        out_arr = np.frombuffer(out, dtype=np.uint8)
        n = len(src_arr)
        pos = 0
        if self._leftover:
            take = min(len(self._leftover), n)
            np.bitwise_xor(
                src_arr[:take],
                np.frombuffer(self._leftover, dtype=np.uint8, count=take),
                out=out_arr[:take])
            self._leftover = self._leftover[take:]
            pos = take
        remaining = n - pos
        if not remaining:
            return
        nblocks = (remaining + BLOCK_SIZE - 1) // BLOCK_SIZE
        keystream = np.empty(nblocks * BLOCK_SIZE, dtype=np.uint8)
        _ctr_fill(self._cipher, self._iv, self._next_block, keystream)
        self._next_block += nblocks
        np.bitwise_xor(src_arr[pos:], keystream[:remaining], out=out_arr[pos:])
        self._leftover = keystream[remaining:].tobytes()


class _CtrReference:
    """Chunked CTR XOR via the original keystream call and byte generator."""

    def __init__(self, cipher: Aes128, iv: bytes) -> None:
        self._cipher = cipher
        self._iv = iv
        self._next_block = 2
        self._leftover = b""

    def xor_into(self, src, out) -> None:
        view = memoryview(src)
        n = len(view)
        pos = 0
        if self._leftover:
            take = min(len(self._leftover), n)
            out[:take] = bytes(
                a ^ b for a, b in zip(view[:take], self._leftover))
            self._leftover = self._leftover[take:]
            pos = take
        remaining = n - pos
        if not remaining:
            return
        nblocks = (remaining + BLOCK_SIZE - 1) // BLOCK_SIZE
        keystream = self._cipher.ctr_keystream(self._iv, self._next_block,
                                               nblocks)
        self._next_block += nblocks
        out[pos:n] = bytes(a ^ b for a, b in zip(view[pos:], keystream))
        self._leftover = keystream[remaining:]


def _make_ctr(cipher: Aes128, iv: bytes, fast: bool):
    return _CtrFast(cipher, iv) if fast else _CtrReference(cipher, iv)


# --- streaming AEAD ------------------------------------------------------------


class GcmSealStream:
    """Single-pass streaming seal: init / update / final, like
    :class:`repro.crypto.hashing.IncrementalHash`.

    ``update_into`` encrypts a chunk straight into a caller buffer and
    folds the produced ciphertext into GHASH as it appears — no
    full-message intermediate. ``final`` returns the 16-byte tag. The
    fast/reference selection is captured at construction so a stream is
    internally consistent even if the switch flips mid-stream.
    """

    def __init__(self, gcm: "AesGcm", iv: bytes, aad: bytes = b"") -> None:
        if len(iv) != IV_SIZE:
            raise CryptoError("GCM IV must be 96 bits")
        fast = _fast_paths
        self._cipher = gcm._cipher
        self._iv = bytes(iv)
        self._ghash = _GhashState(gcm._tables, fast)
        if aad:
            self._ghash.update(aad)
            self._ghash.close_segment()
        self._aad_bits = len(aad) * 8
        self._ctr = _make_ctr(self._cipher, self._iv, fast)
        self._ct_len = 0
        self._finished = False

    def update_into(self, chunk, out) -> int:
        """Encrypt ``chunk`` into the start of ``out``; returns its length."""
        if self._finished:
            raise CryptoError("GCM stream already finalised")
        n = len(chunk)
        if n:
            target = memoryview(out)[:n]
            self._ctr.xor_into(chunk, target)
            self._ghash.update(target)
            self._ct_len += n
        return n

    def update(self, chunk) -> bytes:
        """Encrypt ``chunk`` and return its ciphertext."""
        out = bytearray(len(chunk))
        self.update_into(chunk, out)
        return bytes(out)

    def final(self) -> bytes:
        """Close the stream and return the authentication tag."""
        if self._finished:
            raise CryptoError("GCM stream already finalised")
        self._finished = True
        self._ghash.close_segment()
        self._ghash.update(self._aad_bits.to_bytes(8, "big")
                           + (self._ct_len * 8).to_bytes(8, "big"))
        mask = int.from_bytes(
            self._cipher.encrypt_block(self._iv + b"\x00\x00\x00\x01"), "big")
        return (self._ghash.digest() ^ mask).to_bytes(BLOCK_SIZE, "big")


class GcmOpenStream:
    """Streaming open over ``ciphertext || tag`` chunks.

    The final :data:`TAG_SIZE` bytes of the stream are the tag, so the
    last 16 bytes seen are always held back; everything before them is
    folded into GHASH immediately and retained as zero-copy views.
    ``final`` verifies the tag **before** any decryption — a tampered
    stream never releases a byte of plaintext. Callers must keep the
    underlying chunk buffers unchanged until ``final`` returns.
    """

    def __init__(self, gcm: "AesGcm", iv: bytes, aad: bytes = b"") -> None:
        if len(iv) != IV_SIZE:
            raise CryptoError("GCM IV must be 96 bits")
        self._fast = _fast_paths
        self._cipher = gcm._cipher
        self._iv = bytes(iv)
        self._ghash = _GhashState(gcm._tables, self._fast)
        if aad:
            self._ghash.update(aad)
            self._ghash.close_segment()
        self._aad_bits = len(aad) * 8
        self._pending = bytearray()
        self._parts: List[object] = []
        self._ct_len = 0
        self._finished = False

    def update(self, chunk) -> None:
        """Absorb the next chunk of the sealed stream."""
        if self._finished:
            raise CryptoError("GCM stream already finalised")
        view = memoryview(chunk)
        total = len(self._pending) + len(view)
        if total <= TAG_SIZE:
            self._pending.extend(view)
            return
        release = total - TAG_SIZE
        if self._pending:
            take = min(len(self._pending), release)
            part = bytes(self._pending[:take])
            del self._pending[:take]
            self._ghash.update(part)
            self._parts.append(part)
            self._ct_len += take
            release -= take
        if release:
            part = view[:release]
            self._ghash.update(part)
            self._parts.append(part)
            self._ct_len += release
            view = view[release:]
        self._pending.extend(view)

    def final(self) -> bytes:
        """Verify the tag, then decrypt and return the plaintext."""
        if self._finished:
            raise CryptoError("GCM stream already finalised")
        self._finished = True
        if len(self._pending) < TAG_SIZE:
            raise AuthenticationError("sealed message shorter than the tag")
        tag = bytes(self._pending)
        self._ghash.close_segment()
        self._ghash.update(self._aad_bits.to_bytes(8, "big")
                           + (self._ct_len * 8).to_bytes(8, "big"))
        mask = int.from_bytes(
            self._cipher.encrypt_block(self._iv + b"\x00\x00\x00\x01"), "big")
        expected = (self._ghash.digest() ^ mask).to_bytes(BLOCK_SIZE, "big")
        if not constant_time_equal(tag, expected):
            raise AuthenticationError("GCM tag verification failed")
        # Only now is the keystream ever generated.
        ctr = _make_ctr(self._cipher, self._iv, self._fast)
        plaintext = bytearray(self._ct_len)
        view = memoryview(plaintext)
        offset = 0
        for part in self._parts:
            end = offset + len(part)
            ctr.xor_into(part, view[offset:end])
            offset = end
        self._parts.clear()
        return bytes(plaintext)


# --- one-shot interface --------------------------------------------------------


class AesGcm:
    """AES-128-GCM with 96-bit IVs and 128-bit tags."""

    def __init__(self, key: bytes) -> None:
        self._cipher = Aes128(key)
        h = int.from_bytes(self._cipher.encrypt_block(b"\x00" * BLOCK_SIZE), "big")
        self._tables = _tables_for_subkey(h)

    def _process(self, iv: bytes, data: bytes) -> bytes:
        """CTR-transform ``data``; encryption and decryption share this body."""
        nblocks = (len(data) + BLOCK_SIZE - 1) // BLOCK_SIZE
        keystream = self._cipher.ctr_keystream(iv, 2, nblocks)
        return bytes(a ^ b for a, b in zip(data, keystream))

    def _tag(self, iv: bytes, ciphertext: bytes, aad: bytes) -> bytes:
        ghash = _Ghash(self._tables.scalar)
        if aad:
            ghash.update_blocks(aad)
        if ciphertext:
            ghash.update_blocks(ciphertext)
        lengths = (len(aad) * 8).to_bytes(8, "big") + (len(ciphertext) * 8).to_bytes(8, "big")
        ghash.update_blocks(lengths)
        s = ghash.digest().to_bytes(BLOCK_SIZE, "big")
        j0 = iv + b"\x00\x00\x00\x01"
        mask = self._cipher.encrypt_block(j0)
        return bytes(a ^ b for a, b in zip(s, mask))

    def stream_seal(self, iv: bytes, aad: bytes = b"") -> GcmSealStream:
        """Open a streaming seal; see :class:`GcmSealStream`."""
        return GcmSealStream(self, iv, aad)

    def stream_open(self, iv: bytes, aad: bytes = b"") -> GcmOpenStream:
        """Open a streaming open; see :class:`GcmOpenStream`."""
        return GcmOpenStream(self, iv, aad)

    def seal(self, iv: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
        """Encrypt and authenticate; returns ``ciphertext || tag``."""
        if len(iv) != IV_SIZE:
            raise CryptoError("GCM IV must be 96 bits")
        if not _fast_paths:
            ciphertext = self._process(iv, plaintext)
            return ciphertext + self._tag(iv, ciphertext, aad)
        sealed = bytearray(len(plaintext) + TAG_SIZE)
        view = memoryview(sealed)
        stream = GcmSealStream(self, iv, aad)
        n = stream.update_into(plaintext, view)
        view[n:] = stream.final()
        return bytes(sealed)

    def open(self, iv: bytes, sealed: bytes, aad: bytes = b"") -> bytes:
        """Verify the tag, then decrypt; raises on any tampering."""
        if len(iv) != IV_SIZE:
            raise CryptoError("GCM IV must be 96 bits")
        if len(sealed) < TAG_SIZE:
            raise AuthenticationError("sealed message shorter than the tag")
        if not _fast_paths:
            ciphertext, tag = sealed[:-TAG_SIZE], sealed[-TAG_SIZE:]
            expected = self._tag(iv, ciphertext, aad)
            if not constant_time_equal(tag, expected):
                raise AuthenticationError("GCM tag verification failed")
            return self._process(iv, ciphertext)
        stream = GcmOpenStream(self, iv, aad)
        stream.update(sealed)
        return stream.final()
