"""AES-128 block cipher, from scratch.

The WaTZ protocol uses AES-128 in two modes: GCM for the encrypted secret
blob (msg3) and CMAC for per-message authentication and key derivation.
Both only need the *forward* cipher, so no decryption schedule is built.

Two execution paths are provided:

* a scalar T-table path for single blocks (CMAC, GHASH subkey, tag mask);
* a NumPy-vectorised counter-mode keystream that encrypts thousands of
  counter blocks per call, keeping megabyte-scale msg3 payloads (Fig. 7 of
  the paper evaluates up to 3 MB) tractable in pure Python. Each round
  runs over the whole state of a slab at once, and rounds 1-2 come from
  per-segment tables of the two counter bytes they depend on.

All tables are generated programmatically from the AES field definition so
there are no hand-typed constants to mistype.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.errors import CryptoError

BLOCK_SIZE = 16
KEY_SIZE = 16
_ROUNDS = 10


def _build_gf_tables() -> tuple:
    """Build log/antilog tables for GF(2^8) with the AES polynomial."""
    alog = [0] * 256
    log = [0] * 256
    value = 1
    for exponent in range(255):
        alog[exponent] = value
        log[value] = exponent
        # Multiply by the generator 0x03 = x + 1.
        value ^= (value << 1) ^ (0x11B if value & 0x80 else 0)
        value &= 0xFF
    alog[255] = alog[0]
    return alog, log


_ALOG, _LOG = _build_gf_tables()


def _gf_mult(a: int, b: int) -> int:
    if a == 0 or b == 0:
        return 0
    return _ALOG[(_LOG[a] + _LOG[b]) % 255]


def _build_sbox() -> List[int]:
    """Derive the S-box from the field inverse plus the affine transform."""
    sbox = [0] * 256
    for value in range(256):
        inverse = 0 if value == 0 else _ALOG[(255 - _LOG[value]) % 255]
        result = 0x63
        for shift in range(5):
            rotated = ((inverse << shift) | (inverse >> (8 - shift))) & 0xFF
            result ^= rotated
        sbox[value] = result & 0xFF
    return sbox


_SBOX = _build_sbox()


def _build_t_tables() -> tuple:
    """Build the four round-transform tables (SubBytes+ShiftRows+MixColumns)."""
    t0 = [0] * 256
    for value in range(256):
        s = _SBOX[value]
        t0[value] = (
            (_gf_mult(s, 2) << 24) | (s << 16) | (s << 8) | _gf_mult(s, 3)
        )
    ror8 = lambda w: ((w >> 8) | (w << 24)) & 0xFFFFFFFF
    t1 = [ror8(w) for w in t0]
    t2 = [ror8(w) for w in t1]
    t3 = [ror8(w) for w in t2]
    return t0, t1, t2, t3


_T0, _T1, _T2, _T3 = _build_t_tables()

# NumPy copies for the vectorised counter-mode path.
_NP_T0 = np.array(_T0, dtype=np.uint32)
_NP_T1 = np.array(_T1, dtype=np.uint32)
_NP_T2 = np.array(_T2, dtype=np.uint32)
_NP_T3 = np.array(_T3, dtype=np.uint32)
_NP_SBOX = np.array(_SBOX, dtype=np.uint32)

# Paired tables: every AES round word XORs four table lookups, and the
# ShiftRows pattern always pairs T0 with T1 and T2 with T3. Merging each
# pair into one 65536-entry table indexed by two state bytes halves the
# gather count per round (8 instead of 16), which is where the vectorised
# keystream spends its time. ``_NP_SB2_HI``/``_NP_SB2`` are the same trick
# for the final SubBytes round: two S-box outputs packed per lookup, the
# high table already shifted into the word's upper half.
_NP_P01 = (_NP_T0[:, None] ^ _NP_T1[None, :]).reshape(-1)
_NP_P23 = (_NP_T2[:, None] ^ _NP_T3[None, :]).reshape(-1)
_NP_SB2 = ((_NP_SBOX[:, None] << 8) | _NP_SBOX[None, :]).reshape(-1)
_NP_SB2_HI = _NP_SB2 << 16

_RCON = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36]

#: Counter blocks per vectorised slab. On a 65536-block request, slabs
#: of 1024, 2048, 4096 and 8192 blocks measured 28.7, 21.4, 17.2 and
#: 16.5 ms (2-vCPU Xeon); 4096 keeps the working set near 0.5 MiB.
_SLAB_BLOCKS = 4096

#: Keystream requests of at most this many blocks run on the scalar
#: cipher. It is the crossover ``bench_crypto_microbench`` measures
#: (11-12 blocks on a 2-vCPU Xeon, Python 3.11, NumPy 2.4): up to it the
#: vectorised path's fixed cost (round-2 tables, ~100 small NumPy calls)
#: exceeds per-block :meth:`Aes128.encrypt_block` calls.
_SCALAR_MAX_BLOCKS = 12

_BYTE_VALUES = np.arange(256, dtype=np.uint32)


class _WholeState:
    """Scratch for AES rounds over all blocks of a slab at once.

    The state is a ``(7, m)`` uint32 array: rows 0-3 hold column word
    ``k`` of every block and rows 4-6 repeat rows 0-2. Output word ``k``
    of a round reads ShiftRows partners ``s[k], s[k+1], s[k+2], s[k+3]``,
    so for all four words at once those are the contiguous row slices
    ``ext[0:4] .. ext[3:7]``, and a round is ten NumPy calls
    whatever ``m`` is. Its paired-table indices are ``(s[k] byte 0,
    s[k+1] byte 1)`` and ``(s[k+2] byte 2, s[k+3] byte 3)``: the high and
    low halves of ``(s[k] & 0xFF00FF00) | (s[k+1] & 0x00FF00FF)``
    taken at ``k`` and ``k + 2``.

    Every gather passes ``mode="wrap"``: all indices are 16-bit, so the
    result is the same as the default ``"raise"``, which always copies
    through a buffer before writing ``out``.
    """

    __slots__ = ("_even", "_odd", "_hi", "_lo", "_gathered")

    def __init__(self, m: int) -> None:
        self._even = np.empty((6, m), dtype=np.uint32)
        self._odd = np.empty((6, m), dtype=np.uint32)
        self._hi = np.empty((4, m), dtype=np.uint32)
        self._lo = np.empty((4, m), dtype=np.uint32)
        self._gathered = np.empty((4, m), dtype=np.uint32)

    def _pair_indices(self, ext: np.ndarray):
        """Paired-table indices of every output word, as (hi, lo) views."""
        m = ext.shape[1]
        even, odd = self._even[:, :m], self._odd[:, :m]
        hi, lo = self._hi[:, :m], self._lo[:, :m]
        np.bitwise_and(ext[0:6], 0xFF00FF00, out=even)
        np.bitwise_and(ext[1:7], 0x00FF00FF, out=odd)
        np.bitwise_or(even, odd, out=even)
        np.right_shift(even[0:4], 16, out=hi)
        np.bitwise_and(even[2:6], 0xFFFF, out=lo)
        return hi, lo

    def rounds(self, ext: np.ndarray, rk: np.ndarray, first: int,
               stop: int) -> None:
        """Apply T-table rounds ``first .. stop - 1`` to ``ext`` in place;
        ``rk`` is the round-key column ``(44, 1)``."""
        words = ext[0:4]
        gathered = self._gathered[:, :ext.shape[1]]
        for round_index in range(first, stop):
            hi, lo = self._pair_indices(ext)
            np.take(_NP_P01, hi, out=gathered, mode="wrap")
            np.take(_NP_P23, lo, out=words, mode="wrap")
            np.bitwise_xor(words, gathered, out=words)
            np.bitwise_xor(words, rk[4 * round_index:4 * round_index + 4],
                           out=words)
            ext[4:7] = ext[0:3]

    def last_round(self, ext: np.ndarray, rk: np.ndarray,
                   out: np.ndarray) -> None:
        """SubBytes, ShiftRows and the last AddRoundKey into ``out`` (4, m)."""
        hi, lo = self._pair_indices(ext)
        gathered = self._gathered[:, :ext.shape[1]]
        np.take(_NP_SB2_HI, hi, out=gathered, mode="wrap")
        np.take(_NP_SB2, lo, out=hi, mode="wrap")
        np.bitwise_or(gathered, hi, out=gathered)
        np.bitwise_xor(gathered, rk[4 * _ROUNDS:], out=out)


def _expand_key(key: bytes) -> List[int]:
    """AES-128 key schedule: 16-byte key to 44 round-key words."""
    words = [int.from_bytes(key[i : i + 4], "big") for i in range(0, 16, 4)]
    for i in range(4, 44):
        temp = words[i - 1]
        if i % 4 == 0:
            rotated = ((temp << 8) | (temp >> 24)) & 0xFFFFFFFF
            temp = (
                (_SBOX[(rotated >> 24) & 0xFF] << 24)
                | (_SBOX[(rotated >> 16) & 0xFF] << 16)
                | (_SBOX[(rotated >> 8) & 0xFF] << 8)
                | _SBOX[rotated & 0xFF]
            )
            temp ^= _RCON[i // 4 - 1] << 24
        words.append(words[i - 4] ^ temp)
    return words


class Aes128:
    """A keyed AES-128 forward cipher."""

    def __init__(self, key: bytes) -> None:
        if len(key) != KEY_SIZE:
            raise CryptoError("AES-128 requires a 16-byte key")
        self._round_keys = _expand_key(key)
        self._np_round_keys = np.array(self._round_keys, dtype=np.uint32)
        self._np_round_cols = self._np_round_keys[:, None]

    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt a single 16-byte block (scalar path)."""
        if len(block) != BLOCK_SIZE:
            raise CryptoError("AES block must be 16 bytes")
        rk = self._round_keys
        s0 = int.from_bytes(block[0:4], "big") ^ rk[0]
        s1 = int.from_bytes(block[4:8], "big") ^ rk[1]
        s2 = int.from_bytes(block[8:12], "big") ^ rk[2]
        s3 = int.from_bytes(block[12:16], "big") ^ rk[3]
        for round_index in range(1, _ROUNDS):
            base = round_index * 4
            e0 = (
                _T0[s0 >> 24] ^ _T1[(s1 >> 16) & 0xFF]
                ^ _T2[(s2 >> 8) & 0xFF] ^ _T3[s3 & 0xFF] ^ rk[base]
            )
            e1 = (
                _T0[s1 >> 24] ^ _T1[(s2 >> 16) & 0xFF]
                ^ _T2[(s3 >> 8) & 0xFF] ^ _T3[s0 & 0xFF] ^ rk[base + 1]
            )
            e2 = (
                _T0[s2 >> 24] ^ _T1[(s3 >> 16) & 0xFF]
                ^ _T2[(s0 >> 8) & 0xFF] ^ _T3[s1 & 0xFF] ^ rk[base + 2]
            )
            e3 = (
                _T0[s3 >> 24] ^ _T1[(s0 >> 16) & 0xFF]
                ^ _T2[(s1 >> 8) & 0xFF] ^ _T3[s2 & 0xFF] ^ rk[base + 3]
            )
            s0, s1, s2, s3 = e0, e1, e2, e3
        base = _ROUNDS * 4
        o0 = (
            (_SBOX[s0 >> 24] << 24) | (_SBOX[(s1 >> 16) & 0xFF] << 16)
            | (_SBOX[(s2 >> 8) & 0xFF] << 8) | _SBOX[s3 & 0xFF]
        ) ^ rk[base]
        o1 = (
            (_SBOX[s1 >> 24] << 24) | (_SBOX[(s2 >> 16) & 0xFF] << 16)
            | (_SBOX[(s3 >> 8) & 0xFF] << 8) | _SBOX[s0 & 0xFF]
        ) ^ rk[base + 1]
        o2 = (
            (_SBOX[s2 >> 24] << 24) | (_SBOX[(s3 >> 16) & 0xFF] << 16)
            | (_SBOX[(s0 >> 8) & 0xFF] << 8) | _SBOX[s1 & 0xFF]
        ) ^ rk[base + 2]
        o3 = (
            (_SBOX[s3 >> 24] << 24) | (_SBOX[(s0 >> 16) & 0xFF] << 16)
            | (_SBOX[(s1 >> 8) & 0xFF] << 8) | _SBOX[s2 & 0xFF]
        ) ^ rk[base + 3]
        return b"".join(w.to_bytes(4, "big") for w in (o0, o1, o2, o3))

    def encrypt_blocks(self, states: np.ndarray) -> np.ndarray:
        """Encrypt many blocks at once; ``states`` is (n, 4) uint32 words."""
        rk = self._np_round_keys
        s = states ^ rk[0:4]
        s0, s1, s2, s3 = s[:, 0], s[:, 1], s[:, 2], s[:, 3]
        for round_index in range(1, _ROUNDS):
            base = round_index * 4
            e0 = (
                _NP_T0[s0 >> 24] ^ _NP_T1[(s1 >> 16) & 0xFF]
                ^ _NP_T2[(s2 >> 8) & 0xFF] ^ _NP_T3[s3 & 0xFF] ^ rk[base]
            )
            e1 = (
                _NP_T0[s1 >> 24] ^ _NP_T1[(s2 >> 16) & 0xFF]
                ^ _NP_T2[(s3 >> 8) & 0xFF] ^ _NP_T3[s0 & 0xFF] ^ rk[base + 1]
            )
            e2 = (
                _NP_T0[s2 >> 24] ^ _NP_T1[(s3 >> 16) & 0xFF]
                ^ _NP_T2[(s0 >> 8) & 0xFF] ^ _NP_T3[s1 & 0xFF] ^ rk[base + 2]
            )
            e3 = (
                _NP_T0[s3 >> 24] ^ _NP_T1[(s0 >> 16) & 0xFF]
                ^ _NP_T2[(s1 >> 8) & 0xFF] ^ _NP_T3[s2 & 0xFF] ^ rk[base + 3]
            )
            s0, s1, s2, s3 = e0, e1, e2, e3
        base = _ROUNDS * 4
        o0 = (
            (_NP_SBOX[s0 >> 24] << 24) | (_NP_SBOX[(s1 >> 16) & 0xFF] << 16)
            | (_NP_SBOX[(s2 >> 8) & 0xFF] << 8) | _NP_SBOX[s3 & 0xFF]
        ) ^ rk[base]
        o1 = (
            (_NP_SBOX[s1 >> 24] << 24) | (_NP_SBOX[(s2 >> 16) & 0xFF] << 16)
            | (_NP_SBOX[(s3 >> 8) & 0xFF] << 8) | _NP_SBOX[s0 & 0xFF]
        ) ^ rk[base + 1]
        o2 = (
            (_NP_SBOX[s2 >> 24] << 24) | (_NP_SBOX[(s3 >> 16) & 0xFF] << 16)
            | (_NP_SBOX[(s0 >> 8) & 0xFF] << 8) | _NP_SBOX[s1 & 0xFF]
        ) ^ rk[base + 2]
        o3 = (
            (_NP_SBOX[s3 >> 24] << 24) | (_NP_SBOX[(s0 >> 16) & 0xFF] << 16)
            | (_NP_SBOX[(s1 >> 8) & 0xFF] << 8) | _NP_SBOX[s2 & 0xFF]
        ) ^ rk[base + 3]
        return np.stack([o0, o1, o2, o3], axis=1)

    def _counter_words(self, prefix: bytes, start_counter: int,
                       nblocks: int) -> np.ndarray:
        if len(prefix) != 12:
            raise CryptoError("CTR prefix must be 12 bytes")
        words = np.empty((nblocks, 4), dtype=np.uint32)
        words[:, 0] = int.from_bytes(prefix[0:4], "big")
        words[:, 1] = int.from_bytes(prefix[4:8], "big")
        words[:, 2] = int.from_bytes(prefix[8:12], "big")
        counters = (start_counter + np.arange(nblocks, dtype=np.uint64)) & 0xFFFFFFFF
        words[:, 3] = counters.astype(np.uint32)
        return words

    def ctr_keystream(self, prefix: bytes, start_counter: int, nblocks: int) -> bytes:
        """Encrypt counter blocks ``prefix || counter`` for GCM's CTR mode.

        ``prefix`` is the 12-byte IV part of J0; the 32-bit counter occupies
        the final word and starts at ``start_counter``.
        """
        if len(prefix) != 12:
            raise CryptoError("CTR prefix must be 12 bytes")
        if nblocks == 0:
            return b""
        words = self._counter_words(prefix, start_counter, nblocks)
        return self.encrypt_blocks(words).astype(">u4").tobytes()

    def ctr_keystream_into(self, prefix: bytes, start_counter: int,
                           out: np.ndarray) -> None:
        """Fill ``out`` (uint8, multiple of 16 bytes) with keystream bytes.

        Big-endian keystream is written straight into the caller buffer,
        so bulk pipelines stay allocation-free per chunk. Requests of at
        most :data:`_SCALAR_MAX_BLOCKS` blocks run on :meth:`encrypt_block`.
        """
        if len(prefix) != 12:
            raise CryptoError("CTR prefix must be 12 bytes")
        nblocks = len(out) // BLOCK_SIZE
        if nblocks > _SCALAR_MAX_BLOCKS:
            self._ctr_vector_into(prefix, start_counter,
                                  out[:nblocks * BLOCK_SIZE])
        elif nblocks:
            blocks = b"".join(
                self.encrypt_block(
                    prefix + ((start_counter + index) & 0xFFFFFFFF)
                    .to_bytes(4, "big"))
                for index in range(nblocks))
            out[:nblocks * BLOCK_SIZE] = np.frombuffer(blocks, dtype=np.uint8)

    def _ctr_vector_into(self, prefix: bytes, start_counter: int,
                         out: np.ndarray) -> None:
        """Vectorised keystream: whole-state rounds 3-10 over slabs whose
        round-2 state comes from per-segment tables (see
        :meth:`_round2_tables`). Segments end at every 2^16 counter
        boundary, which includes GCM's 2^32 wrap."""
        nblocks = len(out) // BLOCK_SIZE
        words = out.view(">u4").reshape(nblocks, 4)
        rk = self._np_round_cols
        slab = min(nblocks, _SLAB_BLOCKS)
        scratch = _WholeState(slab)
        # A slab's round-2 state is written as whole 256-counter rows that
        # start up to 255 counters before its first block.
        width = (slab + 2 * 255) // 256 * 256
        ext = np.empty((7, width), dtype=np.uint32)
        rows_view = ext.reshape(7, width // 256, 256)
        done = 0
        while done < nblocks:
            counter = (start_counter + done) & 0xFFFFFFFF
            low = counter & 0xFFFF
            segment = min(nblocks - done, 0x10000 - low)
            by_byte15, by_byte14 = self._round2_tables(prefix, counter,
                                                       segment)
            for offset in range(0, segment, slab):
                size = min(slab, segment - offset)
                first = (low + offset) >> 8
                row0 = first - (low >> 8)
                rows = ((low + offset + size - 1) >> 8) - first + 1
                np.bitwise_xor(by_byte15[:, None, :],
                               by_byte14[:, row0:row0 + rows, None],
                               out=rows_view[0:4, :rows])
                column = (low + offset) & 0xFF
                state = ext[:, column:column + size]
                state[4:7] = state[0:3]
                scratch.rounds(state, rk, 3, _ROUNDS)
                begin = done + offset
                scratch.last_round(state, rk, words[begin:begin + size].T)
            done += segment

    def _round2_tables(self, prefix: bytes, counter: int, nblocks: int):
        """Round-2 states of ``nblocks`` counters from ``counter`` on, all
        sharing the counter's upper 16 bits, as two XOR-separable tables.

        After round 1 (counter-mode caching, Bernstein & Schwabe 2008),
        word 0 depends only on counter byte 15 and word 1 only on byte 14;
        words 2 and 3 are constant. Each round-2 word takes one byte from
        every round-1 word, so the round-2 state of counter ``(u, v)``
        (bytes 14, 15) is ``K ^ F(v) ^ G(u)``. Rounds 1-2 of the 256
        counters ``(0, v)`` give ``by_byte15[:, v] = K ^ F(v) ^ G(0)``, and
        of the segment's counters ``(first + j, 0)``, XORed with ``(0,
        0)``, give ``by_byte14[:, j] = G(first + j) ^ G(0)``. Their XOR is
        the state of ``(first + j, v)``.
        """
        rk = self._round_keys
        low = counter & 0xFFFF
        first, last = low >> 8, (low + nblocks - 1) >> 8
        upper = counter & 0xFFFF0000
        ext = np.empty((7, 256 + last - first + 1), dtype=np.uint32)
        for k in range(3):
            ext[k] = int.from_bytes(prefix[4 * k:4 * k + 4], "big") ^ rk[k]
        ext[3, :256] = _BYTE_VALUES ^ (upper ^ rk[3])
        ext[3, 256:] = (_BYTE_VALUES[first:last + 1] << 8) ^ (upper ^ rk[3])
        ext[4:7] = ext[0:3]
        _WholeState(ext.shape[1]).rounds(ext, self._np_round_cols, 1, 3)
        return ext[0:4, :256], ext[0:4, 256:] ^ ext[0:4, 0:1]
