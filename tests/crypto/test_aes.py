"""AES-128 against FIPS-197 / SP 800-38A vectors and structural checks."""

import binascii

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.aes import (
    _SBOX, _SCALAR_MAX_BLOCKS, _SLAB_BLOCKS, Aes128)
from repro.errors import CryptoError

h = binascii.unhexlify


def test_fips197_vector():
    cipher = Aes128(h("000102030405060708090a0b0c0d0e0f"))
    out = cipher.encrypt_block(h("00112233445566778899aabbccddeeff"))
    assert out == h("69c4e0d86a7b0430d8cdb78070b4c55a")


@pytest.mark.parametrize("key,plain,expected", [
    # SP 800-38A F.1.1 ECB-AES128 blocks.
    ("2b7e151628aed2a6abf7158809cf4f3c",
     "6bc1bee22e409f96e93d7e117393172a",
     "3ad77bb40d7a3660a89ecaf32466ef97"),
    ("2b7e151628aed2a6abf7158809cf4f3c",
     "ae2d8a571e03ac9c9eb76fac45af8e51",
     "f5d3d58503b9699de785895a96fdbaaf"),
    ("2b7e151628aed2a6abf7158809cf4f3c",
     "30c81c46a35ce411e5fbc1191a0a52ef",
     "43b1cd7f598ece23881b00e3ed030688"),
    ("2b7e151628aed2a6abf7158809cf4f3c",
     "f69f2445df4f9b17ad2b417be66c3710",
     "7b0c785e27e8ad3f8223207104725dd4"),
])
def test_sp800_38a_ecb_vectors(key, plain, expected):
    assert Aes128(h(key)).encrypt_block(h(plain)) == h(expected)


def test_sbox_is_a_permutation():
    assert sorted(_SBOX) == list(range(256))


def test_sbox_known_entries():
    assert _SBOX[0x00] == 0x63
    assert _SBOX[0x01] == 0x7C
    assert _SBOX[0x53] == 0xED
    assert _SBOX[0xFF] == 0x16


def test_wrong_key_size_rejected():
    with pytest.raises(CryptoError):
        Aes128(b"short")


def test_wrong_block_size_rejected():
    with pytest.raises(CryptoError):
        Aes128(b"\x00" * 16).encrypt_block(b"tiny")


def test_vectorised_blocks_match_scalar():
    cipher = Aes128(h("000102030405060708090a0b0c0d0e0f"))
    keystream = cipher.ctr_keystream(b"\xaa" * 12, 7, 9)
    assert len(keystream) == 9 * 16
    for index in range(9):
        block = b"\xaa" * 12 + (7 + index).to_bytes(4, "big")
        expected = cipher.encrypt_block(block)
        assert keystream[index * 16 : (index + 1) * 16] == expected


def test_ctr_counter_wraps_32_bits():
    cipher = Aes128(b"\x01" * 16)
    keystream = cipher.ctr_keystream(b"\x00" * 12, 0xFFFFFFFF, 2)
    expected_first = cipher.encrypt_block(b"\x00" * 12 + b"\xff\xff\xff\xff")
    expected_second = cipher.encrypt_block(b"\x00" * 12 + b"\x00\x00\x00\x00")
    assert keystream[:16] == expected_first
    assert keystream[16:] == expected_second


def test_ctr_rejects_bad_prefix():
    with pytest.raises(CryptoError):
        Aes128(b"\x01" * 16).ctr_keystream(b"short", 0, 1)


def test_empty_keystream():
    assert Aes128(b"\x01" * 16).ctr_keystream(b"\x00" * 12, 0, 0) == b""


def test_different_keys_differ():
    block = b"\x00" * 16
    assert Aes128(b"\x01" * 16).encrypt_block(block) != \
        Aes128(b"\x02" * 16).encrypt_block(block)


# -- vectorised CTR keystream against the scalar cipher -------------------------


def _counter_block(prefix: bytes, counter: int) -> bytes:
    return prefix + (counter & 0xFFFFFFFF).to_bytes(4, "big")


def _oracle_indices(start: int, nblocks: int):
    """Blocks checked one by one against ``encrypt_block``: every block
    of requests up to two slabs, else both ends and every block next to
    a 2^16 counter boundary (where a round-2 table segment ends)."""
    if nblocks <= 2 * _SLAB_BLOCKS + 1:
        return range(nblocks)
    picked = {0, 1, nblocks - 2, nblocks - 1}
    first_boundary = -start % 0x10000
    for boundary in range(first_boundary, nblocks, 0x10000):
        picked.update(i for i in range(boundary - 2, boundary + 2)
                      if 0 <= i < nblocks)
    return sorted(picked)


def _assert_keystream_matches(cipher: Aes128, prefix: bytes, start: int,
                              nblocks: int) -> None:
    out = np.empty(nblocks * 16, dtype=np.uint8)
    cipher.ctr_keystream_into(prefix, start, out)
    got = out.tobytes()
    for index in _oracle_indices(start, nblocks):
        assert got[index * 16:(index + 1) * 16] == cipher.encrypt_block(
            _counter_block(prefix, start + index)), (hex(start), index)
    if nblocks > 2 * _SLAB_BLOCKS + 1:
        # The unsampled middle: the vectorised reference oracle, itself
        # pinned to encrypt_block by test_vectorised_blocks_match_scalar.
        assert got == cipher.ctr_keystream(prefix, start, nblocks)


_STARTS = st.one_of(
    st.integers(0, 0xFFFFFFFF),
    st.builds(lambda high, delta: ((high << 16) + delta) & 0xFFFFFFFF,
              st.integers(0, 0xFFFF), st.integers(-300, 300)),
    st.integers(0xFFFFFFFF - 300, 0xFFFFFFFF),
)
_SIZES = st.one_of(
    st.integers(1, 2 * _SCALAR_MAX_BLOCKS + 1),
    st.integers(255, 257),
    st.integers(_SLAB_BLOCKS - 1, _SLAB_BLOCKS + 1),
    st.integers(0x10000 + 1, 0x10000 + 300),
)


@settings(max_examples=40, deadline=None)
@given(start=_STARTS, nblocks=_SIZES, key=st.binary(min_size=16, max_size=16),
       prefix=st.binary(min_size=12, max_size=12))
def test_ctr_keystream_into_matches_scalar_cipher(start, nblocks, key,
                                                  prefix):
    _assert_keystream_matches(Aes128(key), prefix, start, nblocks)


@pytest.mark.parametrize("start,nblocks", [
    (0xFFFF - 1, _SCALAR_MAX_BLOCKS + 1),     # 2^16 crossing, smallest vector
    (0x10000 - 300, _SLAB_BLOCKS + 1),        # crossing inside the first slab
    (0x1FFFF - _SLAB_BLOCKS + 1, 2 * _SLAB_BLOCKS),  # crossing at a slab edge
    (0xFFFFFFFF - 1, 257),                    # GCM inc32 wrap
    (0xFFFFFFFF - 70, 0x10000 + 200),         # both wraps in one request
    (2, 0x10000 + 1),                         # GCM's first counter
], ids=["inc16-small", "inc16-slab", "inc16-slab-edge", "inc32",
        "inc32-and-inc16", "gcm-start"])
def test_ctr_keystream_into_segment_boundaries(start, nblocks):
    _assert_keystream_matches(Aes128(bytes(range(16))), b"\x5a" * 12,
                              start, nblocks)


@pytest.mark.parametrize("nblocks", [0, 1, _SCALAR_MAX_BLOCKS,
                                     _SCALAR_MAX_BLOCKS + 1])
def test_ctr_keystream_into_scalar_crossover(nblocks):
    cipher = Aes128(b"\x07" * 16)
    out = np.full(nblocks * 16 + 5, 0xEE, dtype=np.uint8)
    cipher.ctr_keystream_into(b"\x01" * 12, 0xFFFFFFFF, out)
    assert out.tobytes()[:nblocks * 16] == b"".join(
        cipher.encrypt_block(_counter_block(b"\x01" * 12, 0xFFFFFFFF + i))
        for i in range(nblocks))
    assert out.tobytes()[nblocks * 16:] == b"\xee" * 5  # partial tail kept


def test_ctr_keystream_into_rejects_bad_prefix():
    with pytest.raises(CryptoError):
        Aes128(b"\x01" * 16).ctr_keystream_into(
            b"short", 0, np.empty(64, dtype=np.uint8))
