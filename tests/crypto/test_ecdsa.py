"""ECDSA: RFC 6979 determinism, verification, malleability, failures."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import ec, ecdsa
from repro.errors import CryptoError, SignatureError

_D = 0xC9AFA9D845BA75166B5C215767B1D6934E50C3DB36E89B127B8A622B120F6721
_KEYPAIR = ecdsa.keypair_from_private(_D)


def test_rfc6979_sample_r():
    signature = ecdsa.sign(_D, b"sample")
    r = int.from_bytes(signature[:32], "big")
    assert r == 0xEFD48B2AACB6A8FD1140DD9CD45E81D69D2C877B56AAF991C34D0EA84EAF3716


def test_rfc6979_sample_s_up_to_negation():
    signature = ecdsa.sign(_D, b"sample")
    s = int.from_bytes(signature[32:], "big")
    expected = 0xF7CB1C942D657C41D436C7A1B6E29F65F3E900DBB9AFF4064DC4AB2F843ACDA8
    assert s in (expected, ec.N - expected)  # low-s normalisation


def test_rfc6979_test_vector():
    signature = ecdsa.sign(_D, b"test")
    r = int.from_bytes(signature[:32], "big")
    assert r == 0xF1ABB023518351CD71D881567B1EA663ED3EFCF6C5132B354F28D3B0B7D38367


def test_signing_is_deterministic():
    assert ecdsa.sign(_D, b"message") == ecdsa.sign(_D, b"message")


def test_sign_verify_roundtrip():
    signature = ecdsa.sign(_D, b"evidence body")
    ecdsa.verify(_KEYPAIR.public, b"evidence body", signature)


def test_low_s_normalisation():
    for message in (b"a", b"b", b"c", b"d"):
        s = int.from_bytes(ecdsa.sign(_D, message)[32:], "big")
        assert s <= ec.N // 2


def test_verify_rejects_wrong_message():
    signature = ecdsa.sign(_D, b"original")
    with pytest.raises(SignatureError):
        ecdsa.verify(_KEYPAIR.public, b"tampered", signature)


def test_verify_rejects_wrong_key():
    signature = ecdsa.sign(_D, b"original")
    other = ecdsa.keypair_from_private(777)
    with pytest.raises(SignatureError):
        ecdsa.verify(other.public, b"original", signature)


def test_verify_rejects_bit_flipped_signature():
    signature = bytearray(ecdsa.sign(_D, b"original"))
    signature[10] ^= 0x04
    with pytest.raises(SignatureError):
        ecdsa.verify(_KEYPAIR.public, b"original", bytes(signature))


def test_verify_rejects_bad_length():
    with pytest.raises(SignatureError):
        ecdsa.verify(_KEYPAIR.public, b"m", b"\x01" * 63)


def test_verify_rejects_zero_scalars():
    with pytest.raises(SignatureError):
        ecdsa.verify(_KEYPAIR.public, b"m", b"\x00" * 64)


@pytest.mark.parametrize("s", [0, ec.N], ids=["s=0", "s=N"])
def test_verify_rejects_non_invertible_s(s):
    # s has no inverse mod N: the range check must reject it before the
    # inversion, with the typed error and not a bare ValueError.
    r = ecdsa.sign(_D, b"m")[:32]
    with pytest.raises(SignatureError, match="out of range"):
        ecdsa.verify(_KEYPAIR.public, b"m", r + s.to_bytes(32, "big"))


def test_is_valid_boolean_wrapper():
    signature = ecdsa.sign(_D, b"m")
    assert ecdsa.is_valid(_KEYPAIR.public, b"m", signature)
    assert not ecdsa.is_valid(_KEYPAIR.public, b"other", signature)


def test_keypair_from_private_validates_range():
    with pytest.raises(CryptoError):
        ecdsa.keypair_from_private(0)


def test_keypair_from_seed_stream_rejection_sampling():
    # A stream that first yields an out-of-range scalar, then a valid one.
    chunks = [(ec.N + 5).to_bytes(32, "big"), (12345).to_bytes(32, "big")]

    def read(n):
        return chunks.pop(0)

    keypair = ecdsa.keypair_from_seed_stream(read)
    assert keypair.private == 12345


@settings(max_examples=8, deadline=None)
@given(st.binary(min_size=0, max_size=64))
def test_sign_verify_property(message):
    signature = ecdsa.sign(_D, message)
    ecdsa.verify(_KEYPAIR.public, message, signature)
