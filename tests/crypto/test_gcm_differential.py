"""Differential tests pinning the fast GCM paths to the scalar reference.

The vectorised CTR/GHASH pipeline and the retained per-block reference
must compute the *same function* for every input: identical ciphertext,
identical tag, identical accept/reject decision — across sizes spanning
the scalar/striped threshold and the stripe width, every chunking of the
streaming API, and every tamper position. Hypothesis drives randomised
cases; boundary sizes are enumerated exhaustively.
"""

import hashlib

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.crypto import gcm
from repro.crypto.gcm import (
    STRIPE_WIDTH,
    TAG_SIZE,
    AesGcm,
    _VECTOR_MIN_BLOCKS,
)
from repro.errors import AuthenticationError

_BLOCK = 16
_KEY = b"\x9a" * 16
_IV = b"\x5b" * 12

# Sizes around every algorithmic boundary: empty, sub-block, block edges,
# one and two stripe widths (the striped path once tables exist), the
# stripe-build threshold (_VECTOR_MIN_BLOCKS blocks), the threading
# threshold, and megabyte scale (3 MB is the largest point of Fig. 7).
_EDGE_SIZES = [
    0, 1, 15, 16, 17,
    STRIPE_WIDTH * _BLOCK - 1,
    STRIPE_WIDTH * _BLOCK,
    STRIPE_WIDTH * _BLOCK + 1,
    STRIPE_WIDTH * _BLOCK * 2 + 7,
    4096,
    _VECTOR_MIN_BLOCKS * _BLOCK - 1,
    _VECTOR_MIN_BLOCKS * _BLOCK,
    _VECTOR_MIN_BLOCKS * _BLOCK + 1,
]
#: Hypothesis sizes are drawn below and above the stripe-build threshold
#: (up to twice it), so examples fall on both sides of it.
_THRESHOLD_SIZE = _VECTOR_MIN_BLOCKS * _BLOCK
_MAX_DIFFERENTIAL_SIZE = 2 * _THRESHOLD_SIZE
_straddling_sizes = st.one_of(
    st.integers(0, _THRESHOLD_SIZE - 1),
    st.integers(_THRESHOLD_SIZE, _MAX_DIFFERENTIAL_SIZE))
_BULK_SIZES = [1 << 20, 3 << 20]


def _material(size: int, label: bytes = b"") -> bytes:
    """Deterministic pseudo-random bytes (sha256 counter stream)."""
    out = bytearray()
    counter = 0
    while len(out) < size:
        out.extend(hashlib.sha256(label + counter.to_bytes(8, "big")).digest())
        counter += 1
    return bytes(out[:size])


def _cipher(fresh: bool, seed: int) -> AesGcm:
    """A cipher whose stripe tables are absent (a fresh key, as every
    handshake session has) or already built (a cached key)."""
    if fresh:
        return AesGcm(hashlib.sha256(seed.to_bytes(4, "big")).digest()[:16])
    cipher = AesGcm(_KEY)
    cipher._tables.stripes(_VECTOR_MIN_BLOCKS)
    return cipher


def _both_paths(fn):
    result = fn()
    with gcm.reference_paths():
        reference = fn()
    return result, reference


@pytest.mark.parametrize("size", _EDGE_SIZES)
def test_seal_matches_reference_at_boundaries(size):
    plaintext = _material(size)
    aad = _material(29, b"aad")
    for fresh in (True, False):
        cipher = _cipher(fresh, size)
        fast, reference = _both_paths(
            lambda: cipher.seal(_IV, plaintext, aad))
        assert fast == reference
        opened, opened_ref = _both_paths(
            lambda: cipher.open(_IV, fast, aad))
        assert opened == plaintext
        assert opened_ref == plaintext


@pytest.mark.parametrize("size", _BULK_SIZES)
def test_seal_matches_reference_at_bulk_scale(size):
    cipher = AesGcm(_KEY)
    plaintext = _material(size)
    fast, reference = _both_paths(lambda: cipher.seal(_IV, plaintext))
    assert fast == reference
    assert cipher.open(_IV, fast) == plaintext


def test_all_tamper_positions_rejected_on_both_paths():
    cipher = AesGcm(_KEY)
    plaintext = _material(48)
    aad = b"header"
    sealed = cipher.seal(_IV, plaintext, aad)
    for position in range(len(sealed)):  # every ciphertext and tag byte
        tampered = bytearray(sealed)
        tampered[position] ^= 0x01
        tampered = bytes(tampered)
        with pytest.raises(AuthenticationError):
            cipher.open(_IV, tampered, aad)
        with gcm.reference_paths():
            with pytest.raises(AuthenticationError):
                cipher.open(_IV, tampered, aad)
        stream = cipher.stream_open(_IV, aad)
        stream.update(tampered)
        with pytest.raises(AuthenticationError):
            stream.final()


@settings(max_examples=40, deadline=None)
@given(
    size=_straddling_sizes,
    aad_size=st.integers(0, 64),
    seed=st.integers(0, 2**32 - 1),
    fresh=st.booleans(),
)
def test_seal_differential(size, aad_size, seed, fresh):
    cipher = _cipher(fresh, seed)
    label = seed.to_bytes(4, "big")
    plaintext = _material(size, label)
    aad = _material(aad_size, label + b"aad")
    fast, reference = _both_paths(lambda: cipher.seal(_IV, plaintext, aad))
    assert fast == reference
    assert cipher.open(_IV, fast, aad) == plaintext


@settings(max_examples=40, deadline=None)
@given(
    size=_straddling_sizes,
    widths=st.lists(
        st.one_of(st.integers(1, 700),
                  st.integers(700, _MAX_DIFFERENTIAL_SIZE)),
        min_size=1, max_size=6),
    seed=st.integers(0, 2**32 - 1),
    fresh=st.booleans(),
)
def test_stream_chunking_differential(size, widths, seed, fresh):
    """Any chunking of seal/open streams equals the one-shot result."""
    assume(size <= 64 * max(widths))  # bounds the chunk count per example
    cipher = _cipher(fresh, seed)
    plaintext = _material(size, seed.to_bytes(4, "big"))
    sealed = cipher.seal(_IV, plaintext)

    def run_streams():
        stream = cipher.stream_seal(_IV)
        produced = bytearray()
        offset = 0
        index = 0
        while offset < len(plaintext):
            width = widths[index % len(widths)]
            produced.extend(stream.update(plaintext[offset : offset + width]))
            offset += width
            index += 1
        produced.extend(stream.final())

        opener = cipher.stream_open(_IV)
        offset = 0
        index = 0
        while offset < len(sealed):
            width = widths[index % len(widths)]
            opener.update(sealed[offset : offset + width])
            offset += width
            index += 1
        return bytes(produced), opener.final()

    fast_sealed, fast_opened = run_streams()
    assert fast_sealed == sealed
    assert fast_opened == plaintext
    with gcm.reference_paths():
        ref_sealed, ref_opened = run_streams()
    assert ref_sealed == sealed
    assert ref_opened == plaintext


@settings(max_examples=25, deadline=None)
@given(
    size=st.integers(1, 2 * STRIPE_WIDTH * _BLOCK),
    tamper=st.integers(0, 2**32 - 1),
    seed=st.integers(0, 2**32 - 1),
)
def test_tamper_differential(size, tamper, seed):
    """Fast and reference agree on rejecting any tampered byte."""
    cipher = AesGcm(_KEY)
    plaintext = _material(size, seed.to_bytes(4, "big"))
    sealed = bytearray(cipher.seal(_IV, plaintext))
    sealed[tamper % len(sealed)] ^= 1 + (tamper >> 8) % 255
    sealed = bytes(sealed)
    for run in (lambda: cipher.open(_IV, sealed),):
        with pytest.raises(AuthenticationError):
            run()
        with gcm.reference_paths():
            with pytest.raises(AuthenticationError):
                run()


def test_handshake_sized_seal_skips_stripe_build():
    """A 4 kB msg3 under a fresh session key stays on the scalar fold and
    never builds the 4 MiB stripe tables; a bulk fold still does."""
    cipher = _cipher(True, 0xC0FFEE)
    assert cipher._tables._stripes is None
    plaintext = _material(4096)
    sealed = cipher.seal(_IV, plaintext)
    assert cipher.open(_IV, sealed) == plaintext
    assert cipher._tables._stripes is None
    cipher.seal(_IV, _material(_VECTOR_MIN_BLOCKS * _BLOCK))
    assert cipher._tables._stripes is not None
