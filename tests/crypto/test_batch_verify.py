"""Batch ECDSA verification: batch == per-signature, always.

The randomised-linear-combination batch (:mod:`repro.crypto.batch`) is
an algorithmic substitution, not a protocol change, so the pin here is
*differential*: for every input — valid, forged, malformed, adversarial
cancellation pairs — ``verify_batch`` must return exactly the verdict
per-signature :func:`repro.crypto.ecdsa.verify` returns for each item.
KATs reuse the RFC 6979 A.2.5 vectors so the batch path is also checked
against external ground truth, on both the fast and reference EC paths.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import ec, ecdsa
from repro.crypto.batch import BATCH_MAX, verify_batch
from repro.errors import SignatureError

_RFC6979_PRIVATE = \
    0xC9AFA9D845BA75166B5C215767B1D6934E50C3DB36E89B127B8A622B120F6721
_RFC6979_PUB = ec.Point(
    0x60FED4BA255A9D31C961EB74C6356D68C049B8923B61FA6CE669622E60F29FB6,
    0x7903FE1008B8BC99A41AE9E95628BC64F2F1B20C2D7E9F5177A3C294D4462299)

_RFC6979_VECTORS = [
    (b"sample",
     0xEFD48B2AACB6A8FD1140DD9CD45E81D69D2C877B56AAF991C34D0EA84EAF3716,
     0xF7CB1C942D657C41D436C7A1B6E29F65F3E900DBB9AFF4064DC4AB2F843ACDA8),
    (b"test",
     0xF1ABB023518351CD71D881567B1EA663ED3EFCF6C5132B354F28D3B0B7D38367,
     0x019F4113742A2B14BD25926B49C649155F267E60D3814B4C0CC84250E46F0083),
]


@pytest.fixture(params=["fast", "naive"])
def crypto_path(request):
    previous = ec.use_fast_paths(request.param == "fast")
    yield request.param
    ec.use_fast_paths(previous)


@pytest.fixture(autouse=True)
def _clean_memo():
    ecdsa.clear_verified_memo()
    yield
    ecdsa.clear_verified_memo()


def _keypair(seed: int) -> ecdsa.KeyPair:
    return ecdsa.keypair_from_private(1 + seed % (ec.N - 1))


def _signed(seed: int, message: bytes):
    pair = _keypair(seed)
    return pair.public, message, ecdsa.sign(pair.private, message)


def _reference(items):
    """The ground truth: n independent per-signature verifications."""
    verdicts = []
    for public, message, signature in items:
        try:
            ecdsa.verify(public, message, signature)
            verdicts.append(None)
        except SignatureError as exc:
            verdicts.append(exc)
    ecdsa.clear_verified_memo()  # the reference must not seed the batch
    return verdicts


def _assert_matches(items):
    expected = _reference(items)
    got = verify_batch(items)
    assert len(got) == len(expected)
    for want, have in zip(expected, got):
        if want is None:
            assert have is None
        else:
            assert isinstance(have, SignatureError)
            assert str(have) == str(want)


# -- known-answer vectors ------------------------------------------------------

def test_rfc6979_vectors_batch_verify(crypto_path):
    items = [(_RFC6979_PUB, message,
              r.to_bytes(32, "big") + s.to_bytes(32, "big"))
             for message, r, s in _RFC6979_VECTORS]
    # Both RFC vectors in one batch — including the high-s one.
    assert verify_batch(items) == [None, None]


def test_rfc6979_vectors_with_one_flipped_message(crypto_path):
    items = [(_RFC6979_PUB, message,
              r.to_bytes(32, "big") + s.to_bytes(32, "big"))
             for message, r, s in _RFC6979_VECTORS]
    items[1] = (items[1][0], items[1][1] + b"?", items[1][2])
    verdicts = verify_batch(items)
    assert verdicts[0] is None
    assert isinstance(verdicts[1], SignatureError)
    _assert_matches(items)


# -- differential suite --------------------------------------------------------

def test_all_valid_full_batch(crypto_path):
    items = [_signed(i + 1, b"msg %d" % i) for i in range(BATCH_MAX)]
    assert verify_batch(items) == [None] * BATCH_MAX
    _assert_matches(items)


def test_forged_item_attribution_is_exact(crypto_path):
    # One forgery in each possible slot: the batch must name THAT slot,
    # and only that slot, with the per-signature error text.
    for bad in range(4):
        items = [_signed(i + 1, b"attr %d" % i) for i in range(4)]
        public, message, signature = items[bad]
        items[bad] = (public, message + b" tampered", signature)
        verdicts = verify_batch(items)
        for index, verdict in enumerate(verdicts):
            if index == bad:
                assert isinstance(verdict, SignatureError)
                assert str(verdict) == "signature does not verify"
            else:
                assert verdict is None


def test_cancellation_pair_is_rejected(crypto_path):
    # The classic attack on UNrandomised batch verification: submit a
    # signature twice as (r, s) and (r, n - s). Their R points negate,
    # so with lambda_1 == lambda_2 the equation errors could cancel.
    # Random lambdas (and the per-item fallback) must reject the forged
    # high-s twin whenever it is individually invalid — and here both
    # verify individually (ECDSA is s-malleable), so BOTH must pass,
    # matching the per-signature oracle exactly.
    public, message, signature = _signed(7, b"cancellation")
    r = signature[:32]
    s = int.from_bytes(signature[32:], "big")
    twin = r + (ec.N - s).to_bytes(32, "big")
    items = [(public, message, signature), (public, message, twin)]
    _assert_matches(items)


def test_crafted_invalid_pair_never_accepted_by_cancellation(crypto_path):
    # Two items that are each individually invalid. No batch may ever
    # report either as valid, no matter how the equation errors relate.
    public, message, signature = _signed(9, b"forgery base")
    bad1 = (public, message + b"!", signature)
    bad2 = (public, message + b"!!", signature)
    good = _signed(10, b"innocent bystander")
    items = [bad1, good, bad2]
    verdicts = verify_batch(items)
    assert isinstance(verdicts[0], SignatureError)
    assert verdicts[1] is None
    assert isinstance(verdicts[2], SignatureError)


def test_malformed_items_get_per_signature_errors(crypto_path):
    good = _signed(3, b"ok")
    wrong_len = (good[0], b"ok", b"\x00" * 63)
    zero_r = (good[0], b"ok", b"\x00" * 32 + good[2][32:])
    big_s = (good[0], b"ok", good[2][:32] + ec.N.to_bytes(32, "big"))
    off_curve = (ec.Point(5, 5), b"ok", good[2])
    items = [good, wrong_len, zero_r, big_s, off_curve]
    _assert_matches(items)


@pytest.mark.parametrize("s", [0, ec.N], ids=["s=0", "s=N"])
def test_non_invertible_s_rejected_like_reference(crypto_path, s):
    # s = 0 and s = N have no inverse mod N: rejected by the range check
    # before the batch inverts s, with the per-signature error.
    good = _signed(9, b"inv")
    forged = (good[0], b"inv", good[2][:32] + s.to_bytes(32, "big"))
    items = [good, forged, _signed(10, b"inv2")]
    _assert_matches(items)
    verdicts = verify_batch(items)
    assert verdicts[0] is None and verdicts[2] is None
    assert isinstance(verdicts[1], SignatureError)


def test_wraparound_r_falls_back_per_item(crypto_path):
    # r with r + n < p is the x-wraparound ambiguity: the batch must
    # step it out to the per-item path rather than guess the lift.
    good = _signed(4, b"wrap")
    tiny_r = (b"\x00" * 28 + b"\x00\x00\x00\x2a") + good[2][32:]
    assert int.from_bytes(tiny_r[:32], "big") + ec.N < ec.P
    items = [good, (good[0], b"wrap", tiny_r), _signed(5, b"wrap2")]
    _assert_matches(items)


def test_unliftable_r_rejected_like_reference(crypto_path):
    # An r that is no curve point's x: direct rejection, same error.
    good = _signed(6, b"lift")
    r = ec.N - 1
    while ec.lift_x(r) is not None or r + ec.N < ec.P:
        r -= 1
    forged = good[2][:0] + r.to_bytes(32, "big") + good[2][32:]
    items = [good, (good[0], b"lift", forged)]
    _assert_matches(items)


def test_empty_and_singleton_batches(crypto_path):
    assert verify_batch([]) == []
    items = [_signed(8, b"solo")]
    assert verify_batch(items) == [None]
    _assert_matches(items)


def test_oversized_input_chunks_beyond_batch_max(crypto_path):
    count = BATCH_MAX + 3
    items = [_signed(i + 20, b"chunk %d" % i) for i in range(count)]
    items[BATCH_MAX] = (items[BATCH_MAX][0],
                        items[BATCH_MAX][1] + b"X",
                        items[BATCH_MAX][2])
    verdicts = verify_batch(items)
    for index, verdict in enumerate(verdicts):
        if index == BATCH_MAX:
            assert isinstance(verdict, SignatureError)
        else:
            assert verdict is None


def test_parameter_validation():
    with pytest.raises(ValueError):
        verify_batch([], max_batch=1)
    with pytest.raises(ValueError):
        verify_batch([], randomizer_bits=4)
    with pytest.raises(ValueError):
        verify_batch([], randomizer_bits=256)


def test_adversarial_rng_cannot_force_acceptance():
    # Even an rng an attacker fully controls cannot make a forgery pass:
    # a failed combination falls back to the per-item oracle, and a
    # "passing" combination forced by rng still only seeds acceptance
    # for the batch check, never skips the fallback on mismatch. Feed a
    # constant rng (worst case: all lambdas equal) with the crafted
    # cancellation-style pair; the forged item must still be rejected.
    public, message, signature = _signed(11, b"rng attack")
    forged = (public, message + b"x", signature)
    items = [(public, message, signature), forged]
    verdicts = verify_batch(items, rng=lambda n: b"\x01" * n)
    assert verdicts[0] is None
    assert isinstance(verdicts[1], SignatureError)


# -- memo seeding --------------------------------------------------------------

def test_seed_memo_makes_next_verify_a_lookup(crypto_path):
    items = [_signed(i + 30, b"memo %d" % i) for i in range(3)]
    assert verify_batch(items, seed_memo=True) == [None, None, None]
    assert ecdsa.verified_memo_size() == 3
    for public, message, signature in items:
        ecdsa.verify(public, message, signature)  # consumes the memo
    assert ecdsa.verified_memo_size() == 0
    for public, message, signature in items:
        ecdsa.verify(public, message, signature)  # full equation again


def test_memo_is_consume_once_and_exact():
    public, message, signature = _signed(40, b"once")
    verify_batch([(public, message, signature),
                  _signed(41, b"other")], seed_memo=True)
    # A different message must not hit the seeded entry.
    with pytest.raises(SignatureError):
        ecdsa.verify(public, message + b"?", signature)
    ecdsa.verify(public, message, signature)
    assert not ecdsa.is_valid(public, message + b"?", signature)


def test_failed_items_are_never_seeded(crypto_path):
    public, message, signature = _signed(42, b"never seed")
    verify_batch([(public, message + b"!", signature),
                  _signed(43, b"fine")], seed_memo=True)
    assert ecdsa.verified_memo_size() == 1  # only the valid one
    with pytest.raises(SignatureError):
        ecdsa.verify(public, message + b"!", signature)


# -- property-based differential ----------------------------------------------

@st.composite
def _batch_items(draw):
    n = draw(st.integers(2, 6))
    items = []
    for index in range(n):
        seed = draw(st.integers(1, 2**64))
        message = draw(st.binary(min_size=0, max_size=40))
        public, _, signature = _signed(seed, message)
        mutation = draw(st.sampled_from(
            ["valid", "flip_message", "flip_sig", "high_s", "swap_key"]))
        if mutation == "flip_message":
            message += b"\x00"
        elif mutation == "flip_sig":
            byte = draw(st.integers(0, 63))
            signature = (signature[:byte]
                         + bytes([signature[byte] ^ 0x55])
                         + signature[byte + 1:])
        elif mutation == "high_s":
            s = int.from_bytes(signature[32:], "big")
            signature = signature[:32] + (ec.N - s).to_bytes(32, "big")
        elif mutation == "swap_key":
            public = _keypair(seed + 1).public
        items.append((public, message, signature))
    return items


@settings(max_examples=20, deadline=None)
@given(_batch_items())
def test_batch_matches_per_signature_verify(items):
    expected = _reference(items)
    got = verify_batch(items)
    for want, have in zip(expected, got):
        assert (want is None) == (have is None)
        if want is not None:
            assert str(have) == str(want)


@settings(max_examples=10, deadline=None)
@given(_batch_items())
def test_batch_matches_on_reference_ec_path(items):
    previous = ec.use_fast_paths(False)
    try:
        expected = _reference(items)
        got = verify_batch(items)
    finally:
        ec.use_fast_paths(previous)
    for want, have in zip(expected, got):
        assert (want is None) == (have is None)
