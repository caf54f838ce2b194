"""P-256 group arithmetic: structure, known multiples, encodings."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import ec
from repro.errors import CryptoError


def test_generator_on_curve():
    assert ec.is_on_curve(ec.GENERATOR)


def test_generator_has_group_order():
    assert ec.scalar_mult(ec.N, ec.GENERATOR).is_infinity


def test_known_scalar_multiple_2g():
    # 2G for P-256 (public test vector).
    point = ec.scalar_base_mult(2)
    assert point.x == int(
        "7CF27B188D034F7E8A52380304B51AC3C08969E277F21B35A60B48FC47669978", 16)
    assert point.y == int(
        "07775510DB8ED040293D9AC69F7430DBBA7DADE63CE982299E04B79D227873D1", 16)


def test_known_scalar_multiple_5g():
    point = ec.scalar_base_mult(5)
    assert point.x == int(
        "51590B7A515140D2D784C85608668FDFEF8C82FD1F5BE52421554A0DC3D033ED", 16)


def test_add_commutes():
    p = ec.scalar_base_mult(11)
    q = ec.scalar_base_mult(23)
    assert ec.add(p, q) == ec.add(q, p)


def test_add_matches_scalar_sum():
    p = ec.scalar_base_mult(11)
    q = ec.scalar_base_mult(23)
    assert ec.add(p, q) == ec.scalar_base_mult(34)


def test_double_via_add():
    p = ec.scalar_base_mult(7)
    assert ec.add(p, p) == ec.scalar_base_mult(14)


def test_infinity_is_identity():
    p = ec.scalar_base_mult(99)
    assert ec.add(p, ec.INFINITY) == p
    assert ec.add(ec.INFINITY, p) == p


def test_inverse_sums_to_infinity():
    p = ec.scalar_base_mult(7)
    negated = ec.Point(p.x, (-p.y) % ec.P)
    assert ec.add(p, negated).is_infinity


def test_encode_decode_roundtrip():
    p = ec.scalar_base_mult(1234567)
    assert ec.decode_point(p.encode()) == p


def test_decode_rejects_off_curve_point():
    p = ec.scalar_base_mult(3)
    bad = b"\x04" + p.x.to_bytes(32, "big") + ((p.y + 1) % ec.P).to_bytes(32, "big")
    with pytest.raises(CryptoError):
        ec.decode_point(bad)


def test_decode_rejects_bad_prefix():
    p = ec.scalar_base_mult(3)
    with pytest.raises(CryptoError):
        ec.decode_point(b"\x02" + p.encode()[1:])


def test_encode_infinity_rejected():
    with pytest.raises(CryptoError):
        ec.INFINITY.encode()


def test_private_key_validation():
    ec.validate_private_key(1)
    ec.validate_private_key(ec.N - 1)
    for bad in (0, ec.N, ec.N + 5, -3):
        with pytest.raises(CryptoError):
            ec.validate_private_key(bad)


def test_public_key_validation_rejects_infinity():
    with pytest.raises(CryptoError):
        ec.validate_public_key(ec.INFINITY)


@settings(max_examples=20, deadline=None)
@given(st.integers(1, ec.N - 1), st.integers(1, ec.N - 1))
def test_scalar_mult_distributes(a, b):
    left = ec.add(ec.scalar_base_mult(a), ec.scalar_base_mult(b))
    right = ec.scalar_base_mult((a + b) % ec.N)
    assert left == right


@settings(max_examples=10, deadline=None)
@given(st.integers(1, ec.N - 1))
def test_dh_commutativity(scalar):
    other = (scalar * 31 + 17) % ec.N or 1
    shared_one = ec.scalar_mult(scalar, ec.scalar_base_mult(other))
    shared_two = ec.scalar_mult(other, ec.scalar_base_mult(scalar))
    assert shared_one == shared_two


# -- dedicated rejection messages (decode_point / validate_public_key) --------


def test_decode_rejects_infinity_encoding_with_dedicated_error():
    with pytest.raises(CryptoError, match="point at infinity"):
        ec.decode_point(b"\x00")


def test_decode_rejects_off_curve_with_dedicated_error():
    p = ec.scalar_base_mult(3)
    bad = b"\x04" + p.x.to_bytes(32, "big") \
        + ((p.y + 1) % ec.P).to_bytes(32, "big")
    with pytest.raises(CryptoError, match="not on secp256r1"):
        ec.decode_point(bad)


def test_decode_rejects_non_canonical_coordinate():
    # x == P is a non-canonical field element even though x mod P would
    # put the point on the curve.
    y = ec.GENERATOR.y
    bad = b"\x04" + ec.P.to_bytes(32, "big") + y.to_bytes(32, "big")
    with pytest.raises(CryptoError, match="canonical field element"):
        ec.decode_point(bad)


def test_decode_rejects_malformed_length():
    with pytest.raises(CryptoError, match="malformed uncompressed point"):
        ec.decode_point(b"\x04" + b"\x01" * 63)


@pytest.mark.parametrize("fast", [True, False])
def test_validate_public_key_rejections_on_both_paths(fast):
    previous = ec.use_fast_paths(fast)
    try:
        with pytest.raises(CryptoError, match="point at infinity"):
            ec.validate_public_key(ec.INFINITY)
        off_curve = ec.Point(ec.GENERATOR.x, (ec.GENERATOR.y + 1) % ec.P)
        with pytest.raises(CryptoError, match="not on secp256r1"):
            ec.validate_public_key(off_curve)
        # Same accept set: every on-curve non-infinity point passes
        # (secp256r1 has cofactor 1, so there is no small subgroup).
        ec.validate_public_key(ec.scalar_base_mult(42))
    finally:
        ec.use_fast_paths(previous)


def test_precompute_rejects_infinity():
    with pytest.raises(CryptoError, match="point at infinity"):
        ec.precompute_public_key(ec.INFINITY)


def test_batch_normalize_rejects_point_at_infinity():
    # Montgomery's trick inverts the product of all z's; one z = 0 makes
    # it zero, which has no inverse. That must be a typed error.
    finite = ec._to_jacobian(ec.scalar_base_mult(7))
    assert ec._batch_normalize([finite]) == [
        (ec.scalar_base_mult(7).x, ec.scalar_base_mult(7).y)]
    with pytest.raises(CryptoError, match="point at infinity"):
        ec._batch_normalize([finite, ec._J_INFINITY])


def test_key_table_cache_is_bounded():
    ec.clear_key_table_cache()
    capacity = ec.key_table_cache_info()["capacity"]
    for seed in range(1, capacity + 10):
        ec.precompute_public_key(ec.scalar_base_mult(seed))
    info = ec.key_table_cache_info()
    assert info["entries"] == capacity
    ec.clear_key_table_cache()
    assert ec.key_table_cache_info()["entries"] == 0
