"""Elliptic-curve arithmetic over secp256r1 (NIST P-256).

WaTZ selects the *secp256r1* curve (paper §V) for both the long-lived
attestation keys (ECDSA) and the per-session keys (ECDHE). This module
implements group arithmetic with Jacobian coordinates; :mod:`repro.crypto.ecdsa`
and :mod:`repro.crypto.ecdh` build the schemes on top.

Two implementations coexist:

* the **naive reference path** — left-to-right double-and-add with no
  precomputation, exactly the seed implementation. It is retained verbatim
  (:func:`scalar_mult_naive`) as the differential-testing oracle and as
  the baseline the crypto microbenchmark compares against.
* the **fast path** (default) — the attestation hot path of Table III:

  - :func:`scalar_mult` uses width-5 wNAF with a table of odd multiples
    of the point, batch-normalised to affine so the main loop runs on
    mixed Jacobian+affine additions;
  - :func:`scalar_base_mult` uses a fixed-base comb: a 64x15 table of
    ``j * 2**(4*i) * G`` built lazily once and shared process-wide, so a
    base multiplication (keygen, ECDSA sign, ECDHE) is ~64 mixed
    additions and **zero** doublings;
  - :func:`double_scalar_base_mult` is Shamir's trick — the joint
    ``u1*G + u2*Q`` of ECDSA verification — interleaving the wNAF
    expansions of both scalars on one shared doubling chain;
  - per-public-key *split* wNAF tables (odd multiples of ``2**(32c) * Q``
    for each of the eight 32-bit scalar chunks) are memoised in a bounded
    LRU (:func:`precompute_public_key`). A cached key's multiplication
    splits the scalar into chunks that all ride one ~33-step doubling
    chain instead of a 256-step one — the doubling chain is what
    dominates double-and-add, so repeated attesters (the fleet steady
    state) skip both table construction *and* seven eighths of the
    doublings.

Both paths compute the same group function; ``tests/crypto`` pins them
together with known-answer vectors and randomised differential tests.
:func:`use_fast_paths` switches the module between them at runtime (the
microbenchmark and the differential tests flip it); the switch never
changes accept/reject behaviour, only the algorithm.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import CryptoError

# Domain parameters of secp256r1 (FIPS 186-4, D.1.2.3).
P = 0xFFFFFFFF00000001000000000000000000000000FFFFFFFFFFFFFFFFFFFFFFFF
A = P - 3
B = 0x5AC635D8AA3A93E7B3EBBD55769886BC651D06B0CC53B0F63BCE3C3E27D2604B
N = 0xFFFFFFFF00000000FFFFFFFFFFFFFFFFBCE6FAADA7179E84F3B9CAC2FC632551
GX = 0x6B17D1F2E12C4247F8BCE6E563A440F277037D812DEB33A0F4A13945D898C296
GY = 0x4FE342E2FE1A7F9B8EE7EB4A7C0F9E162BCE33576B315ECECBB6406837BF51F5

COORD_SIZE = 32
SCALAR_SIZE = 32

#: secp256r1 has cofactor 1: the curve group itself has prime order N, so
#: every on-curve point other than infinity generates the full group. The
#: fast validation path relies on this to replace the reference path's
#: order-check scalar multiplication with a (free) mathematical argument.
COFACTOR = 1


@dataclass(frozen=True)
class Point:
    """An affine point on P-256; ``None`` coordinates encode infinity."""

    x: Optional[int]
    y: Optional[int]

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def encode(self) -> bytes:
        """Serialise as an uncompressed SEC1 point (65 bytes)."""
        if self.is_infinity:
            raise CryptoError("cannot encode the point at infinity")
        return (
            b"\x04"
            + self.x.to_bytes(COORD_SIZE, "big")
            + self.y.to_bytes(COORD_SIZE, "big")
        )


INFINITY = Point(None, None)
GENERATOR = Point(GX, GY)


def decode_point(data: bytes) -> Point:
    """Parse an uncompressed SEC1 point and check it lies on the curve.

    Rejections are explicit and distinct: the SEC1 point-at-infinity
    encoding (a single ``0x00`` byte) is never an acceptable public
    value, coordinates must be canonical field elements, and the point
    must satisfy the curve equation.
    """
    if len(data) == 1 and data[0] == 0x00:
        raise CryptoError("point at infinity is not a valid public point")
    if len(data) != 1 + 2 * COORD_SIZE or data[0] != 0x04:
        raise CryptoError("malformed uncompressed point encoding")
    x = int.from_bytes(data[1 : 1 + COORD_SIZE], "big")
    y = int.from_bytes(data[1 + COORD_SIZE :], "big")
    if x >= P or y >= P:
        raise CryptoError("point coordinate is not a canonical field element")
    point = Point(x, y)
    if not is_on_curve(point):
        raise CryptoError("point is not on secp256r1")
    return point


def is_on_curve(point: Point) -> bool:
    """Return True for infinity or any (x, y) satisfying the curve equation."""
    if point.is_infinity:
        return True
    if not (0 <= point.x < P and 0 <= point.y < P):
        return False
    return (point.y * point.y - (point.x**3 + A * point.x + B)) % P == 0


def lift_x(x: int) -> Optional[Point]:
    """Recover a curve point from an x-coordinate, or None off the curve.

    ``P == 3 (mod 4)``, so the square root (when it exists) is a single
    exponentiation; the returned point carries the root the exponent
    produces — callers that need the conjugate negate ``y`` themselves.
    Batch ECDSA verification uses this to rebuild the ``R`` point that
    plain (x-only) signatures discard."""
    if not 0 <= x < P:
        return None
    rhs = (x * x % P * x + A * x + B) % P
    y = pow(rhs, (P + 1) // 4, P)
    if y * y % P != rhs:
        return None
    return Point(x, y)


# Jacobian coordinates: (X, Y, Z) represents the affine point (X/Z^2, Y/Z^3).
# Invariant: every stored coordinate is reduced to [0, P); intermediate
# differences inside the formulas below are deliberately left unreduced
# (they only ever feed a product that is reduced once).
_Jacobian = Tuple[int, int, int]
_J_INFINITY: _Jacobian = (1, 1, 0)


def _to_jacobian(point: Point) -> _Jacobian:
    if point.is_infinity:
        return _J_INFINITY
    return (point.x, point.y, 1)


def _from_jacobian(point: _Jacobian) -> Point:
    x, y, z = point
    if z == 0:
        return INFINITY
    z_inv = pow(z, -1, P)
    z_inv2 = z_inv * z_inv % P
    return Point(x * z_inv2 % P, y * z_inv2 * z_inv % P)


def _jacobian_double(point: _Jacobian) -> _Jacobian:
    x, y, z = point
    if z == 0 or y == 0:
        return _J_INFINITY
    ysq = y * y % P
    s = 4 * x * ysq % P
    z2 = z * z % P
    # a = -3 allows the classic (x - z^2)(x + z^2) factorisation of M.
    # The two differences stay unreduced: their product is reduced once.
    m = 3 * (x - z2) * (x + z2) % P
    nx = (m * m - 2 * s) % P
    ny = (m * (s - nx) - 8 * ysq * ysq) % P
    nz = 2 * y * z % P
    return (nx, ny, nz)


def _jacobian_add(p: _Jacobian, q: _Jacobian) -> _Jacobian:
    if p[2] == 0:
        return q
    if q[2] == 0:
        return p
    x1, y1, z1 = p
    x2, y2, z2 = q
    z1z1 = z1 * z1 % P
    z2z2 = z2 * z2 % P
    u1 = x1 * z2z2 % P
    u2 = x2 * z1z1 % P
    s1 = y1 * z2z2 * z2 % P
    s2 = y2 * z1z1 * z1 % P
    if u1 == u2:
        if s1 != s2:
            return _J_INFINITY
        return _jacobian_double(p)
    # h and r are differences of reduced values: |h|, |r| < 2P, and each
    # only feeds products that are reduced once — a single final `% P`
    # replaces the per-step reductions of the seed implementation.
    h = u2 - u1
    i = 4 * h * h % P
    j = h * i % P
    r = 2 * (s2 - s1)
    v = u1 * i % P
    nx = (r * r - j - 2 * v) % P
    ny = (r * (v - nx) - 2 * s1 * j) % P
    nz = 2 * h * z1 * z2 % P
    return (nx, ny, nz)


def _jacobian_add_affine(p: _Jacobian, qx: int, qy: int) -> _Jacobian:
    """Mixed addition of a Jacobian point and an affine (z == 1) point.

    The precomputed tables are batch-normalised to affine exactly so the
    hot loops can use this cheaper formula (madd-2007-bl)."""
    x1, y1, z1 = p
    if z1 == 0:
        return (qx, qy, 1)
    z1z1 = z1 * z1 % P
    u2 = qx * z1z1 % P
    s2 = qy * z1z1 * z1 % P
    if u2 == x1:
        if s2 != y1:
            return _J_INFINITY
        return _jacobian_double(p)
    h = u2 - x1
    i = 4 * h * h % P
    j = h * i % P
    r = 2 * (s2 - y1)
    v = x1 * i % P
    nx = (r * r - j - 2 * v) % P
    ny = (r * (v - nx) - 2 * y1 * j) % P
    nz = 2 * h * z1 % P
    return (nx, ny, nz)


def _batch_normalize(points: List[_Jacobian]) -> List[Tuple[int, int]]:
    """Convert many Jacobian points to affine with ONE field inversion.

    Montgomery's trick: invert the product of all z's, then peel per-point
    inverses off with two multiplications each. A point at infinity
    (z = 0) has no affine form and makes the product zero, so it raises
    :class:`CryptoError` before the inversion."""
    prefix: List[int] = []
    acc = 1
    for _x, _y, z in points:
        acc = acc * z % P
        prefix.append(acc)
    if acc == 0:
        raise CryptoError("cannot normalise the point at infinity")
    inv = pow(acc, -1, P)
    affine: List[Tuple[int, int]] = [(0, 0)] * len(points)
    for index in range(len(points) - 1, -1, -1):
        x, y, z = points[index]
        z_inv = inv * prefix[index - 1] % P if index else inv
        inv = inv * z % P
        z_inv2 = z_inv * z_inv % P
        affine[index] = (x * z_inv2 % P, y * z_inv2 * z_inv % P)
    return affine


def add(p: Point, q: Point) -> Point:
    """Group addition of two affine points."""
    return _from_jacobian(_jacobian_add(_to_jacobian(p), _to_jacobian(q)))


# --- the retained naive reference path ---------------------------------------


def scalar_mult_naive(k: int, point: Point) -> Point:
    """``k * point`` with left-to-right double-and-add (seed implementation).

    Kept verbatim as the reference oracle: no precomputation, no windows.
    The fast paths below are differentially tested against it."""
    k %= N
    if k == 0 or point.is_infinity:
        return INFINITY
    result = _J_INFINITY
    addend = _to_jacobian(point)
    while k:
        if k & 1:
            result = _jacobian_add(result, addend)
        addend = _jacobian_double(addend)
        k >>= 1
    return _from_jacobian(result)


# --- fast-path switch ---------------------------------------------------------

_fast_paths = True


def use_fast_paths(enabled: bool) -> bool:
    """Select windowed (True) or naive reference (False) arithmetic.

    Returns the previous setting. The switch selects *algorithms* only:
    accept/reject behaviour and every computed point are identical."""
    global _fast_paths
    previous = _fast_paths
    _fast_paths = bool(enabled)
    return previous


def fast_paths_enabled() -> bool:
    return _fast_paths


@contextmanager
def reference_paths() -> Iterator[None]:
    """Run a block on the naive reference implementation."""
    previous = use_fast_paths(False)
    try:
        yield
    finally:
        use_fast_paths(previous)


# --- precomputed tables --------------------------------------------------------

#: Fixed-base comb parameters: 4-bit windows over the 256-bit scalar.
_COMB_WINDOW = 4
_COMB_WINDOWS = (256 + _COMB_WINDOW - 1) // _COMB_WINDOW
#: wNAF width for arbitrary points (per-public-key tables: 8 points).
_WNAF_WIDTH = 5
#: wNAF width for the generator inside Shamir's trick (32 points, global).
_GEN_WNAF_WIDTH = 7
#: Split-wNAF shape: the 256-bit scalar is cut into eight 32-bit chunks,
#: each multiplied against its own precomputed ``2**(32c) * Q`` table on a
#: single shared doubling chain of ~33 steps.
_SPLIT_BITS = 32
_SPLIT_CHUNKS = 256 // _SPLIT_BITS
_SPLIT_MASK = (1 << _SPLIT_BITS) - 1

_tables_lock = threading.Lock()
_comb_table: Optional[List[List[Tuple[int, int]]]] = None
_gen_split_table: Optional[List[List[Tuple[int, int]]]] = None

#: Per-public-key split tables, LRU-bounded so a parade of
#: never-seen-again attesters cannot grow memory without bound.
_KEY_TABLE_CAPACITY = 256
_key_tables: "OrderedDict[Tuple[int, int], List[List[Tuple[int, int]]]]" = \
    OrderedDict()


def _build_comb_table() -> List[List[Tuple[int, int]]]:
    """table[i][j-1] == j * 2**(4*i) * G, all affine (one batch inversion)."""
    rows: List[List[_Jacobian]] = []
    base = _to_jacobian(GENERATOR)
    for _window in range(_COMB_WINDOWS):
        row = [base]
        for _multiple in range(2, 1 << _COMB_WINDOW):
            row.append(_jacobian_add(row[-1], base))
        rows.append(row)
        for _ in range(_COMB_WINDOW):
            base = _jacobian_double(base)
    flat = [point for row in rows for point in row]
    affine = _batch_normalize(flat)
    size = (1 << _COMB_WINDOW) - 1
    return [affine[i * size : (i + 1) * size] for i in range(_COMB_WINDOWS)]


def _odd_multiples_jacobian(base: _Jacobian, width: int) -> List[_Jacobian]:
    """[1P, 3P, 5P, ..., (2**(width-1) - 1)P] in Jacobian coordinates."""
    twice = _jacobian_double(base)
    multiples = [base]
    for _ in range((1 << (width - 2)) - 1):
        multiples.append(_jacobian_add(multiples[-1], twice))
    return multiples


def _odd_multiples_affine(point: Point, width: int) -> List[Tuple[int, int]]:
    """Odd multiples of ``point`` as affine points (one batch inversion)."""
    return _batch_normalize(_odd_multiples_jacobian(_to_jacobian(point),
                                                    width))


def _odd_multiples_affine_many(points: Sequence[Point], width: int
                               ) -> List[List[Tuple[int, int]]]:
    """One-shot odd-multiple tables for many points, ONE batch inversion.

    The batch-verification helper: ``n`` recovered ``R`` points need
    their little wNAF tables, and sharing the inversion keeps the
    amortised setup cost flat in ``n``."""
    flats = [_odd_multiples_jacobian(_to_jacobian(point), width)
             for point in points]
    stride = 1 << (width - 2)
    affine = _batch_normalize([entry for flat in flats for entry in flat])
    return [affine[index * stride: (index + 1) * stride]
            for index in range(len(points))]


def _split_table_jacobian(point: Point, width: int) -> List[_Jacobian]:
    """The flat Jacobian split table of one point (normalisation deferred).

    One doubling ladder walks the eight chunk bases; the caller decides
    how many points share the single batch inversion — one key's worth
    (:func:`_build_split_table`) or a whole batch of keys' worth
    (:func:`precompute_public_keys`)."""
    base = _to_jacobian(point)
    flat: List[_Jacobian] = []
    for chunk in range(_SPLIT_CHUNKS):
        flat.extend(_odd_multiples_jacobian(base, width))
        if chunk + 1 < _SPLIT_CHUNKS:
            for _ in range(_SPLIT_BITS):
                base = _jacobian_double(base)
    return flat


def _chunk_split_table(affine: List[Tuple[int, int]], width: int
                       ) -> List[List[Tuple[int, int]]]:
    size = 1 << (width - 2)
    return [affine[c * size: (c + 1) * size] for c in range(_SPLIT_CHUNKS)]


def _build_split_table(point: Point, width: int
                       ) -> List[List[Tuple[int, int]]]:
    """table[c] == odd multiples of ``2**(32c) * point``, all affine,
    normalised with a single batch inversion."""
    return _chunk_split_table(_batch_normalize(_split_table_jacobian(
        point, width)), width)


def _generator_comb() -> List[List[Tuple[int, int]]]:
    global _comb_table
    table = _comb_table
    if table is None:
        with _tables_lock:
            table = _comb_table
            if table is None:
                table = _build_comb_table()
                _comb_table = table
    return table


def _generator_split() -> List[List[Tuple[int, int]]]:
    global _gen_split_table
    table = _gen_split_table
    if table is None:
        with _tables_lock:
            table = _gen_split_table
            if table is None:
                table = _build_split_table(GENERATOR, _GEN_WNAF_WIDTH)
                _gen_split_table = table
    return table


def warm_generator_tables() -> None:
    """Build the process-wide generator tables now (they are lazy)."""
    _generator_comb()
    _generator_split()


def precompute_public_key(point: Point) -> List[List[Tuple[int, int]]]:
    """Build (or fetch) the cached split table for a public key.

    Idempotent, thread-safe, pure math over public values: the fleet
    gateway calls this *outside* the secure-monitor lock so repeated
    attesters (and concurrent lanes) pay table construction at most once
    and off the critical section."""
    if point.is_infinity:
        raise CryptoError("cannot precompute the point at infinity")
    key = (point.x, point.y)
    with _tables_lock:
        table = _key_tables.get(key)
        if table is not None:
            _key_tables.move_to_end(key)
            return table
    table = _build_split_table(point, _WNAF_WIDTH)
    with _tables_lock:
        _key_tables[key] = table
        _key_tables.move_to_end(key)
        while len(_key_tables) > _KEY_TABLE_CAPACITY:
            _key_tables.popitem(last=False)
    return table


def precompute_public_keys(points: Iterable[Point]) -> int:
    """Build split tables for many public keys at once; returns how many.

    The pipelined form of :func:`precompute_public_key`: the Jacobian
    ladders of every *missing* key are built back to back and then
    normalised with ONE batch inversion across all of them, instead of
    one inversion per key. The gateway's batch tick uses this to overlap
    one lane's table construction with another's — a whole drain of
    first-sight attesters costs a single field inversion."""
    fresh: List[Point] = []
    seen: set = set()
    for point in points:
        if point.is_infinity:
            raise CryptoError("cannot precompute the point at infinity")
        key = (point.x, point.y)
        if key in seen:
            continue
        seen.add(key)
        fresh.append(point)
    with _tables_lock:
        missing = [point for point in fresh
                   if (point.x, point.y) not in _key_tables]
        for point in fresh:
            if (point.x, point.y) in _key_tables:
                _key_tables.move_to_end((point.x, point.y))
    if not missing:
        return 0
    flats = [_split_table_jacobian(point, _WNAF_WIDTH) for point in missing]
    stride = len(flats[0])
    affine = _batch_normalize([entry for flat in flats for entry in flat])
    with _tables_lock:
        for index, point in enumerate(missing):
            table = _chunk_split_table(
                affine[index * stride: (index + 1) * stride], _WNAF_WIDTH)
            _key_tables[(point.x, point.y)] = table
            _key_tables.move_to_end((point.x, point.y))
        while len(_key_tables) > _KEY_TABLE_CAPACITY:
            _key_tables.popitem(last=False)
    return len(missing)


def _cached_key_table(point: Point
                      ) -> Optional[List[List[Tuple[int, int]]]]:
    with _tables_lock:
        table = _key_tables.get((point.x, point.y))
        if table is not None:
            _key_tables.move_to_end((point.x, point.y))
        return table


def clear_key_table_cache() -> None:
    with _tables_lock:
        _key_tables.clear()


def key_table_cache_info() -> Dict[str, int]:
    with _tables_lock:
        return {"entries": len(_key_tables),
                "capacity": _KEY_TABLE_CAPACITY}


def _wnaf_digits(k: int, width: int) -> List[int]:
    """Non-adjacent form, least-significant digit first; digits are odd
    in (-2**(width-1), 2**(width-1)) or zero."""
    digits: List[int] = []
    window = 1 << width
    half = window >> 1
    while k:
        if k & 1:
            digit = k & (window - 1)
            if digit >= half:
                digit -= window
            k -= digit
        else:
            digit = 0
        digits.append(digit)
        k >>= 1
    return digits


# --- fast scalar multiplication -------------------------------------------------


def _wnaf_chain(digit_tables: List[Tuple[List[int], List[Tuple[int, int]]]]
                ) -> _Jacobian:
    """One shared doubling chain over any number of (digits, table) pairs.

    With a single pair this is windowed wNAF multiplication; with two it
    is Shamir's trick. The doubling step is inlined: at ~256 iterations
    per multiplication, the function-call and tuple overhead of
    :func:`_jacobian_double` is a measurable fraction of the whole
    operation in CPython."""
    length = max((len(digits) for digits, _table in digit_tables), default=0)
    x, y, z = 1, 1, 0
    modulus = P
    for position in range(length - 1, -1, -1):
        if z and y:
            # Inline Jacobian doubling (a = -3), identical formulas to
            # _jacobian_double.
            ysq = y * y % modulus
            s = 4 * x * ysq % modulus
            z2 = z * z % modulus
            m = 3 * (x - z2) * (x + z2) % modulus
            nz = 2 * y * z % modulus
            x = (m * m - 2 * s) % modulus
            y = (m * (s - x) - 8 * ysq * ysq) % modulus
            z = nz
        else:
            x, y, z = 1, 1, 0
        for digits, table in digit_tables:
            if position >= len(digits):
                continue
            digit = digits[position]
            if not digit:
                continue
            if digit > 0:
                qx, qy = table[digit >> 1]
            else:
                qx, qy = table[(-digit) >> 1]
                qy = modulus - qy
            x, y, z = _jacobian_add_affine((x, y, z), qx, qy)
    return (x, y, z)


def _split_pairs(k: int, split_table: List[List[Tuple[int, int]]],
                 width: int) -> List[Tuple[List[int], List[Tuple[int, int]]]]:
    """Pair each 32-bit chunk's wNAF digits with its chunk table."""
    pairs = []
    for chunk_table in split_table:
        chunk = k & _SPLIT_MASK
        if chunk:
            pairs.append((_wnaf_digits(chunk, width), chunk_table))
        k >>= _SPLIT_BITS
        if not k and pairs:
            break
    return pairs


def _scalar_mult_windowed(k: int, point: Point) -> Point:
    split = _cached_key_table(point)
    if split is not None:
        # Cached key: eight chunk-wNAFs share one ~33-step doubling chain.
        pairs = _split_pairs(k, split, _WNAF_WIDTH)
    else:
        # One-shot point (e.g. an ephemeral ECDHE peer): the split table
        # would cost more to build than it saves, so use a plain wNAF over
        # a small odd-multiples table on the full 256-step chain.
        table = _odd_multiples_affine(point, _WNAF_WIDTH)
        pairs = [(_wnaf_digits(k, _WNAF_WIDTH), table)]
    return _from_jacobian(_wnaf_chain(pairs))


def _scalar_base_mult_comb(k: int) -> Point:
    table = _generator_comb()
    acc: _Jacobian = (1, 1, 0)
    window = 0
    mask = (1 << _COMB_WINDOW) - 1
    while k:
        digit = k & mask
        if digit:
            qx, qy = table[window][digit - 1]
            acc = _jacobian_add_affine(acc, qx, qy)
        k >>= _COMB_WINDOW
        window += 1
    return _from_jacobian(acc)


def scalar_mult(k: int, point: Point) -> Point:
    """Compute ``k * point`` (wNAF fast path, or the naive reference)."""
    if not _fast_paths:
        return scalar_mult_naive(k, point)
    k %= N
    if k == 0 or point.is_infinity:
        return INFINITY
    return _scalar_mult_windowed(k, point)


def scalar_base_mult(k: int) -> Point:
    """Compute ``k * G`` for the standard generator (fixed-base comb)."""
    if not _fast_paths:
        return scalar_mult_naive(k, GENERATOR)
    k %= N
    if k == 0:
        return INFINITY
    return _scalar_base_mult_comb(k)


#: A multi-scalar term: ``(scalar, point)``; ``None`` stands for the
#: generator (wide global split table), an explicit point rides its
#: cached per-key table or a one-shot odd-multiples table.
MultiScalarTerm = Tuple[int, Optional[Point]]


def multi_scalar_mult(terms: Sequence[MultiScalarTerm],
                      tables: Optional[Sequence[Optional[
                          List[Tuple[int, int]]]]] = None) -> Point:
    """Compute ``sum(k_i * P_i)`` on ONE shared doubling chain (Strauss).

    The n-term generalisation of Shamir's trick: every term's wNAF
    expansion interleaves onto a single inlined doubling chain, so the
    dominant cost — the doublings — is paid once for the whole sum
    instead of once per term. This is the engine of randomised-linear-
    combination batch ECDSA verification (:mod:`repro.crypto.batch`).

    ``tables`` optionally supplies a prebuilt odd-multiples table per
    term (``None`` entries fall through to the cache / one-shot logic),
    letting a batch caller build all one-shot tables with a single
    shared inversion first."""
    if not _fast_paths:
        acc = INFINITY
        for k, point in terms:
            acc = add(acc, scalar_mult_naive(
                k, GENERATOR if point is None else point))
        return acc
    pairs: List[Tuple[List[int], List[Tuple[int, int]]]] = []
    for index, (k, point) in enumerate(terms):
        k %= N
        if not k:
            continue
        if point is None:
            pairs.extend(_split_pairs(k, _generator_split(),
                                      _GEN_WNAF_WIDTH))
            continue
        if point.is_infinity:
            continue
        prebuilt = tables[index] if tables is not None else None
        if prebuilt is not None:
            pairs.append((_wnaf_digits(k, _WNAF_WIDTH), prebuilt))
            continue
        split = _cached_key_table(point)
        if split is not None:
            pairs.extend(_split_pairs(k, split, _WNAF_WIDTH))
        else:
            # Unknown key: a one-shot odd-multiples table on the full
            # chain; the other terms interleave onto the same chain.
            table = _odd_multiples_affine(point, _WNAF_WIDTH)
            pairs.append((_wnaf_digits(k, _WNAF_WIDTH), table))
    if not pairs:
        return INFINITY
    return _from_jacobian(_wnaf_chain(pairs))


def double_scalar_base_mult(u1: int, u2: int, point: Point) -> Point:
    """Compute ``u1*G + u2*point`` jointly (Shamir's trick).

    The single hottest verifier-side operation: ECDSA verification is one
    call of this instead of two full multiplications plus an addition.
    The two-term special case of :func:`multi_scalar_mult`; G uses the
    wide global table, ``point`` its (possibly cached) per-key table."""
    return multi_scalar_mult(((u1, None), (u2, point)))


# --- key validation -------------------------------------------------------------


def validate_private_key(d: int) -> None:
    """Ensure a scalar is a valid private key for this curve."""
    if not 1 <= d < N:
        raise CryptoError("private key out of range [1, n-1]")


def validate_public_key(point: Point) -> None:
    """Full public-key validation (SP 800-56A §5.6.2.3.3).

    Rejects the point at infinity and off-curve points with dedicated
    errors. The subgroup-membership condition is equivalent to the first
    two checks on this curve: secp256r1 has cofactor 1, so the curve
    group has prime order N and *every* valid non-infinity point has
    order exactly N. The reference path still performs the explicit
    order-check multiplication (the seed behaviour); the fast path relies
    on the cofactor argument — same accept/reject set, one scalar
    multiplication cheaper."""
    if point.is_infinity:
        raise CryptoError("public key is the point at infinity")
    if not is_on_curve(point):
        raise CryptoError("public key is not on secp256r1")
    if not _fast_paths:
        if not scalar_mult_naive(N, point).is_infinity:
            raise CryptoError("public key has wrong order")
