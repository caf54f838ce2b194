"""ECDSA over P-256 with deterministic nonces (RFC 6979).

The attestation service signs evidence, and the verifier signs the session
handshake, with 256-bit ECDSA (paper §V). Deterministic nonces keep the
scheme safe without an entropy source and make protocol tests reproducible.
"""

from __future__ import annotations

import hashlib
import hmac
import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro.crypto import ec
from repro.crypto.hashing import sha256
from repro.errors import CryptoError, SignatureError

SIGNATURE_SIZE = 64

# -- the verified-signature memo -----------------------------------------------
#
# Batch verification (repro.crypto.batch) proves a whole drain of
# signatures at once, but the verifier TA still calls :func:`verify` per
# message. The memo closes that gap: a batch-verified (key, digest,
# signature) triple is seeded here and the TA's verify consumes it in
# one dict lookup instead of redoing the double-scalar multiplication.
# Entries are consume-once (a hit pops) and the table is LRU-bounded, so
# a seeded-but-never-verified triple can neither grow memory nor satisfy
# more than one later verification. Accept/reject behaviour is identical
# by construction — only triples that passed the full per-signature
# equation are ever seeded.

_MEMO_CAPACITY = 4096
_memo_lock = threading.Lock()
_verified_memo: "OrderedDict[tuple, None]" = OrderedDict()


def _memo_key(public: ec.Point, digest: bytes, signature: bytes) -> tuple:
    return (public.x, public.y, digest, signature)


def seed_verified(public: ec.Point, message: bytes,
                  signature: bytes) -> None:
    """Record one *fully verified* signature for a later one-shot skip."""
    key = _memo_key(public, sha256(message), signature)
    with _memo_lock:
        _verified_memo[key] = None
        _verified_memo.move_to_end(key)
        while len(_verified_memo) > _MEMO_CAPACITY:
            _verified_memo.popitem(last=False)


def _consume_verified(public: ec.Point, digest: bytes,
                      signature: bytes) -> bool:
    key = _memo_key(public, digest, signature)
    with _memo_lock:
        if key in _verified_memo:
            del _verified_memo[key]
            return True
    return False


def clear_verified_memo() -> None:
    with _memo_lock:
        _verified_memo.clear()


def verified_memo_size() -> int:
    with _memo_lock:
        return len(_verified_memo)


@dataclass(frozen=True)
class KeyPair:
    """An ECDSA key pair; ``private`` is the scalar d, ``public`` is d*G."""

    private: int
    public: ec.Point

    def public_bytes(self) -> bytes:
        return self.public.encode()


def keypair_from_private(d: int) -> KeyPair:
    """Build a key pair from a private scalar, validating its range."""
    ec.validate_private_key(d)
    return KeyPair(d, ec.scalar_base_mult(d))


def keypair_from_seed_stream(read: "callable") -> KeyPair:
    """Derive a key pair by rejection sampling from a byte stream.

    ``read(n)`` must return ``n`` fresh bytes per call. This mirrors the
    paper's flow where the Fortuna PRNG, seeded from the hardware root of
    trust, feeds LibTomCrypt's ECC key generation.
    """
    while True:
        candidate = int.from_bytes(read(ec.SCALAR_SIZE), "big")
        if 1 <= candidate < ec.N:
            return keypair_from_private(candidate)


def _bits2int(data: bytes) -> int:
    value = int.from_bytes(data, "big")
    excess = len(data) * 8 - ec.N.bit_length()
    if excess > 0:
        value >>= excess
    return value


def _rfc6979_nonce(private: int, digest: bytes) -> int:
    """Deterministic nonce generation per RFC 6979 with HMAC-SHA256."""
    holen = 32
    x = private.to_bytes(ec.SCALAR_SIZE, "big")
    h1 = (_bits2int(digest) % ec.N).to_bytes(ec.SCALAR_SIZE, "big")
    v = b"\x01" * holen
    k = b"\x00" * holen
    k = hmac.new(k, v + b"\x00" + x + h1, hashlib.sha256).digest()
    v = hmac.new(k, v, hashlib.sha256).digest()
    k = hmac.new(k, v + b"\x01" + x + h1, hashlib.sha256).digest()
    v = hmac.new(k, v, hashlib.sha256).digest()
    while True:
        v = hmac.new(k, v, hashlib.sha256).digest()
        candidate = _bits2int(v)
        if 1 <= candidate < ec.N:
            return candidate
        k = hmac.new(k, v + b"\x00", hashlib.sha256).digest()
        v = hmac.new(k, v, hashlib.sha256).digest()


def sign(private: int, message: bytes) -> bytes:
    """Sign ``message`` (hashed with SHA-256) and return r || s (64 bytes)."""
    ec.validate_private_key(private)
    digest = sha256(message)
    z = _bits2int(digest)
    k = _rfc6979_nonce(private, digest)
    while True:
        point = ec.scalar_base_mult(k)
        r = point.x % ec.N
        if r == 0:
            k = (k + 1) % ec.N or 1
            continue
        k_inv = pow(k, -1, ec.N)
        s = k_inv * (z + r * private) % ec.N
        if s == 0:
            k = (k + 1) % ec.N or 1
            continue
        # Low-s normalisation avoids signature malleability.
        if s > ec.N // 2:
            s = ec.N - s
        return r.to_bytes(ec.SCALAR_SIZE, "big") + s.to_bytes(ec.SCALAR_SIZE, "big")


def verify(public: ec.Point, message: bytes, signature: bytes) -> None:
    """Verify an r || s signature; raise :class:`SignatureError` on failure."""
    if len(signature) != SIGNATURE_SIZE:
        raise SignatureError("signature must be 64 bytes (r || s)")
    digest = sha256(message)
    # Consume-once fast path: this exact triple already passed the full
    # equation inside a batch verification. The truthiness guard keeps
    # the un-batched hot path at one plain dict test.
    if _verified_memo and _consume_verified(public, digest, signature):
        return
    try:
        ec.validate_public_key(public)
    except CryptoError as exc:
        raise SignatureError(f"invalid public key: {exc}") from exc
    r = int.from_bytes(signature[: ec.SCALAR_SIZE], "big")
    s = int.from_bytes(signature[ec.SCALAR_SIZE :], "big")
    if not (1 <= r < ec.N and 1 <= s < ec.N):
        raise SignatureError("signature scalars out of range")
    z = _bits2int(digest)
    s_inv = pow(s, -1, ec.N)
    u1 = z * s_inv % ec.N
    u2 = r * s_inv % ec.N
    # Shamir's trick: one joint double-scalar multiplication instead of
    # two full multiplications plus an addition.
    point = ec.double_scalar_base_mult(u1, u2, public)
    if point.is_infinity or point.x % ec.N != r:
        raise SignatureError("signature does not verify")


def is_valid(public: ec.Point, message: bytes, signature: bytes) -> bool:
    """Boolean convenience wrapper around :func:`verify`."""
    try:
        verify(public, message, signature)
    except SignatureError:
        return False
    return True
