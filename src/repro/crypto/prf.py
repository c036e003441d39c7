"""Keyed pseudo-random functions ``F_k : Z_{2^64} -> Z_{2^64}``.

ASHE (Section 3.1 of the paper) is built on a PRF over row identifiers.
The paper suggests two instantiations -- ``H(i || k) mod n`` for a
cryptographic hash ``H``, or AES used as a pseudo-random permutation -- and
its prototype uses AES-NI hardware instructions to evaluate the PRF at
47 ns per 128-bit block (Table 1).

This module provides three interchangeable backends:

- :class:`Blake2Prf` -- a keyed BLAKE2b MAC.  This is the cryptographically
  honest default: BLAKE2b in keyed mode is a PRF under standard
  assumptions.  It costs roughly a microsecond per evaluation in Python,
  so it is used where only a handful of evaluations are needed (range
  endpoints during decryption) and in tests.
- :class:`SplitMix64Prf` -- a vectorised mixing function (the SplitMix64
  finalizer, double-applied with key injection).  It is **not** a
  cryptographic PRF, but it is statistically indistinguishable from random
  for every test in this repository and it vectorises over numpy arrays,
  which restores the throughput relationship the paper obtains from
  AES-NI (PRF evaluation far cheaper than Paillier, tens of ns per
  element).  It stands in for the paper's AES-NI PRF, whose cryptographic
  equivalent here is :class:`AesNiCtrPrf`.
- :class:`AesCtrPrf` -- our from-scratch AES-128 in counter mode.  One AES
  block yields two 64-bit PRF outputs, mirroring the paper's optimisation
  of carving multiple pseudo-random numbers out of a single AES operation
  (Section 4.3).  Pure-Python AES is slow; this backend exists for
  fidelity and for the Table 1 microbenchmark.
- :class:`AesNiCtrPrf` -- the same AES-128-CTR construction routed through
  the ``cryptography`` package's OpenSSL backend, which uses AES-NI
  hardware instructions where available.  Bit-identical to
  :class:`AesCtrPrf` (the property tests cross-check them on random keys
  and blocks) but batch-evaluated: one ECB call encrypts a whole column's
  counter blocks, recovering the paper's 47 ns-per-op Table 1 price.

All backends operate on the identifier domain ``Z_{2^64}`` with wraparound,
so ``F_k(i - 1)`` is well defined for ``i = 0`` (it wraps to
``F_k(2^64 - 1)``); the encryptor never assigns that identifier to a row.
"""

from __future__ import annotations

import hashlib
from abc import ABC, abstractmethod

import numpy as np

from repro.errors import CryptoError

try:  # hardware AES via OpenSSL; gated so the core package needs only numpy
    from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

    HAVE_AESNI = True
except ImportError:  # pragma: no cover - exercised only on minimal installs
    Cipher = algorithms = modes = None
    HAVE_AESNI = False

MASK64 = (1 << 64) - 1

#: Odd constants from the SplitMix64 reference implementation.
_MIX_MUL_1 = 0xBF58476D1CE4E5B9
_MIX_MUL_2 = 0x94D049BB133111EB
_GOLDEN_GAMMA = 0x9E3779B97F4A7C15

_U64 = np.uint64


def _require_key(key: bytes, minimum: int = 16) -> bytes:
    if not isinstance(key, (bytes, bytearray)):
        raise CryptoError(f"PRF key must be bytes, got {type(key).__name__}")
    if len(key) < minimum:
        raise CryptoError(f"PRF key must be at least {minimum} bytes, got {len(key)}")
    return bytes(key)


class Prf(ABC):
    """A keyed PRF over 64-bit identifiers.

    Implementations must be deterministic per key and support random access
    (``eval_one``), bulk random access (``eval_many``), and contiguous
    streams (``eval_range``), because ASHE encryption walks contiguous IDs
    while decryption touches only range endpoints.
    """

    name: str = "prf"

    @abstractmethod
    def eval_one(self, i: int) -> int:
        """Return ``F_k(i)`` as a Python int in ``[0, 2^64)``."""

    def eval_many(self, ids: np.ndarray) -> np.ndarray:
        """Return ``F_k`` over an array of identifiers (uint64 in/out)."""
        flat = np.asarray(ids, dtype=_U64).ravel()
        out = np.empty(flat.shape, dtype=_U64)
        for j, i in enumerate(flat.tolist()):
            out[j] = self.eval_one(i)
        return out.reshape(np.shape(ids))

    def eval_range(self, start: int, count: int) -> np.ndarray:
        """Return ``F_k`` over the contiguous IDs ``start .. start+count-1``.

        ``start`` may be ``-1`` (it wraps mod ``2^64``), which is how the
        encryptor obtains ``F_k(i - 1)`` for the first row of a table.
        """
        if count < 0:
            raise CryptoError(f"negative PRF range count: {count}")
        ids = np.arange(count, dtype=_U64) + _U64(start & MASK64)
        return self.eval_many(ids)


class Blake2Prf(Prf):
    """Keyed BLAKE2b truncated to 64 bits: the cryptographic default."""

    name = "blake2"

    def __init__(self, key: bytes):
        self._key = _require_key(key)

    def eval_one(self, i: int) -> int:
        digest = hashlib.blake2b(
            (i & MASK64).to_bytes(8, "little"), key=self._key, digest_size=8
        ).digest()
        return int.from_bytes(digest, "little")


class SplitMix64Prf(Prf):
    """Vectorised keyed mixer modelling the paper's AES-NI accelerated PRF.

    ``F_k(i) = mix(mix(i + k0) ^ k1) ^ k2`` where ``mix`` is the SplitMix64
    finalizer.  Each stage is a 64-bit avalanche permutation, so distinct
    inputs map to distinct-looking outputs with full bit diffusion.  Not
    cryptographically secure; see the module docstring.
    """

    name = "splitmix64"

    def __init__(self, key: bytes):
        key = _require_key(key)
        seed = hashlib.blake2b(key, digest_size=24, person=b"seabedPRF").digest()
        self._k0 = int.from_bytes(seed[0:8], "little") | 1
        self._k1 = int.from_bytes(seed[8:16], "little")
        self._k2 = int.from_bytes(seed[16:24], "little")
        self._k0_np = _U64(self._k0)
        self._k1_np = _U64(self._k1)
        self._k2_np = _U64(self._k2)

    @staticmethod
    def _mix_int(x: int) -> int:
        x ^= x >> 30
        x = (x * _MIX_MUL_1) & MASK64
        x ^= x >> 27
        x = (x * _MIX_MUL_2) & MASK64
        x ^= x >> 31
        return x

    def eval_one(self, i: int) -> int:
        x = ((i & MASK64) + self._k0) & MASK64
        x = self._mix_int(x) ^ self._k1
        return self._mix_int(x) ^ self._k2

    @staticmethod
    def _mix_np(x: np.ndarray) -> np.ndarray:
        x = x ^ (x >> _U64(30))
        x = x * _U64(_MIX_MUL_1)
        x = x ^ (x >> _U64(27))
        x = x * _U64(_MIX_MUL_2)
        return x ^ (x >> _U64(31))

    def eval_many(self, ids: np.ndarray) -> np.ndarray:
        x = np.asarray(ids, dtype=_U64) + self._k0_np
        x = self._mix_np(x) ^ self._k1_np
        return self._mix_np(x) ^ self._k2_np

    def eval_range(self, start: int, count: int) -> np.ndarray:
        if count < 0:
            raise CryptoError(f"negative PRF range count: {count}")
        ids = np.arange(count, dtype=_U64) + _U64(start & MASK64)
        return self.eval_many(ids)


class AesCtrPrf(Prf):
    """AES-128 in counter mode; one block yields two 64-bit outputs.

    Identifier ``i`` maps to the big-endian counter block ``i >> 1``; the
    low bit of ``i`` selects the 64-bit lane.  This mirrors Section 4.3 of
    the paper, where a single hardware AES operation produces multiple
    pseudo-random numbers for 64-bit data types.
    """

    name = "aes-ctr"

    def __init__(self, key: bytes):
        from repro.crypto.aes import Aes128

        key = _require_key(key, minimum=16)
        self._aes = Aes128(key[:16])
        # One (block index, block bytes) pair, kept in a single attribute
        # so concurrent readers (caller threads sharing one session)
        # always see a consistent index/bytes snapshot.
        self._cache: tuple[int, bytes] = (-1, b"")

    def eval_one(self, i: int) -> int:
        i &= MASK64
        block_index = i >> 1
        cached = self._cache
        if cached[0] != block_index:
            cached = (
                block_index,
                self._aes.encrypt_block(block_index.to_bytes(16, "big")),
            )
            self._cache = cached
        lane = i & 1
        return int.from_bytes(cached[1][8 * lane : 8 * lane + 8], "big")


class AesNiCtrPrf(Prf):
    """AES-128-CTR through ``cryptography``'s AES-NI path, batch-evaluated.

    Identical construction to :class:`AesCtrPrf` -- identifier ``i`` maps
    to the big-endian counter block ``i >> 1``, the low bit of ``i``
    selects the 64-bit lane -- but a whole array of counter blocks is
    encrypted with a single ECB call (CTR keystream *is* ECB over the
    counter blocks), so the per-op cost approaches the paper's 47 ns.
    """

    name = "aes-ni"

    def __init__(self, key: bytes):
        if not HAVE_AESNI:
            raise CryptoError(
                "the 'cryptography' package is not installed; "
                "the aes-ni PRF backend is unavailable (use aes-ctr)"
            )
        key = _require_key(key, minimum=16)
        self._cipher = Cipher(algorithms.AES(key[:16]), modes.ECB())

    def _blocks(self, block_ids: np.ndarray) -> np.ndarray:
        """ECB-encrypt counter blocks; returns an ``(n, 2)`` lane array.

        Column 0 holds the first eight big-endian bytes of each AES output
        (lane 0), matching :meth:`AesCtrPrf.eval_one` exactly.
        """
        counters = np.zeros((block_ids.size, 2), dtype=">u8")
        counters[:, 1] = block_ids
        enc = self._cipher.encryptor()
        out = enc.update(counters.tobytes()) + enc.finalize()
        return np.frombuffer(out, dtype=">u8").astype(_U64).reshape(-1, 2)

    def eval_one(self, i: int) -> int:
        return int(self.eval_many(np.asarray([i & MASK64], dtype=_U64))[0])

    def eval_many(self, ids: np.ndarray) -> np.ndarray:
        flat = np.asarray(ids, dtype=_U64).ravel()
        if flat.size == 0:
            return np.empty(np.shape(ids), dtype=_U64)
        lanes = self._blocks(flat >> _U64(1))
        out = np.where(flat & _U64(1), lanes[:, 1], lanes[:, 0])
        return out.reshape(np.shape(ids))

    def eval_range(self, start: int, count: int) -> np.ndarray:
        if count < 0:
            raise CryptoError(f"negative PRF range count: {count}")
        start &= MASK64
        if count == 0:
            return np.empty(0, dtype=_U64)
        if start + count > (1 << 64):  # identifier wraparound: split the stream
            head = (1 << 64) - start
            return np.concatenate(
                [self.eval_range(start, head), self.eval_range(0, count - head)]
            )
        first_block = start >> 1
        last_block = (start + count - 1) >> 1
        block_ids = np.arange(first_block, last_block + 1, dtype=_U64)
        lanes = self._blocks(block_ids).reshape(-1)
        offset = start - 2 * first_block
        return lanes[offset : offset + count].copy()


_BACKENDS = {
    "blake2": Blake2Prf,
    "splitmix64": SplitMix64Prf,
    "aes-ctr": AesCtrPrf,
    "aes-ni": AesNiCtrPrf,
}


def prf_from_name(name: str, key: bytes) -> Prf:
    """Instantiate a PRF backend by name
    (``blake2 | splitmix64 | aes-ctr | aes-ni``)."""
    try:
        cls = _BACKENDS[name]
    except KeyError:
        raise CryptoError(
            f"unknown PRF backend {name!r}; choose from {sorted(_BACKENDS)}"
        ) from None
    return cls(key)
