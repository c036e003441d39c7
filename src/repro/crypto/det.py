"""Deterministic encryption (DET) and dictionary encoding for strings.

Seabed falls back to DET for dimensions that participate in joins or that
the SPLASHE storage budget cannot cover (Section 4.2).  DET must support
server-side equality checks, so each plaintext maps to exactly one
ciphertext -- which is precisely what makes it vulnerable to the frequency
attacks SPLASHE defends against (demonstrated in
:mod:`repro.attacks.frequency`).

Construction: a 4-round Luby-Rackoff Feistel network over 64-bit blocks
with PRF round functions, i.e. a keyed pseudo-random *permutation*.  Being
a permutation it is invertible, so the proxy can decrypt DET group-by keys
returned by the server without keeping a value dictionary.

Two round-function backends: ``blake2`` (keyed BLAKE2b, cryptographic,
scalar) and ``fast`` (SplitMix64 mixing, vectorised; not cryptographic,
it stands in for hardware AES).  ASHE's PRF (:mod:`repro.crypto.prf`)
is AES itself.

Strings are handled by :class:`DictionaryEncoder`: a column-local mapping
from values to dense integer codes.  The code, not the string, is what DET
encrypts; the dictionary never leaves the client.
"""

from __future__ import annotations

import hashlib
from typing import Hashable, Iterable, Sequence

import numpy as np

from repro.crypto.prf import MASK64
from repro.errors import CryptoError

_U64 = np.uint64
_MASK32 = 0xFFFFFFFF
_MIX_MUL_1 = 0xBF58476D1CE4E5B9
_MIX_MUL_2 = 0x94D049BB133111EB


def _mix_int(x: int) -> int:
    x &= MASK64
    x ^= x >> 30
    x = (x * _MIX_MUL_1) & MASK64
    x ^= x >> 27
    x = (x * _MIX_MUL_2) & MASK64
    return x ^ (x >> 31)


def _mix_np(x: np.ndarray) -> np.ndarray:
    x = x ^ (x >> _U64(30))
    x = x * _U64(_MIX_MUL_1)
    x = x ^ (x >> _U64(27))
    x = x * _U64(_MIX_MUL_2)
    return x ^ (x >> _U64(31))


class DetScheme:
    """Deterministic 64-bit PRP: 4-round Feistel over 32-bit halves."""

    ROUNDS = 4

    def __init__(self, key: bytes, backend: str = "fast"):
        if len(key) < 16:
            raise CryptoError("DET key must be at least 16 bytes")
        if backend not in ("fast", "blake2"):
            raise CryptoError(f"unknown DET backend {backend!r}")
        self._backend = backend
        material = hashlib.blake2b(key, digest_size=16 * self.ROUNDS, person=b"seabedDET").digest()
        self._round_keys = [
            (
                int.from_bytes(material[16 * r : 16 * r + 8], "little"),
                int.from_bytes(material[16 * r + 8 : 16 * r + 16], "little"),
            )
            for r in range(self.ROUNDS)
        ]
        self._blake_keys = [
            hashlib.blake2b(key + bytes([r]), digest_size=32, person=b"seabedDETr").digest()
            for r in range(self.ROUNDS)
        ]

    # -- round functions ---------------------------------------------------

    def _round_int(self, r: int, half: int) -> int:
        if self._backend == "fast":
            k0, k1 = self._round_keys[r]
            return _mix_int(_mix_int(half + k0) ^ k1) & _MASK32
        digest = hashlib.blake2b(
            half.to_bytes(4, "little"), key=self._blake_keys[r], digest_size=4
        ).digest()
        return int.from_bytes(digest, "little")

    def _round_np(self, r: int, half: np.ndarray) -> np.ndarray:
        if self._backend == "fast":
            k0, k1 = self._round_keys[r]
            return _mix_np(_mix_np(half + _U64(k0)) ^ _U64(k1)) & _U64(_MASK32)
        out = np.empty(half.shape, dtype=_U64)
        for j, h in enumerate(half.tolist()):
            out[j] = self._round_int(r, h)
        return out

    # -- scalar API (the reference path) -------------------------------------

    def encrypt_one(self, m: int) -> int:
        """Per-row reference path: encrypt one 64-bit value.

        The ground truth for the property tests, the kernel
        microbenchmark, and :meth:`token`; bulk data goes through
        :meth:`encrypt_column`.
        """
        left, right = (m >> 32) & _MASK32, m & _MASK32
        for r in range(self.ROUNDS):
            left, right = right, left ^ self._round_int(r, right)
        return (left << 32) | right

    def decrypt_one(self, c: int) -> int:
        """Per-row reference inverse of :meth:`encrypt_one` (the raw
        ``Z_{2^64}`` element)."""
        left, right = (c >> 32) & _MASK32, c & _MASK32
        for r in reversed(range(self.ROUNDS)):
            left, right = right ^ self._round_int(r, left), left
        return (left << 32) | right

    # -- vectorised API --------------------------------------------------------

    def encrypt_column(self, values: np.ndarray, start_id: int = 0) -> np.ndarray:
        """Encrypt an int column (codes) into uint64 DET ciphertexts.

        ``start_id`` is ignored (DET ciphertexts do not depend on row
        identity); ``InstrumentedKernel`` forwards ASHE's signature.
        """
        v = np.asarray(values)
        x = v.astype(np.int64, copy=False).view(_U64) if v.dtype != _U64 else v
        left = x >> _U64(32)
        right = x & _U64(_MASK32)
        for r in range(self.ROUNDS):
            left, right = right, left ^ self._round_np(r, right)
        return (left << _U64(32)) | right

    def decrypt_column(self, cipher: np.ndarray, start_id: int = 0) -> np.ndarray:
        c = np.asarray(cipher, dtype=_U64)
        left = c >> _U64(32)
        right = c & _U64(_MASK32)
        for r in reversed(range(self.ROUNDS)):
            left, right = right ^ self._round_np(r, left), left
        return ((left << _U64(32)) | right).view(np.int64)

    def compare_column(self, cipher: np.ndarray, token) -> np.ndarray:
        """Equality of a ciphertext column against one token, as int8.

        DET reveals equality only, so the result is 0 (equal) or 1
        (unequal) -- never the ordering sign the ORE kernel produces.
        """
        c = np.asarray(cipher, dtype=_U64)
        return np.where(c == _U64(int(token)), 0, 1).astype(np.int8)

    def token(self, m: int) -> int:
        """Equality token for a query constant (same as encryption)."""
        return self.encrypt_one(m)


class DictionaryEncoder:
    """Client-side value <-> dense-code mapping for categorical columns.

    Codes are assigned in first-seen order.  Join columns that must match
    across tables share one encoder instance (the planner arranges this).
    """

    def __init__(self) -> None:
        self._index: dict[Hashable, int] = {}
        self._values: list[Hashable] = []

    @property
    def cardinality(self) -> int:
        return len(self._values)

    def code(self, value: Hashable) -> int:
        """Code for ``value``, assigning a fresh one if unseen."""
        found = self._index.get(value)
        if found is not None:
            return found
        code = len(self._values)
        self._index[value] = code
        self._values.append(value)
        return code

    def lookup(self, value: Hashable) -> int:
        """Code for ``value``; raises if the value was never encoded."""
        try:
            return self._index[value]
        except KeyError:
            raise CryptoError(f"value {value!r} not present in dictionary") from None

    def value(self, code: int) -> Hashable:
        if not 0 <= code < len(self._values):
            raise CryptoError(f"dictionary code {code} out of range")
        return self._values[code]

    def encode_column(self, values: Iterable[Hashable]) -> np.ndarray:
        return np.fromiter((self.code(v) for v in values), dtype=np.int64)

    def decode_column(self, codes: Sequence[int] | np.ndarray) -> list[Hashable]:
        return [self.value(int(c)) for c in codes]

    def known_values(self) -> list[Hashable]:
        return list(self._values)
