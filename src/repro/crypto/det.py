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
returned by the server without keeping a value dictionary.  Round ``r``
of a 32-bit half ``h`` is the first four big-endian bytes of
``AES_k(r || h)`` (two big-endian 64-bit words), on AES-NI through the
PRF's ECB pass (:meth:`repro.crypto.prf.AesNiCtrPrf.ecb`).

Strings are handled by :class:`DictionaryEncoder`: a column-local mapping
from values to dense integer codes.  The code, not the string, is what DET
encrypts; the dictionary never leaves the client.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Sequence

import numpy as np

from repro.crypto.prf import CHUNK, MASK64, AesNiCtrPrf
from repro.errors import CryptoError

_U64 = np.uint64
_MASK32 = 0xFFFFFFFF
_32 = _U64(32)


class DetScheme:
    """Deterministic 64-bit PRP: 4-round Feistel over 32-bit halves."""

    ROUNDS = 4

    def __init__(self, key: bytes):
        self._aes = AesNiCtrPrf(key)

    def _feistel(self, x: np.ndarray, decrypt: bool) -> np.ndarray:
        """The one Feistel network, :data:`~repro.crypto.prf.CHUNK` rows at
        a time.  Decryption is the encryption steps in reverse round order
        on the swapped halves."""
        flat = x.ravel()
        result = np.empty(flat.size, dtype=_U64)
        words, out, encrypt = self._aes.ecb(x.size)
        heads = out.view(">u4")[:, 0]  # each block's first four bytes
        rounds = range(self.ROUNDS - 1, -1, -1) if decrypt else range(self.ROUNDS)
        for at in range(0, flat.size, CHUNK):
            part = flat[at : at + CHUNK]
            k = part.size
            left, right = part >> _32, part & _U64(_MASK32)
            if decrypt:
                left, right = right, left
            for r in rounds:
                words[:k, 0] = r
                words[:k, 1] = right
                encrypt(k)
                left, right = right, left ^ heads[:k]
            if decrypt:
                left, right = right, left
            result[at : at + k] = (left << _32) | right
        return result.reshape(x.shape)

    # -- per-value API (what a query constant needs) -------------------------

    def encrypt_one(self, m: int) -> int:
        """Encrypt one 64-bit value: :meth:`encrypt_column` of one row."""
        return int(self._feistel(np.array([m & MASK64], dtype=_U64), False)[0])

    def decrypt_one(self, c: int) -> int:
        """Inverse of :meth:`encrypt_one` (the raw ``Z_{2^64}`` element)."""
        return int(self._feistel(np.array([c & MASK64], dtype=_U64), True)[0])

    # -- vectorised API --------------------------------------------------------

    def encrypt_column(self, values: np.ndarray, start_id: int = 0) -> np.ndarray:
        """Encrypt an int column (codes) into uint64 DET ciphertexts.

        ``start_id`` is ignored (DET ciphertexts do not depend on row
        identity); ``InstrumentedKernel`` forwards ASHE's signature.
        """
        v = np.asarray(values)
        x = v.astype(np.int64, copy=False).view(_U64) if v.dtype != _U64 else v
        return self._feistel(x, False)

    def decrypt_column(self, cipher: np.ndarray, start_id: int = 0) -> np.ndarray:
        return self._feistel(np.asarray(cipher, dtype=_U64), True).view(np.int64)

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
