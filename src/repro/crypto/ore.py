"""Order-revealing encryption (Chenette-Lewi-Weis-Wu, FSE 2016).

Seabed uses this ORE scheme for dimensions that need range predicates
(paper Section 4.2 and Appendix A.3): it is PRF-based, works on dynamic
data (unlike CryptDB's mutable OPE tree), and its leakage is precisely the
order of any two plaintexts plus the index of the most significant bit at
which they differ.

Scheme (Appendix A.3): for an ``n``-bit message ``b_1 .. b_n`` (MSB first),

    u_i = ( F(k, (i, b_1..b_{i-1} || 0^{n-i})) + b_i ) mod 3

and the ciphertext is the trit vector ``(u_1, .., u_n)``.  To compare two
ciphertexts, find the smallest ``i`` where they differ:
``u_i == u'_i + 1 (mod 3)`` means the first message is larger.

Implementation notes:

- Trits are packed two bits each into uint64 words, with the **most
  significant** message bit in the **lowest** bit pair, so "first differing
  trit" becomes "lowest set bit pair of the XOR".
- Compare is bit-parallel (:func:`_differs_and_geq`).  Fold the XOR to
  one bit per pair, ``d = (x | x >> 1) & 0x5555...``; ``low = d & -d`` then
  isolates the first differing trit *in place* -- no count-trailing-zeros
  to shift it down, no gather of the differing rows, no scatter of their
  verdicts.  ``u == u' + 1 (mod 3)`` there means ``u`` equals the trit of
  ``succ(b)`` (every trit incremented), i.e. ``low & fold(a ^ succ(b))``
  is zero; equal words have ``low == 0`` and pass too, so that one test is
  ``a >= b``, ``d != 0`` is ``a != b``, and every operator is a view of
  the two.  Multi-word ciphertexts take the first differing word's verdict.
- Columns encrypt in ``n`` vectorised passes (one per bit position), since
  the PRF input for position ``i`` is just ``(i, m >> (n-i+1))``.
- Signed domains are handled by biasing with ``2^(n-1)`` before encryption,
  which is order-preserving.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.crypto.prf import MASK64
from repro.errors import CryptoError

_U64 = np.uint64
_MIX_MUL_1 = 0xBF58476D1CE4E5B9
_MIX_MUL_2 = 0x94D049BB133111EB
_GOLDEN = 0x9E3779B97F4A7C15

_TRITS_PER_WORD = 32


def _mix_np(x: np.ndarray) -> np.ndarray:
    x = x ^ (x >> _U64(30))
    x = x * _U64(_MIX_MUL_1)
    x = x ^ (x >> _U64(27))
    x = x * _U64(_MIX_MUL_2)
    return x ^ (x >> _U64(31))


def _mix_int(x: int) -> int:
    x &= MASK64
    x ^= x >> 30
    x = (x * _MIX_MUL_1) & MASK64
    x ^= x >> 27
    x = (x * _MIX_MUL_2) & MASK64
    return x ^ (x >> 31)


_PAIRS = _U64(0x5555555555555555)  # the low bit of every trit's bit pair
_ONE = _U64(1)
_BLOCK_ROWS = 1 << 14  # rows per kernel pass: its temporaries stay in cache

# Every operator as a view of the kernel's two masks.
_MASKS = {
    ">=": lambda differs, geq: geq,
    "<": lambda differs, geq: ~geq,
    "!=": lambda differs, geq: differs,
    "=": lambda differs, geq: ~differs,
    ">": lambda differs, geq: geq & differs,
    "<=": lambda differs, geq: ~(geq & differs),
}


def _succ(b):
    """Packed trits, each incremented mod 3 (00 -> 01 -> 10 -> 00)."""
    return ((b & _PAIRS) << _ONE) | (~(b | (b >> _ONE)) & _PAIRS)


def _differs_and_geq(a, b) -> tuple[np.ndarray, np.ndarray]:
    """The one Compare kernel: per row of ``a``, ``(a != b, a >= b)``.

    ``a`` is ``(N, words)``; ``b`` is the same shape or one ``(words,)``
    token.  See the module's implementation notes for the identity.
    """
    a = np.asarray(a, dtype=_U64)
    b = np.asarray(b, dtype=_U64)
    if a.ndim != 2 or a.shape[1] == 0 or b.shape not in (a.shape, a.shape[1:]):
        raise CryptoError("ORE compare expects (N, words) against the same or one token")
    if a.shape[0] > _BLOCK_ROWS:
        spans = [slice(lo, lo + _BLOCK_ROWS) for lo in range(0, a.shape[0], _BLOCK_ROWS)]
        blocks = [_differs_and_geq(a[s], b if b.ndim == 1 else b[s]) for s in spans]
        return tuple(np.concatenate(masks) for masks in zip(*blocks))
    differs = geq = None
    for w in range(a.shape[1]):
        col, tok = a[:, w], b[..., w]
        d = col ^ tok
        d |= d >> _ONE
        d &= _PAIRS
        g = col ^ _succ(tok)
        g |= g >> _ONE
        g &= d & -d
        if differs is None:
            differs, geq = d != 0, g == 0
        else:  # this word decides only the rows no earlier word did
            geq = np.where(differs, geq, g == 0)
            differs |= d != 0
        if differs.all():
            break
    return differs, geq


def compare_packed_arrays(a: np.ndarray, b) -> np.ndarray:
    """Row-wise ORE comparison of a packed ciphertext array with another
    (or with one token): int8 in {-1, 0, +1} per row.

    Requires no key material: this is the public Compare algorithm, used
    by the server's vectorised min/max tournament and median quickselect.
    """
    differs, geq = _differs_and_geq(a, b)
    return (geq.view(np.int8) * np.int8(2) - np.int8(1)) * differs.view(np.int8)


def filter_packed(cipher: np.ndarray, op: str, token) -> np.ndarray:
    """Boolean mask for ``cipher <op> token`` -- the one mask, not a
    three-way compare to derive it from."""
    if op not in _MASKS:
        raise CryptoError(f"unsupported ORE comparison operator {op!r}")
    return _MASKS[op](*_differs_and_geq(cipher, token))


def argextreme_packed(cipher: np.ndarray, kind: str) -> int:
    """Index of the min/max row of a packed ORE column.

    O(log n) vectorised :func:`compare_packed_arrays` tournament passes
    instead of an O(n) per-row Python loop.  Public Compare only -- no key
    material -- so the server's MIN/MAX aggregation and the zone-map
    builder share this single implementation.
    """
    if kind not in ("min", "max"):
        raise CryptoError(f"argextreme_packed kind must be 'min' or 'max', got {kind!r}")
    cipher = np.asarray(cipher, dtype=_U64)
    if cipher.ndim != 2 or cipher.shape[0] == 0:
        raise CryptoError("argextreme_packed expects a non-empty (N, words) array")
    indices = np.arange(cipher.shape[0], dtype=np.int64)
    current = cipher
    while indices.size > 1:
        half = indices.size // 2
        a = current[:half]
        b = current[half : 2 * half]
        cmp = compare_packed_arrays(a, b)
        pick_b = cmp < 0 if kind == "max" else cmp > 0
        winner_idx = np.where(pick_b, indices[half : 2 * half], indices[:half])
        winner_ct = np.where(pick_b[:, None], b, a)
        if indices.size % 2:
            winner_idx = np.append(winner_idx, indices[-1])
            winner_ct = np.vstack([winner_ct, current[-1:]])
        indices = winner_idx
        current = winner_ct
    return int(indices[0])


class OreScheme:
    """CLWW order-revealing encryption over ``nbits``-bit integers."""

    def __init__(self, key: bytes, nbits: int = 32, signed: bool = True,
                 backend: str = "fast"):
        if len(key) < 16:
            raise CryptoError("ORE key must be at least 16 bytes")
        if not 1 <= nbits <= 64:
            raise CryptoError(f"ORE message width must be 1..64 bits, got {nbits}")
        if backend not in ("fast", "blake2"):
            raise CryptoError(f"unknown ORE backend {backend!r}")
        self.nbits = nbits
        self.signed = signed
        self.num_words = (nbits + _TRITS_PER_WORD - 1) // _TRITS_PER_WORD
        self._backend = backend
        seed = hashlib.blake2b(key, digest_size=16, person=b"seabedORE").digest()
        self._k0 = int.from_bytes(seed[0:8], "little") | 1
        self._k1 = int.from_bytes(seed[8:16], "little")
        self._blake_key = hashlib.blake2b(key, digest_size=32, person=b"seabedOREb").digest()
        self._bias = 1 << (nbits - 1) if signed else 0

    # -- domain handling -----------------------------------------------------

    def _to_domain(self, m: int) -> int:
        shifted = int(m) + self._bias
        if not 0 <= shifted < (1 << self.nbits):
            raise CryptoError(
                f"plaintext {m} outside the {self.nbits}-bit ORE domain"
            )
        return shifted

    def _to_domain_np(self, values: np.ndarray) -> np.ndarray:
        v = np.asarray(values)
        if self.nbits == 64:
            if self.signed:
                # Adding 2^63 mod 2^64 maps signed order onto unsigned order.
                return v.astype(np.int64, copy=False).view(_U64) + _U64(1 << 63)
            return v.astype(_U64, copy=False)
        v = v.astype(np.int64, copy=False)
        shifted = v + np.int64(self._bias)
        if shifted.size and (
            int(shifted.min()) < 0 or int(shifted.max()) >= (1 << self.nbits)
        ):
            raise CryptoError("column contains values outside the ORE domain")
        return shifted.astype(_U64)

    # -- PRF ----------------------------------------------------------------

    def _prf_trit_int(self, i: int, prefix: int) -> int:
        if self._backend == "fast":
            x = _mix_int(prefix + self._k0)
            x = _mix_int(x ^ ((i * _GOLDEN + self._k1) & MASK64))
            return x % 3
        payload = i.to_bytes(1, "big") + prefix.to_bytes(8, "big")
        digest = hashlib.blake2b(payload, key=self._blake_key, digest_size=8).digest()
        return int.from_bytes(digest, "big") % 3

    def _prf_trit_np(self, i: int, prefix: np.ndarray) -> np.ndarray:
        if self._backend == "fast":
            x = _mix_np(prefix + _U64(self._k0))
            x = _mix_np(x ^ _U64((i * _GOLDEN + self._k1) & MASK64))
            return x % _U64(3)
        out = np.empty(prefix.shape, dtype=_U64)
        for j, p in enumerate(prefix.tolist()):
            out[j] = self._prf_trit_int(i, p)
        return out

    # -- encryption ---------------------------------------------------------

    def encrypt_one(self, m: int) -> tuple[int, ...]:
        """Per-row reference path (scalar PRF per bit position).

        The ground truth for the property tests, the kernel
        microbenchmark, and :meth:`token`; bulk data goes through
        :meth:`encrypt_column`.
        """
        value = self._to_domain(m)
        words = [0] * self.num_words
        n = self.nbits
        for i in range(1, n + 1):
            prefix = value >> (n - i + 1)
            bit = (value >> (n - i)) & 1
            trit = (self._prf_trit_int(i, prefix) + bit) % 3
            word, slot = divmod(i - 1, _TRITS_PER_WORD)
            words[word] |= trit << (2 * slot)
        return tuple(words)

    def encrypt_column(self, values: np.ndarray, start_id: int = 0) -> np.ndarray:
        """Encrypt a column; returns a ``(N, num_words)`` uint64 array.

        ``start_id`` is ignored (ORE ciphertexts do not depend on row
        identity); ``InstrumentedKernel`` forwards ASHE's signature.
        """
        v = self._to_domain_np(values)
        out = np.zeros((v.size, self.num_words), dtype=_U64)
        n = self.nbits
        for i in range(1, n + 1):
            prefix = v >> _U64(n - i + 1)
            bit = (v >> _U64(n - i)) & _U64(1)
            trit = (self._prf_trit_np(i, prefix) + bit) % _U64(3)
            word, slot = divmod(i - 1, _TRITS_PER_WORD)
            out[:, word] |= trit << _U64(2 * slot)
        return out

    def token(self, m: int) -> tuple[int, ...]:
        """Comparison token for a query constant (same as encryption)."""
        return self.encrypt_one(m)

    # -- comparison (public: needs no key) ------------------------------------

    @staticmethod
    def compare_words(a: tuple[int, ...], b: tuple[int, ...]) -> int:
        """Compare two packed ciphertexts: -1, 0, or +1 (a vs b)."""
        for wa, wb in zip(a, b):
            x = wa ^ wb
            if x:
                ctz = (x & -x).bit_length() - 1
                shift = (ctz // 2) * 2
                ua = (wa >> shift) & 3
                ub = (wb >> shift) & 3
                return 1 if ua == (ub + 1) % 3 else -1
        return 0

    def compare_column(self, cipher: np.ndarray, token: tuple[int, ...]) -> np.ndarray:
        """Vectorised compare of a ciphertext column against one token.

        Returns int8 array: -1 (less), 0 (equal), +1 (greater).  This runs
        on the *server*; it uses only public ciphertext material.
        """
        return compare_packed_arrays(cipher, token)

    def filter_column(self, cipher: np.ndarray, op: str, token: tuple[int, ...]) -> np.ndarray:
        """Boolean mask for ``column <op> constant`` on the server."""
        return filter_packed(cipher, op, token)

    def first_diff_index(self, a: tuple[int, ...], b: tuple[int, ...]) -> int | None:
        """The leakage function: 1-based index of the first differing bit.

        Returns ``None`` when the underlying plaintexts are equal.  Exposed
        so tests can verify the scheme leaks exactly ``inddiff`` and order.
        """
        for w, (wa, wb) in enumerate(zip(a, b)):
            x = wa ^ wb
            if x:
                ctz = (x & -x).bit_length() - 1
                return w * _TRITS_PER_WORD + ctz // 2 + 1
        return None
