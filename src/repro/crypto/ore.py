"""Order-revealing encryption (Chenette-Lewi-Weis-Wu, FSE 2016).

Seabed uses this ORE scheme for dimensions that need range predicates
(paper Section 4.2 and Appendix A.3): it is PRF-based, works on dynamic
data (unlike CryptDB's mutable OPE tree), and its leakage is precisely the
order of any two plaintexts plus the index of the most significant bit at
which they differ.

Scheme (Appendix A.3): for an ``n``-bit message ``b_1 .. b_n`` (MSB first),

    u_i = ( F(k, (i, b_1..b_{i-1} || 0^{n-i})) + b_i ) mod 3

and the ciphertext is the trit vector ``(u_1, .., u_n)``.  ``F`` is a PRF
into ``Z_3`` built on AES: with ``h`` the first four big-endian bytes of
``AES_k(i || p)`` (two big-endian 64-bit words, ``p = b_1..b_{i-1}`` as
an integer), ``F(k, (i, p)) = floor(3h / 2^32)``, on AES-NI through the
PRF's ECB pass (:meth:`repro.crypto.prf.AesNiCtrPrf.ecb`).  To compare two
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
- Columns encrypt in row blocks of at most :data:`~repro.crypto.prf.CHUNK`
  AES blocks, one block per (row, bit position), since the PRF input for
  position ``i`` is just ``(i, m >> (n-i+1))``; one value (a query
  constant's token) is a block of one row.
- Signed domains are handled by biasing with ``2^(n-1)`` before encryption,
  which is order-preserving.
"""

from __future__ import annotations

import numpy as np

from repro.crypto.prf import CHUNK, AesNiCtrPrf
from repro.errors import CryptoError

_U64 = np.uint64

_TRITS_PER_WORD = 32

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

    def __init__(self, key: bytes, nbits: int = 32, signed: bool = True):
        if not 1 <= nbits <= 64:
            raise CryptoError(f"ORE message width must be 1..64 bits, got {nbits}")
        self._aes = AesNiCtrPrf(key)
        self.nbits = nbits
        self.signed = signed
        self.num_words = (nbits + _TRITS_PER_WORD - 1) // _TRITS_PER_WORD
        self._bias = 1 << (nbits - 1) if signed else 0
        # Position i = 1..n: its prefix is m >> (n - i + 1), its bit sits
        # at n - i, and its trit at bit pair (i - 1) mod 32 of its word.
        self._shifts = np.arange(nbits, 0, -1, dtype=_U64)
        self._slots = np.arange(nbits, dtype=_U64) % _U64(_TRITS_PER_WORD) * _U64(2)

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

    # -- encryption ---------------------------------------------------------

    def _encrypt_domain(self, v: np.ndarray) -> np.ndarray:
        """CLWW over domain values (uint64), a block of rows at a time:
        one AES block ``(i, prefix)`` per row and position."""
        n = self.nbits
        result = np.zeros((v.size, self.num_words), dtype=_U64)
        rows = CHUNK // n
        words, out, encrypt = self._aes.ecb(min(v.size, rows) * n)
        words[:, 0] = np.tile(np.arange(1, n + 1, dtype=_U64), words.shape[0] // n)
        prefixes = words[:, 1].reshape(-1, n)
        heads = out.view(">u4")[:, 0].reshape(-1, n)  # h of each block
        for at in range(0, v.size, rows):
            part = v[at : at + rows, None]
            k = part.shape[0]
            prefixes[:k] = part >> self._shifts
            encrypt(k * n)
            bits = (part >> (self._shifts - _ONE)) & _ONE
            prf = (heads[:k].astype(_U64) * _U64(3)) >> _U64(32)
            trits = prf + bits - ((prf >> _ONE) & bits) * _U64(3)  # (F + b) mod 3
            trits <<= self._slots
            for w in range(self.num_words):
                span = trits[:, w * _TRITS_PER_WORD : (w + 1) * _TRITS_PER_WORD]
                result[at : at + k, w] = np.bitwise_or.reduce(span, axis=1)
        return result

    def encrypt_one(self, m: int) -> tuple[int, ...]:
        """Encrypt one value: :meth:`encrypt_column` of one row."""
        row = self._encrypt_domain(np.array([self._to_domain(m)], dtype=_U64))[0]
        return tuple(int(w) for w in row)

    def encrypt_column(self, values: np.ndarray, start_id: int = 0) -> np.ndarray:
        """Encrypt a column; returns a ``(N, num_words)`` uint64 array.

        ``start_id`` is ignored (ORE ciphertexts do not depend on row
        identity); ``InstrumentedKernel`` forwards ASHE's signature.
        """
        return self._encrypt_domain(self._to_domain_np(values).ravel())

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
