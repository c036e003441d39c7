"""ASHE: additively symmetric homomorphic encryption (paper Section 3.1).

The scheme, over the additive group ``Z_n`` with ``n = 2^bits``:

- ``Enc_k(m, i) = ((m - F_k(i) + F_k(i-1)) mod n, {i})``
- ``(c1, S1) + (c2, S2) = ((c1 + c2) mod n, S1 u S2)``
- ``Dec_k(c, S) = (c + sum_{i in S} (F_k(i) - F_k(i-1))) mod n``

The pads telescope over consecutive identifiers: decrypting the sum of rows
``a..b`` needs only ``F_k(b) - F_k(a-1)`` -- two PRF evaluations regardless
of the range length (Section 3.2).  With the ID list stored as runs (see
:mod:`repro.idlist`), decryption costs two PRF calls *per run*.

A measure uses ``n = 2^64``: native uint64 wraparound, which numpy
vectorises, with signed plaintexts in two's complement (:func:`to_signed`).
A SPLASHE indicator, whose sums count rows, uses ``n = 2^32``: uint32
ciphertexts, the low halves of the 64-bit ones, opened as unsigned counts.
Sums may be carried mod ``2^64`` either way, as ``2^32`` divides it.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from repro.crypto.prf import CHUNK, MASK64, AesNiCtrPrf
from repro.errors import CryptoError, DecryptionError
from repro.idlist import IdList

_U64 = np.uint64
_ONE = _U64(1)

def to_signed(value: int) -> int:
    """Interpret a ``Z_{2^64}`` group element as a two's-complement int64+."""
    value &= MASK64
    return value - (1 << 64) if value >= (1 << 63) else value


def from_signed(value: int) -> int:
    """Map a (possibly negative) Python int into ``Z_{2^64}``."""
    return value & MASK64


@dataclass
class AsheCiphertext:
    """An ASHE ciphertext: a group element plus the ID multiset.

    IDs are unique per row, and aggregation touches each row at most once,
    so the multiset is represented by the set-like :class:`IdList`.
    """

    value: int
    ids: IdList

    def __add__(self, other: "AsheCiphertext") -> "AsheCiphertext":
        if not isinstance(other, AsheCiphertext):
            return NotImplemented
        return AsheCiphertext(
            (self.value + other.value) & MASK64, self.ids.union(other.ids)
        )

    def __radd__(self, other):
        # Supports sum(..., start=0) in client code.
        if other == 0:
            return self
        return self.__add__(other)

    @classmethod
    def zero(cls) -> "AsheCiphertext":
        """The additive identity (empty ID list)."""
        return cls(0, IdList.empty())


class AsheScheme:
    """ASHE keyed by a PRF instance; stateless apart from the PRF key.

    The caller supplies identifiers (Seabed's encryption module assigns
    consecutive row IDs per table so that range telescoping applies).
    Identifier 0 is allowed; its pad reaches back to ``F_k(2^64 - 1)``.
    ``bits`` is the group: 64 (signed measures) or 32 (unsigned counts).
    """

    def __init__(self, prf: AesNiCtrPrf, bits: int = 64):
        if bits not in (32, 64):
            raise CryptoError(f"ASHE is over Z_2^32 or Z_2^64, not Z_2^{bits}")
        self._prf = prf
        self.bits = bits
        self.dtype = np.dtype(np.uint32 if bits == 32 else _U64)
        self._mask = (1 << bits) - 1
        self.prf_evals = 0  # running count, for the paper's AES-op statistic
        # One session may be shared by several caller threads; `+=` on the
        # counter is not atomic, so bumps go through a lock (one
        # acquisition per vectorised call, not per row).
        self._evals_lock = threading.Lock()

    def _bump(self, evals: int) -> None:
        with self._evals_lock:
            self.prf_evals += evals

    # -- scalar interface (the reference path) -------------------------------

    def encrypt(self, m: int, i: int) -> AsheCiphertext:
        """Per-row reference path: two scalar PRF evaluations, no batching.

        The ground truth the property tests and kernel microbenchmarks
        compare the batch kernel (:meth:`encrypt_column`) against; bulk
        data goes through the kernel.
        """
        pad = self._prf.eval_one(i) - self._prf.eval_one((i - 1) & MASK64)
        self._bump(2)
        return AsheCiphertext((from_signed(m) - pad) & self._mask, IdList.from_range(i, i + 1))

    def decrypt(self, ct: AsheCiphertext) -> int:
        """Decrypt to the sum of the encrypted plaintexts."""
        return self.wrap(ct.value + self._pad_sum(ct.ids))

    def wrap(self, total):
        """A padded sum (an int, or a uint64 array) read as a plaintext:
        signed int64 over ``Z_{2^64}``, an unsigned count over ``Z_{2^32}``."""
        if isinstance(total, np.ndarray):
            return (total if self.bits == 64 else total & _U64(self._mask)).view(np.int64)
        return to_signed(total) if self.bits == 64 else total & self._mask

    def add(self, a: AsheCiphertext, b: AsheCiphertext) -> AsheCiphertext:
        return a + b

    # -- vectorised column interface --------------------------------------

    def pad_range(self, start_id: int, count: int) -> np.ndarray:
        """Pad stream ``F(i) - F(i-1)`` for IDs ``start_id..start_id+count-1``.

        One contiguous PRF stream of ``count + 1`` evaluations covers every
        pad, because adjacent rows share a boundary evaluation -- this is
        the per-partition precomputation that makes whole-column ASHE
        encryption and decryption a single vectorised pass.
        """
        if count < 0:
            raise CryptoError(f"negative pad range count: {count}")
        if count == 0:
            return np.empty(0, _U64)
        stream = self._prf.eval_range(start_id - 1, count + 1)
        self._bump(count + 1)
        return stream[1:] - stream[:-1]

    def encrypt_column(self, values: np.ndarray, start_id: int = 0) -> np.ndarray:
        """Encrypt a column whose rows get IDs ``start_id .. start_id+n-1``.

        Returns the ciphertext array in :attr:`dtype`; the IDs are
        implicit (the caller records ``start_id``).
        """
        v = np.asarray(values)
        if v.ndim != 1:
            raise CryptoError("encrypt_column expects a 1-D array")
        if v.size == 0:
            return np.empty(0, self.dtype)
        plain = v.astype(np.int64, copy=False).view(_U64) if v.dtype != _U64 else v
        # c[j] = m[j] - (F(start+j) - F(start+j-1))
        return (plain - self.pad_range(start_id, v.size)).astype(self.dtype, copy=False)

    def decrypt_column(self, cipher: np.ndarray, start_id: int = 0) -> np.ndarray:
        """Invert :meth:`encrypt_column`; returns int64 plaintexts."""
        c = np.asarray(cipher, dtype=_U64)
        if c.size == 0:
            return np.empty(0, np.int64)
        return self.wrap(c + self.pad_range(start_id, c.size))

    def decrypt_rows(self, cipher: np.ndarray, ids: np.ndarray) -> np.ndarray:
        """Decrypt scattered single rows (scan results).

        Dense ID sets ride the contiguous pad stream (see
        :meth:`_pads_for`); truly scattered rows pay two PRF evaluations
        each.
        """
        c = np.asarray(cipher, dtype=_U64)
        return self.wrap(c + self._pads_for(np.asarray(ids, dtype=_U64)))

    def aggregate(
        self, cipher: np.ndarray, mask: np.ndarray | None, start_id: int
    ) -> AsheCiphertext:
        """SUM over (optionally masked) ciphertext rows, with its ID list.

        The reference sum: the server never calls this, but its per-partition
        ``core/server.aggregate_task`` column must equal ``.value`` modulo
        the column's own width (a uint32 indicator's sum is carried widened
        to uint64).  No key material is involved.
        """
        c = np.asarray(cipher)
        selected = c if mask is None else c[mask]
        total = int(np.add.reduce(selected, dtype=c.dtype)) if selected.size else 0
        if mask is None:
            return AsheCiphertext(total, IdList.from_range(start_id, start_id + c.size))
        return AsheCiphertext(total, IdList.from_mask(mask, offset=start_id))

    def decrypt_sum(self, value: int, ids: IdList) -> int:
        """Decrypt an aggregated value given its ID list."""
        return self.wrap(value + self._pad_sum(ids))

    def pad_for(self, ids: IdList) -> int:
        """The pad correction for an ID list (two PRF evals per run).

        Exposed so the decryption module can accumulate pads across many
        worker-encoded chunks before a single final reduction.
        """
        return self._pad_sum(ids)

    def pad_array(self, ids: np.ndarray) -> np.ndarray:
        """Per-ID pads ``F(i) - F(i-1)`` as a uint64 array (wrapping): the
        grouped decryptor's path for a lone piece too sparse for one
        :meth:`pad_stream` over its hull (see :meth:`_pads_for`)."""
        return self._pads_for(np.asarray(ids, dtype=_U64))

    def pad_stream(self, start_id: int, count: int,
                   prior: int | None = None) -> tuple[np.ndarray, int]:
        """:meth:`pad_range`'s pads and ``F(start_id + count - 1)``.  Passing
        ``prior = F(start_id - 1)`` -- what the stream just below returned --
        saves that evaluation: adjacent streams cost rows + 1, as one does."""
        fresh = prior is None
        stream = self._prf.eval_range(start_id - fresh, count + fresh)
        self._bump(count + fresh)
        if fresh:
            return np.diff(stream), int(stream[-1])
        pads = np.empty(count, dtype=_U64)  # np.diff(prepend=) would copy the stream
        np.subtract(stream[:1], _U64(prior), out=pads[:1])
        np.subtract(stream[1:], stream[:-1], out=pads[1:])
        return pads, int(stream[-1])

    def pad_for_multiset(self, ids: np.ndarray) -> int:
        """Pad correction for a duplicate-bearing ID array (join results:
        each occurrence of a replicated build-side row adds its own pad)."""
        arr = np.asarray(ids, dtype=_U64)
        if arr.size == 0:
            return 0
        return int(np.add.reduce(self._pads_for(arr))) & MASK64

    # -- internals ---------------------------------------------------------

    def _pads_for(self, arr: np.ndarray) -> np.ndarray:
        """Per-ID pads for an arbitrary uint64 ID array.

        Two strategies, chosen by density.  Scan results are usually
        *dense* (most of a partition survives the filter), so one
        contiguous :meth:`pad_range` stream over ``[min, max]`` costs
        ``span + 1`` PRF evaluations with every adjacent pair sharing a
        boundary -- instead of two scattered evaluations per row.  The
        stream path is taken only when ``span + 1 <= 2 * n``, so it never
        evaluates the PRF more often than the scattered path would.  The
        grouped decryptor opens a reply in blocks that are dense by the same
        rule (:meth:`pad_stream`) and comes here only with a lone piece too
        sparse for one stream, never with a hull across shards' ID spaces.
        """
        if arr.size == 0:
            return np.empty(0, _U64)
        lo = int(arr.min())
        hi = int(arr.max())
        span = hi - lo + 1
        if span + 1 <= 2 * arr.size:
            stream = self.pad_range(lo, span)
            return stream[arr - _U64(lo)]
        pads = self._prf.eval_many(arr) - self._prf.eval_many(arr - _ONE)
        self._bump(2 * arr.size)
        return pads

    def _pad_sum(self, ids: IdList) -> int:
        """``sum_{i in S} (F(i) - F(i-1))`` = ``sum_runs F(end) - F(start-1)``,
        folded :data:`~repro.crypto.prf.CHUNK` / 2 runs at a time: one PRF
        call for both ends of a slice's runs and a running sum, so no
        array of all ``2 * runs`` evaluations is ever built."""
        total, step = 0, CHUNK // 2
        for at in range(0, ids.num_runs, step):
            ends = ids.ends[at : at + step]
            evals = self._prf.eval_many(np.concatenate((ends, ids.starts[at : at + step] - _ONE)))
            total += int(np.add.reduce(evals[: ends.size] - evals[ends.size :]))
        self._bump(2 * ids.num_runs)
        return total & MASK64


def check_overflow_headroom(max_abs_value: int, rows: int) -> None:
    """Raise if summing ``rows`` values bounded by ``max_abs_value`` could
    wrap ``Z_{2^64}`` ambiguously.

    ASHE sums are exact modulo ``2^64``; results are interpreted as signed
    64-bit, so the aggregate must stay within ``+-2^63``.  The planner calls
    this when it knows column bounds.
    """
    if max_abs_value < 0 or rows < 0:
        raise CryptoError("bounds must be non-negative")
    if max_abs_value * rows >= (1 << 63):
        raise DecryptionError(
            f"aggregating {rows} values of magnitude <= {max_abs_value} "
            "may overflow the signed 64-bit plaintext space"
        )
