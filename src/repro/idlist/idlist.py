"""The canonical ID-list representation: sorted, unique, run-compressed.

Seabed uploads rows with contiguous identifiers, so the ID list attached to
an aggregation result is overwhelmingly made of long runs (Section 6.6
measures ~26k AES operations for 210M aggregated rows).  We therefore store
an ID list as parallel arrays of inclusive ``[start, end]`` runs, which is
simultaneously the in-memory working form and the input to the range
encoder.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from repro.errors import EncodingError

_U64 = np.uint64
_ONE = _U64(1)


class IdList:
    """An immutable sorted set of unique 64-bit row identifiers.

    Stored as inclusive runs.  All constructors validate (or establish)
    sortedness and uniqueness; set algebra is vectorised.
    """

    __slots__ = ("_starts", "_ends")

    def __init__(self, starts: np.ndarray, ends: np.ndarray, _validated: bool = False):
        starts = np.asarray(starts, dtype=_U64)
        ends = np.asarray(ends, dtype=_U64)
        if not _validated:
            if starts.shape != ends.shape or starts.ndim != 1:
                raise EncodingError("run arrays must be 1-D and equal length")
            if np.any(ends < starts):
                raise EncodingError("run end below run start")
            if len(starts) > 1:
                if np.any(starts[1:] <= ends[:-1]):
                    raise EncodingError("runs overlap or are unsorted")
        self._starts = starts
        self._ends = ends

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def empty(cls) -> "IdList":
        return cls(np.empty(0, _U64), np.empty(0, _U64), _validated=True)

    @classmethod
    def from_range(cls, start: int, stop: int) -> "IdList":
        """IDs in the half-open interval ``[start, stop)``."""
        if stop <= start:
            return cls.empty()
        return cls(
            np.array([start], _U64), np.array([stop - 1], _U64), _validated=True
        )

    @classmethod
    def from_ids(cls, ids: Iterable[int] | np.ndarray) -> "IdList":
        """Build from an array of IDs; must be strictly increasing."""
        arr = np.asarray(list(ids) if not isinstance(ids, np.ndarray) else ids)
        if arr.size == 0:
            return cls.empty()
        arr = arr.astype(_U64)
        if arr.size > 1 and np.any(arr[1:] <= arr[:-1]):
            raise EncodingError("IDs must be strictly increasing")
        breaks = np.flatnonzero(np.diff(arr) != _ONE)
        starts = arr[np.r_[0, breaks + 1]]
        ends = arr[np.r_[breaks, arr.size - 1]]
        return cls(starts, ends, _validated=True)

    @classmethod
    def from_mask(cls, mask: np.ndarray, offset: int = 0) -> "IdList":
        """Build from a boolean selection mask; row ``j`` gets ID ``offset+j``."""
        # With a cleared bit either side, the mask's value changes alternate
        # run start, run stop: no ID array, no diff over one.
        if not np.any(mask):
            return cls.empty()
        padded = np.zeros(len(mask) + 2, dtype=bool)
        padded[1:-1] = mask
        bounds = np.flatnonzero(padded[1:] != padded[:-1]).astype(_U64)
        bounds += _U64(offset)
        return cls(bounds[0::2], bounds[1::2] - _ONE, _validated=True)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def starts(self) -> np.ndarray:
        return self._starts

    @property
    def ends(self) -> np.ndarray:
        return self._ends

    @property
    def num_runs(self) -> int:
        return int(self._starts.size)

    def count(self) -> int:
        """Number of IDs in the list."""
        if self._starts.size == 0:
            return 0
        return int(np.sum(self._ends - self._starts + _ONE))

    def is_empty(self) -> bool:
        return self._starts.size == 0

    def runs(self) -> Iterator[tuple[int, int]]:
        """Yield inclusive ``(start, end)`` runs in order."""
        for s, e in zip(self._starts.tolist(), self._ends.tolist()):
            yield s, e

    def to_ids(self) -> np.ndarray:
        """Materialise the full ID array (uint64)."""
        if self._starts.size == 0:
            return np.empty(0, _U64)
        lengths = (self._ends - self._starts + _ONE).astype(np.int64)
        total = int(lengths.sum())
        reps = np.repeat(self._starts, lengths)
        within = np.arange(total, dtype=_U64) - np.repeat(
            np.cumsum(lengths) - lengths, lengths
        ).astype(_U64)
        return reps + within

    # ------------------------------------------------------------------
    # Set algebra
    # ------------------------------------------------------------------

    def union(self, other: "IdList") -> "IdList":
        """Merge two ID lists (duplicate IDs collapse; ASHE never makes any)."""
        return IdList.union_all((self, other))

    @staticmethod
    def union_all(parts: Iterable["IdList"]) -> "IdList":
        """Union many ID lists at once (driver-side merge of worker results).

        Parts whose hulls already ascend without overlapping -- a reply's
        pieces, partition by partition and shard by shard -- are joined
        end to end, coalescing only the seams where one part's last run
        touches the next part's first; any other input is sorted."""
        parts = [p for p in parts if not p.is_empty()]
        if not parts:
            return IdList.empty()
        if len(parts) == 1:
            return parts[0]
        firsts = [int(p._starts[0]) for p in parts[1:]]
        lasts = [int(p._ends[-1]) for p in parts[:-1]]
        starts = np.concatenate([p._starts for p in parts])
        ends = np.concatenate([p._ends for p in parts])
        if all(last < first for last, first in zip(lasts, firsts)):
            seams = np.cumsum([p.num_runs for p in parts[:-1]])
            touching = seams[[last + 1 == first for last, first in zip(lasts, firsts)]]
            if touching.size:
                starts, ends = np.delete(starts, touching), np.delete(ends, touching - 1)
            return IdList(starts, ends, _validated=True)
        order = np.argsort(starts, kind="stable")
        s, e = starts[order], ends[order]
        cummax_e = np.maximum.accumulate(e)
        new_group = np.empty(s.size, dtype=bool)
        new_group[0] = True
        new_group[1:] = s[1:] > cummax_e[:-1] + _ONE
        group_starts = np.flatnonzero(new_group)
        return IdList(s[new_group], np.maximum.reduceat(e, group_starts), _validated=True)

    def contains(self, i: int) -> bool:
        if self.is_empty():
            return False
        pos = int(np.searchsorted(self._starts, _U64(i), side="right")) - 1
        if pos < 0:
            return False
        return bool(self._ends[pos] >= _U64(i))

    # ------------------------------------------------------------------
    # Dunder plumbing
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IdList):
            return NotImplemented
        return bool(
            np.array_equal(self._starts, other._starts)
            and np.array_equal(self._ends, other._ends)
        )

    def __hash__(self) -> int:
        return hash((self._starts.tobytes(), self._ends.tobytes()))

    def __len__(self) -> int:
        return self.count()

    def __repr__(self) -> str:
        preview = ", ".join(f"{s}-{e}" for s, e in list(self.runs())[:4])
        suffix = ", ..." if self.num_runs > 4 else ""
        return f"IdList([{preview}{suffix}] runs={self.num_runs} count={self.count()})"
