"""Grouped row sets as columns (paper Section 4.5).

A GROUP BY result is a collection of row sets, one per ``(group key,
inflation suffix)``.  Every hop holds it as one :class:`GroupedRows` -- a
map task's partial, the shuffle and each reducer's slice of it, a shard
worker's reply, the coordinator's merge, the reply the decryptor opens --
so nothing builds a Python object per (group, partition): a key and a
suffix column, one value column per aggregate alias (wrapped uint64 ASHE
sums, plain values, Python ints for Paillier) and, per ID source, the row
sets' ID lists as segments of one byte stream (:class:`IdSegments`).  A
segment is byte for byte the group-by codec's chunk of one (group,
partition), flag included, and a row set's segments follow partition
(then shard) order; sorting and merging move segments whole, so shuffle
and reply bytes are the chunks' sum, as Figure 9a counts them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.errors import EncodingError

#: Merges a column's runs: ``reduce(column, run_starts) -> merged column``.
Reducer = Callable[[np.ndarray, np.ndarray], np.ndarray]


def _offsets(counts) -> np.ndarray:
    return np.append(0, np.cumsum(counts, dtype=np.int64))


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``concatenate([arange(s, s + n) ...])`` as ones with a jump at each
    range's start, cumulated."""
    keep = lengths > 0
    starts, lengths = starts[keep], lengths[keep]
    out = np.ones(int(lengths.sum()), dtype=np.int64)
    if out.size:
        out[0] = starts[0]
        out[np.cumsum(lengths[:-1])] = starts[1:] - starts[:-1] - lengths[:-1] + 1
    return np.cumsum(out, out=out)


def _check(ok: bool, what: str) -> None:
    if not ok:
        raise EncodingError(f"malformed grouped rows: {what}")


@dataclass
class IdSegments:
    """One ID source's lists: segment ``s`` is ``stream[seg_ends[s - 1]:
    seg_ends[s]]`` (from 0), row set ``g``'s are ``group_segs[g]:group_segs[g + 1]``."""

    stream: np.ndarray  # uint8
    seg_ends: np.ndarray  # int64[S]
    group_segs: np.ndarray  # int64[G + 1]

    def validate(self, entries: int) -> None:
        ends, segs = self.seg_ends, self.group_segs
        _check(all(isinstance(a, np.ndarray) and a.ndim == 1 for a in (self.stream, ends, segs))
               and self.stream.dtype == np.uint8 and ends.dtype == segs.dtype == np.int64,
               "ID segments are not 1-D uint8 / int64 arrays")
        _check(int(ends[-1] if ends.size else 0) == self.stream.size
               and bool((np.diff(ends, prepend=0) > 0).all()), "segments do not tile the stream")
        _check(segs.size == entries + 1 and int(segs[0]) == 0 and int(segs[-1]) == ends.size
               and bool((segs[1:] >= segs[:-1]).all()), "row sets do not cover the segments")

    @staticmethod
    def concat(parts: list[IdSegments]) -> IdSegments:
        bytes_before, segs_before = _offsets([p.stream.size for p in parts]), _offsets(
            [p.seg_ends.size for p in parts])
        return IdSegments(
            np.concatenate([p.stream for p in parts]),
            np.concatenate([p.seg_ends + b for p, b in zip(parts, bytes_before)]),
            np.concatenate([[0], *(p.group_segs[1:] + s for p, s in zip(parts, segs_before))]),
        )

    def take(self, order: np.ndarray) -> IdSegments:
        """The row sets ``order`` names, segments moved whole by one fancy
        index into the stream."""
        per_set = np.diff(self.group_segs)[order]
        segs = _ranges(self.group_segs[:-1][order], per_set)
        heads = np.append(0, self.seg_ends[:-1])
        lengths = (self.seg_ends - heads)[segs]
        return IdSegments(self.stream[_ranges(heads[segs], lengths)],
                          np.cumsum(lengths), _offsets(per_set))

    def slice(self, lo: int, hi: int) -> IdSegments:
        """Row sets ``lo:hi``, sharing the stream's memory."""
        s0, s1 = int(self.group_segs[lo]), int(self.group_segs[hi])
        b0, b1 = (int(self.seg_ends[s - 1]) if s else 0 for s in (s0, s1))
        return IdSegments(self.stream[b0:b1], self.seg_ends[s0:s1] - b0,
                          self.group_segs[lo:hi + 1] - s0)


@dataclass
class GroupedRows:
    """Row sets as columns; a reply's are sorted by (key, suffix), no pair
    twice.  What a peer sends is checked (:meth:`validate`) by the wire
    codec as it decodes, and by the decryptor before it opens a reply."""

    keys: np.ndarray  # uint64[G]
    suffixes: np.ndarray  # int64[G]
    values: dict[str, np.ndarray]  # alias -> column[G]
    ids: dict[str, IdSegments]  # ID source -> its lists

    def __len__(self) -> int:
        return self.keys.size

    def validate(self, distinct: bool = False) -> None:
        """:class:`EncodingError` unless every column has one entry per row
        set and the segments tile each stream (``distinct``: and the
        (key, suffix) pairs strictly increase)."""
        keys, suffixes = self.keys, self.suffixes
        _check(isinstance(keys, np.ndarray) and keys.ndim == 1 and keys.dtype == np.uint64
               and isinstance(suffixes, np.ndarray) and suffixes.shape == keys.shape
               and suffixes.dtype == np.int64, "keys / suffixes are not uint64 / int64 [G]")
        _check(isinstance(self.values, dict) and all(
            isinstance(c, np.ndarray) and c.shape == keys.shape for c in self.values.values()
        ), "an aggregate column does not have one value per row set")
        _check(isinstance(self.ids, dict) and all(
            isinstance(s, IdSegments) for s in self.ids.values()), "ID lists are not segments")
        for segments in self.ids.values():
            segments.validate(keys.size)
        if distinct:
            rising = (keys[1:] > keys[:-1]) | (
                (keys[1:] == keys[:-1]) & (suffixes[1:] > suffixes[:-1]))
            _check(bool(rising.all()), "(key, suffix) pairs are not sorted and distinct")

    def nbytes(self) -> int:
        """Bytes on the network: 9 per row set (key, suffix), 8 per value
        (a Paillier product: its length), and the ID segments."""
        total = 9 * len(self) + sum(s.stream.size for s in self.ids.values())
        for column in self.values.values():
            total += (sum((int(v).bit_length() + 7) // 8 for v in column.tolist())
                      if column.dtype == object else 8 * column.size)
        return total

    @staticmethod
    def concat(parts: list[GroupedRows]) -> GroupedRows:
        """The parts back to back; empty ones are skipped, so their
        placeholder dtypes never promote a column."""
        parts = [p for p in parts if len(p)] or parts[:1]
        if len(parts) == 1:
            return parts[0]
        return GroupedRows(
            np.concatenate([p.keys for p in parts]), np.concatenate([p.suffixes for p in parts]),
            {a: np.concatenate([p.values[a] for p in parts]) for a in parts[0].values},
            {s: IdSegments.concat([p.ids[s] for p in parts]) for s in parts[0].ids},
        )

    def slice(self, lo: int, hi: int) -> GroupedRows:
        return GroupedRows(self.keys[lo:hi], self.suffixes[lo:hi],
                           {a: c[lo:hi] for a, c in self.values.items()},
                           {s: seg.slice(lo, hi) for s, seg in self.ids.items()})

    def sorted(self) -> GroupedRows:
        """By (key, suffix); stable, so equal pairs keep their order --
        partition order after a shuffle, shard order at the coordinator."""
        order = np.lexsort((self.suffixes, self.keys))
        return GroupedRows(self.keys[order], self.suffixes[order],
                           {a: c[order] for a, c in self.values.items()},
                           {s: seg.take(order) for s, seg in self.ids.items()})

    def run_starts(self, by_suffix: bool = True) -> np.ndarray:
        """Where each run of equal key (and suffix) starts."""
        change = self.keys[1:] != self.keys[:-1]
        if by_suffix:
            change |= self.suffixes[1:] != self.suffixes[:-1]
        return np.flatnonzero(np.concatenate(([len(self) > 0], change)))

    def merge(self, reducers: dict[str, Reducer], by_suffix: bool = True) -> GroupedRows:
        """One row set per run of equal key (and suffix): each column by
        its alias's reducer, the segment lists joined in place."""
        starts = self.run_starts(by_suffix)
        if starts.size == len(self):
            return self
        bounds = np.append(starts, len(self))
        return GroupedRows(
            self.keys[starts], self.suffixes[starts],
            {a: reducers[a](c, starts) for a, c in self.values.items()},
            {s: IdSegments(seg.stream, seg.seg_ends, seg.group_segs[bounds])
             for s, seg in self.ids.items()},
        )
