"""Row sets as columns (paper Section 4.5).

Every aggregation reply is a collection of row sets: one per group key
under GROUP BY, and otherwise the one row set of the whole selection (or
none, when no row is selected).  Every hop holds it as one
:class:`GroupedRows` -- a map task's partial, each reducer's slice of the
shuffle, a shard worker's reply, the coordinator's merge, the reply the
decryptor opens -- so nothing builds a Python object per (group,
partition): a key column, one value column per aggregate alias (wrapped
uint64 ASHE sums, plain values, Python ints for Paillier) and, per ID
source, the selected IDs as :class:`IdPiece` s.  A piece is one
partition's selection encoded once (a bitmap, run-coded or multiset
chunk of :mod:`repro.idlist.codec`) plus a code column naming the row set
of each of those IDs, in the order the chunk decodes to.

Without GROUP BY the key and the codes are *implied* (``None``): every
ID belongs to the one row set, so neither ships.  The aggregates with no
columnar merge -- ORE extremes, which carry the winning row's ID and ORE
words, and median gathers -- ride beside the columns in ``side``, only
there.

A code always indexes the row sets of the :class:`GroupedRows` that
carries it.  Whatever renumbers row sets -- the shuffle's sort and
reduce, the coordinator's merge -- remaps every code column with one
gather; chunks are never re-encoded.  Codes are the narrowest of uint8 /
uint16 / uint32 that holds the row-set count (:func:`code_dtype`).  ID
pieces skip the reducers: only the row-set columns cross the shuffle, and
the pieces go from map task to driver.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.engine.table import code_dtype
from repro.errors import EncodingError
from repro.idlist.codec import ROW_SET_FLAGS

#: Merges a column's runs: ``reduce(column, run_starts) -> merged column``.
Reducer = Callable[[np.ndarray, np.ndarray], np.ndarray]


def _check(ok: bool, what: str) -> None:
    if not ok:
        raise EncodingError(f"malformed grouped rows: {what}")


def _run_index(starts: np.ndarray, n: int) -> np.ndarray:
    """For each of ``n`` sorted entries, the run (from ``starts``) it is in."""
    step = np.zeros(n, dtype=code_dtype(starts.size))
    step[starts[1:]] = 1
    return np.cumsum(step, dtype=step.dtype)


@dataclass
class IdPiece:
    """One partition's selected IDs under one ID source: a chunk and, per
    ID in the order the chunk decodes to, the index of its row set
    (``None``: implied, the reply's one row set)."""

    chunk: bytes
    codes: np.ndarray | None  # code_dtype(row sets)[IDs in the chunk]

    def validate(self, entries: int) -> None:
        codes = self.codes
        _check(isinstance(self.chunk, bytes) and len(self.chunk) > 0
               and self.chunk[0] in ROW_SET_FLAGS,
               "an ID chunk carries an unknown flag")
        if codes is None:
            _check(entries == 1, "implied codes in a reply without exactly one row set")
            return
        _check(isinstance(codes, np.ndarray) and codes.ndim == 1 and codes.size > 0
               and codes.dtype == code_dtype(entries),
               "a code column is not 1-D of the row-set count's width")
        _check(int(codes.max()) < entries, "a code names no row set")

    def renumbered(self, index: np.ndarray) -> IdPiece:
        return self if self.codes is None else IdPiece(self.chunk, index[self.codes])


@dataclass
class GroupedRows:
    """Row sets as columns; a reply's are sorted by key, no key twice, and
    with implied keys (``None``) at most one.  What a peer sends is
    checked (:meth:`validate`) by the wire codec as it decodes, and by the
    decryptor before it opens a reply."""

    keys: np.ndarray | None  # uint64[G]; None: no GROUP BY, one implied key
    values: dict[str, np.ndarray]  # alias -> column[G]
    ids: dict[str, list[IdPiece]]  # ID source -> its pieces, in partition order
    side: dict[str, list[tuple]] = field(default_factory=dict)  # alias -> pieces

    def __len__(self) -> int:
        if self.keys is not None:
            return self.keys.size
        return len(next(iter(self.values.values()))) if self.values else 0

    def validate(self, distinct: bool = False) -> None:
        """:class:`EncodingError` unless every column has one entry per row
        set and every code names one (``distinct``: and the keys strictly
        increase; implied keys: there is at most one row set)."""
        keys = self.keys
        _check(keys is None or isinstance(keys, np.ndarray) and keys.ndim == 1
               and keys.dtype == np.uint64, "keys are not uint64[G]")
        _check(isinstance(self.values, dict) and all(
            isinstance(c, np.ndarray) and c.ndim == 1 for c in self.values.values()
        ) and len({c.size for c in self.values.values()} | (
            set() if keys is None else {keys.size})) <= 1,
            "an aggregate column does not have one value per row set")
        _check(keys is not None or len(self) <= 1,
               "implied keys on more than one row set")
        _check(isinstance(self.ids, dict) and all(
            isinstance(pieces, list) and all(isinstance(p, IdPiece) for p in pieces)
            for pieces in self.ids.values()), "ID lists are not pieces")
        entries = len(self)
        for pieces in self.ids.values():
            for piece in pieces:
                piece.validate(entries)
        _check(isinstance(self.side, dict) and all(
            isinstance(pieces, list) and all(isinstance(p, tuple) and p for p in pieces)
            for pieces in self.side.values()), "side pieces are not tuples")
        if distinct and keys is not None:
            _check(bool((keys[1:] > keys[:-1]).all()), "keys are not sorted and distinct")

    def nbytes(self, ids: bool = True) -> int:
        """Bytes on the network: 8 per row set's key (none implied), 8 per
        value (a Paillier product: its length) and (``ids``) the ID
        pieces; side pieces are the server's to count."""
        total = 0 if self.keys is None else 8 * len(self)
        for column in self.values.values():
            total += (sum((int(v).bit_length() + 7) // 8 for v in column.tolist())
                      if column.dtype == object else 8 * column.size)
        if ids:
            total += sum(len(p.chunk) + (0 if p.codes is None else p.codes.nbytes)
                         for pieces in self.ids.values() for p in pieces)
        return total

    @staticmethod
    def concat(parts: list[GroupedRows]) -> GroupedRows:
        """The parts' row-set columns back to back, with no ID pieces (a
        code indexes its own part's row sets); empty parts are skipped, so
        their placeholder dtypes never promote a column."""
        parts = [p for p in parts if len(p)] or parts[:1]
        if len(parts) == 1:
            return parts[0].slice(0, len(parts[0]))
        return GroupedRows(
            None if parts[0].keys is None else np.concatenate([p.keys for p in parts]),
            {a: np.concatenate([p.values[a] for p in parts]) for a in parts[0].values}, {},
        )

    @staticmethod
    def shuffle(parts: list[GroupedRows]) -> tuple[GroupedRows, dict[str, list[IdPiece]]]:
        """The parts' row-set columns sorted by key -- stable, so a row
        set's entries keep part order -- and every part's ID pieces with
        their codes renumbered, by one gather each, to the runs of equal
        key: the row sets :meth:`merge` makes of them.  Implied keys are
        one run already, and implied codes stay implied."""
        parts = [p for p in parts if len(p)] or parts[:1]
        rows = GroupedRows.concat(parts)
        if rows.keys is None:  # one run: every code is already 0 or implied
            return rows, {source: [p for part in parts for p in part.ids[source]]
                          for source in parts[0].ids}
        order = np.argsort(rows.keys, kind="stable")
        rows = GroupedRows(rows.keys[order], {a: c[order] for a, c in rows.values.items()}, {})
        run = _run_index(rows.run_starts(), len(rows))
        index = np.empty_like(run)
        index[order] = run
        ids: dict[str, list[IdPiece]] = {source: [] for source in parts[0].ids}
        lo = 0
        for part in parts:
            own = index[lo:lo + len(part)]
            lo += len(part)
            for source, pieces in part.ids.items():
                ids[source] += [piece.renumbered(own) for piece in pieces]
        return rows, ids

    def slice(self, lo: int, hi: int) -> GroupedRows:
        """Row sets ``lo:hi``' columns, with no ID pieces."""
        return GroupedRows(None if self.keys is None else self.keys[lo:hi],
                           {a: c[lo:hi] for a, c in self.values.items()}, {})

    def run_starts(self) -> np.ndarray:
        """Where each run of equal key starts (implied keys: one run)."""
        if self.keys is None:
            return np.zeros(min(len(self), 1), dtype=np.intp)
        change = self.keys[1:] != self.keys[:-1]
        return np.flatnonzero(np.concatenate(([len(self) > 0], change)))

    def merge(self, reducers: dict[str, Reducer]) -> GroupedRows:
        """One row set per run of equal key: each column by its alias's
        reducer, each code column by one gather."""
        starts = self.run_starts()
        if starts.size == len(self):
            return self
        run = _run_index(starts, len(self))
        return GroupedRows(
            None if self.keys is None else self.keys[starts],
            {a: reducers[a](c, starts) for a, c in self.values.items()},
            {s: [piece.renumbered(run) for piece in pieces] for s, pieces in self.ids.items()},
        )
