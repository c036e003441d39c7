"""Partitioned columnar tables with contiguous row identifiers.

Seabed assigns consecutive row IDs at upload time (Section 4.2) so range
encoding can telescope ID lists.  A :class:`Table` is a list of
:class:`Partition` objects; partition ``p`` holds rows with IDs
``[start_id, start_id + nrows)`` and those intervals tile the table's ID
space without gaps.

Columns are numpy arrays: ``int64`` plaintext / dictionary codes,
``uint64`` ASHE or DET ciphertexts (``uint32`` for a SPLASHE indicator's
ASHE over ``Z_2^32``), 2-D ``uint64`` ORE trit words, or ``object``
arrays of Python big-ints for Paillier.  A stored partition holds each
DET token column *dictionary-coded*: its sorted distinct tokens plus one
narrow code per row (:meth:`Partition.column` gives the tokens back).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from repro.errors import ExecutionError


def code_dtype(entries: int) -> np.dtype:
    """The narrowest of uint8 / uint16 / uint32 that holds ``entries``."""
    return np.min_scalar_type(entries)


def dictionary_code(tokens: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``tokens`` as (sorted distinct tokens, one narrow code per row):
    ``dictionary[codes]`` gives ``tokens`` back.  Keyless -- equal tokens
    get equal codes, which DET already reveals."""
    dictionary, codes = np.unique(np.asarray(tokens), return_inverse=True)
    return dictionary, codes.astype(code_dtype(dictionary.size), copy=False)


@dataclass
class Partition:
    """One horizontal slice of a table.

    A stored table's partitions hold read-only memory maps of one
    generation's column files (:mod:`repro.engine.store`); stage tasks
    receive the partition objects themselves, so a query reads exactly
    the snapshot its table was opened at.

    ``columns`` holds each column as stored.  A dictionary-coded column
    (a stored DET token column) is there as its codes, and
    ``dictionaries`` holds its sorted distinct tokens; :meth:`column`
    returns every column's values, decoding a coded one.
    """

    columns: dict[str, np.ndarray]
    start_id: int
    dictionaries: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        lengths = {name: len(arr) for name, arr in self.columns.items()}
        if len(set(lengths.values())) > 1:
            raise ExecutionError(f"ragged partition columns: {lengths}")

    @property
    def nrows(self) -> int:
        if not self.columns:
            return 0
        return len(next(iter(self.columns.values())))

    def column(self, name: str, rows: np.ndarray | None = None) -> np.ndarray:
        """The column's values (a coded column's tokens, decoded), at
        ``rows`` (a mask or positions) if given: rows are selected before
        a coded column is decoded."""
        try:
            stored = self.columns[name]
        except KeyError:
            raise ExecutionError(
                f"partition has no column {name!r}; available: {sorted(self.columns)}"
            ) from None
        if rows is not None:
            stored = stored[rows]
        dictionary = self.dictionaries.get(name)
        return stored if dictionary is None else dictionary.take(stored)

    def slice(self, lo: int, hi: int) -> "Partition":
        """Rows ``[lo, hi)``, coded columns still coded."""
        return Partition({n: a[lo:hi] for n, a in self.columns.items()},
                         self.start_id + lo, self.dictionaries)

    def memory_bytes(self) -> int:
        return sum(_array_bytes(a) for a in self.columns.values()) + sum(
            d.nbytes for d in self.dictionaries.values())


class Table:
    """A named, partitioned, columnar dataset.

    ``store_path`` names the persistent store the partitions were
    memory-mapped from (None for purely in-memory tables) and
    ``store_generation`` the store's generation counter at the moment
    the table was opened -- the snapshot its partitions map, no matter
    how far the store advances.

    ``zone_maps``, when present, is the per-partition zone-map statistics
    list (aligned with ``partitions``; entries may be None) parsed from
    the store manifest -- what the server's pruning planner consults
    before dispatching a stage (:mod:`repro.index`); ``store_keys``
    names each partition's files (:class:`~repro.engine.store.StoreReader`).
    """

    def __init__(
        self,
        name: str,
        partitions: list[Partition],
        store_path: str | None = None,
        store_generation: int | None = None,
        zone_maps: list[dict | None] | None = None,
        store_keys: list[tuple] | None = None,
    ):
        self.name = name
        self.partitions = partitions
        self.store_path = store_path
        self.store_generation = store_generation
        if zone_maps is not None and len(zone_maps) != len(partitions):
            raise ExecutionError(
                f"table {name!r}: {len(zone_maps)} zone maps for "
                f"{len(partitions)} partitions"
            )
        self.zone_maps = zone_maps
        self.store_keys = store_keys
        self._validate()

    def _validate(self) -> None:
        names = None
        next_id = None
        for p in self.partitions:
            if names is None:
                names = set(p.columns)
            elif set(p.columns) != names:
                raise ExecutionError(f"partition column mismatch in table {self.name!r}")
            if next_id is not None and p.start_id != next_id:
                raise ExecutionError(
                    f"partition IDs not contiguous in table {self.name!r}: "
                    f"expected start {next_id}, got {p.start_id}"
                )
            next_id = p.start_id + p.nrows

    @classmethod
    def from_columns(
        cls,
        name: str,
        columns: Mapping[str, np.ndarray],
        num_partitions: int = 8,
        base_id: int = 0,
    ) -> "Table":
        """Split columns into ``num_partitions`` roughly equal slices."""
        if not columns:
            raise ExecutionError("a table needs at least one column")
        nrows = len(next(iter(columns.values())))
        for cname, arr in columns.items():
            if len(arr) != nrows:
                raise ExecutionError(
                    f"column {cname!r} has {len(arr)} rows, expected {nrows}"
                )
        num_partitions = max(1, min(num_partitions, max(nrows, 1)))
        bounds = np.linspace(0, nrows, num_partitions + 1).astype(np.int64)
        partitions = []
        for i in range(num_partitions):
            lo, hi = int(bounds[i]), int(bounds[i + 1])
            partitions.append(
                Partition(
                    columns={cname: arr[lo:hi] for cname, arr in columns.items()},
                    start_id=base_id + lo,
                )
            )
        return cls(name, partitions)

    # -- introspection -------------------------------------------------------

    @property
    def num_rows(self) -> int:
        return sum(p.nrows for p in self.partitions)

    @property
    def num_partitions(self) -> int:
        return len(self.partitions)

    @property
    def column_names(self) -> list[str]:
        if not self.partitions:
            return []
        return sorted(self.partitions[0].columns)

    @property
    def base_id(self) -> int:
        return self.partitions[0].start_id if self.partitions else 0

    @property
    def end_id(self) -> int:
        """One past the last row ID: the high-water mark appends continue
        from (partition intervals tile the ID space without gaps)."""
        last = self.partitions[-1] if self.partitions else None
        return last.start_id + last.nrows if last is not None else 0

    def column(self, name: str) -> np.ndarray:
        """Concatenate one column across partitions (test/debug helper)."""
        parts = [p.column(name) for p in self.partitions]
        if not parts:
            raise ExecutionError(f"table {self.name!r} has no partitions")
        return np.concatenate(parts)

    def memory_bytes(self) -> int:
        return sum(p.memory_bytes() for p in self.partitions)

    def __repr__(self) -> str:
        return (
            f"Table({self.name!r}, rows={self.num_rows}, "
            f"partitions={self.num_partitions}, columns={self.column_names})"
        )


def _array_bytes(arr: np.ndarray) -> int:
    """In-memory footprint, including big-int payloads in object arrays."""
    if arr.dtype == object:
        # Pointer array plus the Python ints themselves.
        return arr.nbytes + sum(
            (int(x).bit_length() + 7) // 8 + 28 for x in arr.ravel().tolist()
        )
    return arr.nbytes


def concat_tables(name: str, tables: Iterable[Table]) -> Table:
    """Append tables with identical schemas (used by streaming uploads)."""
    tables = list(tables)
    if not tables:
        raise ExecutionError("no tables to concatenate")
    names = tables[0].column_names
    for t in tables[1:]:
        if t.column_names != names:
            raise ExecutionError("schema mismatch in concat_tables")
    columns = {n: np.concatenate([t.column(n) for t in tables]) for n in names}
    total_parts = sum(t.num_partitions for t in tables)
    return Table.from_columns(name, columns, num_partitions=total_parts,
                              base_id=tables[0].base_id)
