"""Tests for partitioned tables (repro.engine.table)."""

import numpy as np
import pytest

from repro.engine.table import Partition, Table, concat_tables
from repro.errors import ExecutionError


def make_table(rows: int = 100, parts: int = 4) -> Table:
    return Table.from_columns(
        "t",
        {"a": np.arange(rows, dtype=np.int64), "b": np.ones(rows, dtype=np.int64)},
        num_partitions=parts,
    )


class TestConstruction:
    def test_partition_count_and_rows(self):
        t = make_table(100, 4)
        assert t.num_partitions == 4
        assert t.num_rows == 100

    def test_contiguous_ids(self):
        t = make_table(103, 4)  # uneven split
        next_id = 0
        for p in t.partitions:
            assert p.start_id == next_id
            next_id += p.nrows
        assert next_id == 103

    def test_more_partitions_than_rows(self):
        t = make_table(3, 10)
        assert t.num_rows == 3
        assert t.num_partitions <= 3

    def test_base_id_offset(self):
        t = Table.from_columns("t", {"a": np.arange(10)}, 2, base_id=500)
        assert t.partitions[0].start_id == 500

    def test_ragged_columns_rejected(self):
        with pytest.raises(ExecutionError, match="rows"):
            Table.from_columns("t", {"a": np.arange(5), "b": np.arange(6)}, 2)

    def test_empty_columns_rejected(self):
        with pytest.raises(ExecutionError, match="at least one column"):
            Table.from_columns("t", {}, 2)

    def test_ragged_partition_rejected(self):
        with pytest.raises(ExecutionError, match="ragged"):
            Partition({"a": np.arange(3), "b": np.arange(4)}, start_id=0)

    def test_noncontiguous_partitions_rejected(self):
        p1 = Partition({"a": np.arange(5)}, start_id=0)
        p2 = Partition({"a": np.arange(5)}, start_id=99)
        with pytest.raises(ExecutionError, match="not contiguous"):
            Table("t", [p1, p2])

    def test_partition_schema_mismatch_rejected(self):
        p1 = Partition({"a": np.arange(5)}, start_id=0)
        p2 = Partition({"b": np.arange(5)}, start_id=5)
        with pytest.raises(ExecutionError, match="mismatch"):
            Table("t", [p1, p2])


class TestAccess:
    def test_column_concat(self):
        t = make_table(50, 3)
        assert t.column("a").tolist() == list(range(50))

    def test_missing_column(self):
        t = make_table()
        with pytest.raises(ExecutionError, match="no column"):
            t.partitions[0].column("zzz")

    def test_column_names_sorted(self):
        assert make_table().column_names == ["a", "b"]

    def test_memory_accounting_object_columns(self):
        plain = Table.from_columns("t", {"a": np.arange(10, dtype=np.int64)}, 1)
        objs = np.empty(10, dtype=object)
        for i in range(10):
            objs[i] = 1 << 2048  # big Paillier-sized ints
        fat = Table.from_columns("t", {"a": objs}, 1)
        assert fat.memory_bytes() > plain.memory_bytes()


class TestConcat:
    def test_concat_appends(self):
        t1 = make_table(10, 2)
        t2 = make_table(10, 2)
        merged = concat_tables("t", [t1, t2])
        assert merged.num_rows == 20

    def test_concat_schema_mismatch(self):
        t1 = make_table(10, 2)
        t2 = Table.from_columns("x", {"z": np.arange(10)}, 2)
        with pytest.raises(ExecutionError, match="mismatch"):
            concat_tables("t", [t1, t2])

    def test_concat_empty(self):
        with pytest.raises(ExecutionError, match="no tables"):
            concat_tables("t", [])
