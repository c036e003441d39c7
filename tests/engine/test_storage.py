"""Tests for table serialisation (repro.engine.storage)."""

import numpy as np
import pytest

from repro.engine.storage import (
    decode_object_column,
    disk_size,
    encode_object_column,
    memory_size,
    serialize_table,
)
from repro.engine.table import Table
from repro.errors import ExecutionError


def build_table() -> Table:
    rng = np.random.default_rng(0)
    objs = np.empty(20, dtype=object)
    for i in range(20):
        objs[i] = (1 << 100) + i if i % 2 == 0 else -(1 << 90) - i
    return Table.from_columns(
        "mixed",
        {
            "i": rng.integers(-100, 100, 20).astype(np.int64),
            "u": rng.integers(0, 2**63, 20).astype(np.uint64),
            "f": rng.random(20),
            "big": objs,
            "ore": rng.integers(0, 2**63, (20, 2)).astype(np.uint64),
        },
        num_partitions=3,
    )


COLUMNS = {
    "int64": lambda n: np.arange(n, dtype=np.int64) - 7,
    "uint64": lambda n: np.arange(n, dtype=np.uint64) * np.uint64(2**40),
    "float64": lambda n: np.linspace(0.0, 1.0, n),
    "bool": lambda n: np.arange(n) % 3 == 0,
    "ore-2d": lambda n: np.arange(2 * n, dtype=np.uint64).reshape(n, 2),
}


class TestFixedWidthLayout:
    @pytest.mark.parametrize("kind", sorted(COLUMNS))
    def test_each_row_costs_its_itemsize(self, kind):
        def size(n):
            return disk_size(Table.from_columns("t", {"c": COLUMNS[kind](n)}, 1))

        arr = COLUMNS[kind](1)
        assert size(11) - size(10) == arr.itemsize * arr[0].size
        assert size(10) == size(0) + 10 * (size(1) - size(0))

    @pytest.mark.parametrize("kind", sorted(COLUMNS))
    def test_compression_never_grows_a_table(self, kind):
        rng = np.random.default_rng(1)
        col = COLUMNS[kind](500)
        noisy = rng.permutation(col.ravel()).reshape(col.shape)
        for arr in (col, noisy):
            table = Table.from_columns("t", {"c": arr}, 2)
            assert disk_size(table, compress=True) <= disk_size(table)


class TestObjectColumnCodec:
    """The big-int framing that the store and the wire codec share."""

    @pytest.mark.parametrize("values", [
        [0],
        [1, -1],
        [2**2047, 2**2047 - 1],
        [-(2**100), 2**100, 0, 255, 256],
        [(1 << 64) + i for i in range(50)],
        [],
    ], ids=["zero", "unit", "paillier-width", "signs", "run", "empty"])
    def test_round_trip(self, values):
        arr = np.empty(len(values), dtype=object)
        arr[:] = values
        back = decode_object_column(encode_object_column(arr), len(values))
        assert back.dtype == object
        assert back.tolist() == values


class TestValidation:
    def test_unsupported_dtype(self):
        table = Table.from_columns("t", {"s": np.array(["a", "b"])}, 1)
        with pytest.raises(ExecutionError, match="unsupported column dtype"):
            serialize_table(table)


class TestSizeAccounting:
    def test_disk_size_is_the_serialized_length(self):
        table = build_table()
        flags = Table.from_columns("flags", {"b": np.array([True, False, True])}, 1)
        for t in (table, flags):
            for compress in (False, True):
                assert disk_size(t, compress) == len(serialize_table(t, compress))

    def test_compression_shrinks_repetitive_data(self):
        table = Table.from_columns("t", {"z": np.zeros(10_000, dtype=np.int64)}, 2)
        assert disk_size(table, compress=True) < disk_size(table) / 50

    def test_memory_exceeds_disk_for_plain_tables(self):
        table = build_table()
        assert memory_size(table) > disk_size(table)

    def test_paillier_column_dominates(self):
        """2048-bit ciphertexts are ~32x an int64 -- the Table 5 blowup."""
        n = 200
        plain = Table.from_columns("p", {"v": np.arange(n, dtype=np.int64)}, 1)
        objs = np.empty(n, dtype=object)
        for i in range(n):
            objs[i] = 1 << 2047
        paillier = Table.from_columns("e", {"v": objs}, 1)
        assert disk_size(paillier) > 25 * disk_size(plain)
