"""Tests for repro.engine.storage: the big-int column framing and Table 5's
memory estimate (its disk column is the partition store's ``disk_bytes``)."""

import numpy as np
import pytest

from repro.engine.storage import (
    decode_object_column,
    encode_object_column,
    memory_size,
)
from repro.engine.store import disk_bytes, write_store
from repro.engine.table import Table


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


class TestSizeAccounting:
    def test_memory_exceeds_disk_for_plain_tables(self, tmp_path):
        table = build_table()
        assert memory_size(table) > disk_bytes(write_store(table, tmp_path / "s"))

    def test_paillier_column_dominates(self, tmp_path):
        """2048-bit ciphertexts are ~32x an int64 -- the Table 5 blowup."""
        n = 200
        plain = Table.from_columns("p", {"v": np.arange(n, dtype=np.int64)}, 1)
        objs = np.empty(n, dtype=object)
        for i in range(n):
            objs[i] = 1 << 2047
        paillier = Table.from_columns("e", {"v": objs}, 1)
        assert (disk_bytes(write_store(paillier, tmp_path / "e"))
                > 25 * disk_bytes(write_store(plain, tmp_path / "p")))
