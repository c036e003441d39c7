"""Tests for the persistent partition store (repro.engine.store)."""

import json
import os
import shutil

import numpy as np
import pytest

from repro.engine.store import (
    FORMAT_VERSION,
    MANIFEST_NAME,
    PARTITION_FILE,
    StoreReader,
    disk_bytes,
    open_store,
    remove_store,
    write_store,
)
from repro.engine.table import Partition, Table
from repro.errors import StorageError


def build_table(rows: int = 24, partitions: int = 3) -> Table:
    rng = np.random.default_rng(7)
    objs = np.empty(rows, dtype=object)
    for i in range(rows):
        objs[i] = (1 << 100) + i if i % 2 == 0 else -(1 << 90) - i
    return Table.from_columns(
        "mixed",
        {
            "i": rng.integers(-100, 100, rows).astype(np.int64),
            "u": rng.integers(0, 2**63, rows).astype(np.uint64),
            "f": rng.random(rows),
            "big": objs,
            "ore": rng.integers(0, 2**63, (rows, 2)).astype(np.uint64),
        },
        num_partitions=partitions,
        base_id=100,
    )


def assert_tables_equal(a: Table, b: Table) -> None:
    assert a.name == b.name
    assert a.num_partitions == b.num_partitions
    for pa, pb in zip(a.partitions, b.partitions):
        assert pa.start_id == pb.start_id
        assert sorted(pa.columns) == sorted(pb.columns)
        for name in pa.columns:
            assert np.array_equal(pa.column(name), np.asarray(pb.column(name))), name


class TestRoundTrip:
    def test_bit_for_bit(self, tmp_path):
        table = build_table()
        path = write_store(table, tmp_path / "mixed")
        reopened = open_store(path)
        assert_tables_equal(table, reopened)
        assert reopened.store_path == os.path.abspath(path)

    def test_numeric_columns_are_readonly_memmaps(self, tmp_path):
        path = write_store(build_table(), tmp_path / "mixed")
        reopened = open_store(path)
        col = reopened.partitions[0].column("u")
        assert isinstance(col, np.memmap)
        with pytest.raises(ValueError):
            col[0] = 1  # mode="r" maps reject writes

    def test_object_column_loads_eagerly(self, tmp_path):
        path = write_store(build_table(), tmp_path / "mixed")
        big = open_store(path).partitions[0].column("big")
        assert big.dtype == object
        assert isinstance(big[0], int) and big[0] >> 99

    def test_column_meta_recorded(self, tmp_path):
        path = write_store(
            build_table(), tmp_path / "mixed", column_meta={"u": "ashe"}
        )
        manifest = json.load(open(os.path.join(path, MANIFEST_NAME)))
        assert manifest["columns"]["u"]["enc"] == "ashe"
        assert "enc" not in manifest["columns"]["i"]

    def test_disk_bytes_accounts_files(self, tmp_path):
        path = write_store(build_table(), tmp_path / "mixed")
        raw = sum(
            os.path.getsize(os.path.join(dirpath, f))
            for dirpath, _, files in os.walk(path)
            for f in files
        )
        assert disk_bytes(path) == raw > 0


class TestPartitionFile:
    """A partition is one file, ``columns.bin``: columns in sorted-name
    order, each at an 8-byte-aligned offset derived from the manifest's
    per-column byte counts."""

    def test_every_dtype_round_trips_through_one_file(self, tmp_path):
        rows = 13  # odd: the bool column's 13 bytes force padding after it
        rng = np.random.default_rng(3)
        objs = np.empty(rows, dtype=object)
        objs[:] = [(1 << 200) + i for i in range(rows)]
        columns = {
            "a_flag": rng.random(rows) < 0.5,
            "b_i64": rng.integers(-(2**62), 2**62, rows).astype(np.int64),
            "c_u64": rng.integers(0, 2**63, rows).astype(np.uint64),
            "d_ore": rng.integers(0, 2**63, (rows, 3)).astype(np.uint64),
            "e_paillier": objs,
        }
        path = write_store(
            Table.from_columns("all", columns, num_partitions=2), tmp_path / "s"
        )
        for part_dir in ("part-00000", "part-00001"):
            assert os.listdir(os.path.join(path, part_dir)) == [PARTITION_FILE]
        reopened = open_store(path)
        for name, expected in columns.items():
            got = np.concatenate([p.column(name) for p in reopened.partitions])
            assert got.dtype == expected.dtype and np.array_equal(got, expected)
            if name == "e_paillier":
                continue
            for part in reopened.partitions:
                col = part.column(name)
                assert isinstance(col, np.memmap), name
                assert col.flags.aligned and not col.flags.writeable, name

    def test_uint32_column_costs_four_bytes_a_cell(self, tmp_path):
        rows = 13  # partitions of 6 and 7 rows: 24 bytes need no pad, 28 pad to 32
        columns = {
            "a__ind": np.arange(rows, dtype=np.uint32) * np.uint32(2**28),
            "b__ashe": np.arange(rows, dtype=np.uint64),
        }
        path = write_store(Table.from_columns("t", columns, 2), tmp_path / "s")
        manifest = json.load(open(os.path.join(path, MANIFEST_NAME)))
        assert manifest["columns"]["a__ind"]["dtype"] == "<u4"
        for part, size in zip(manifest["generations"][0]["partitions"], (6, 7)):
            assert part["files"] == {"a__ind": 4 * size, "b__ashe": 8 * size}
            file = os.path.join(path, part["dir"], PARTITION_FILE)
            assert os.path.getsize(file) == -(-4 * size // 8) * 8 + 8 * size
        reopened = open_store(path)
        for name, expected in columns.items():
            got = np.concatenate([p.column(name) for p in reopened.partitions])
            assert got.dtype == expected.dtype and np.array_equal(got, expected)
            assert all(p.column(name).flags.aligned for p in reopened.partitions)

    def test_zero_row_partition_writes_an_empty_file(self, tmp_path):
        table = Table("t", [Partition(
            columns={
                "u": np.empty(0, dtype=np.uint64),
                "ore": np.empty((0, 2), dtype=np.uint64),
                "big": np.empty(0, dtype=object),
            },
            start_id=0,
        )])
        path = write_store(table, tmp_path / "s")
        assert os.path.getsize(os.path.join(path, "part-00000", PARTITION_FILE)) == 0
        part = open_store(path).partitions[0]
        assert part.column("ore").shape == (0, 2)
        assert not isinstance(part.column("u"), np.memmap)

    @pytest.mark.parametrize(
        "shift, error",
        [({"u": 8}, "manifest says"), ({"i": -8, "u": 8}, "shape needs")],
    )
    def test_byte_counts_must_describe_the_file(self, tmp_path, shift, error):
        """A count that no longer sums to the file size is caught by the
        size check; one moved between columns, by the shape check."""
        path = write_store(build_table(), tmp_path / "s")
        manifest_path = os.path.join(path, MANIFEST_NAME)
        manifest = json.load(open(manifest_path))
        files = manifest["generations"][0]["partitions"][1]["files"]
        for name, delta in shift.items():
            files[name] += delta
        json.dump(manifest, open(manifest_path, "w"))
        with pytest.raises(StorageError, match=error):
            open_store(path)

    def test_manifest_column_set_must_match_the_store(self, tmp_path):
        path = write_store(build_table(), tmp_path / "s")
        manifest_path = os.path.join(path, MANIFEST_NAME)
        manifest = json.load(open(manifest_path))
        del manifest["generations"][0]["partitions"][0]["files"]["f"]
        json.dump(manifest, open(manifest_path, "w"))
        with pytest.raises(StorageError, match="holds columns"):
            open_store(path)


class TestExistingStore:
    def test_existing_store_refused(self, tmp_path):
        table = build_table()
        write_store(table, tmp_path / "s")
        with pytest.raises(StorageError, match="already exists"):
            write_store(table, tmp_path / "s")

    def test_removed_store_is_rewritten_beside_other_files(self, tmp_path):
        path = write_store(build_table(rows=24, partitions=4), tmp_path / "s")
        with open(os.path.join(path, "client_state.json"), "w") as fh:
            fh.write("{}")
        remove_store(path)
        assert os.listdir(path) == ["client_state.json"]
        table = build_table(rows=12, partitions=2)
        write_store(table, path)
        reopened = open_store(path)
        assert reopened.num_partitions == 2
        assert_tables_equal(table, reopened)
        assert not os.path.exists(os.path.join(path, "part-00002"))


class TestCorruption:
    def test_version_mismatch(self, tmp_path):
        path = write_store(build_table(), tmp_path / "s")
        manifest_path = os.path.join(path, MANIFEST_NAME)
        manifest = json.load(open(manifest_path))
        manifest["version"] = FORMAT_VERSION + 1
        json.dump(manifest, open(manifest_path, "w"))
        with pytest.raises(StorageError, match="format version"):
            open_store(path)

    def test_truncated_column_file(self, tmp_path):
        path = write_store(build_table(), tmp_path / "s")
        target = os.path.join(path, "part-00001", PARTITION_FILE)
        with open(target, "r+b") as fh:
            fh.truncate(os.path.getsize(target) - 8)
        with pytest.raises(StorageError, match="truncated|bytes"):
            open_store(path)

    def test_missing_column_file(self, tmp_path):
        path = write_store(build_table(), tmp_path / "s")
        os.remove(os.path.join(path, "part-00000", PARTITION_FILE))
        with pytest.raises(StorageError, match="missing column file"):
            open_store(path)

    def test_missing_manifest(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(StorageError, match="no partition store"):
            open_store(tmp_path / "empty")

    def test_corrupt_manifest(self, tmp_path):
        path = write_store(build_table(), tmp_path / "s")
        with open(os.path.join(path, MANIFEST_NAME), "w") as fh:
            fh.write("{ not json")
        with pytest.raises(StorageError, match="corrupt"):
            open_store(path)

    def test_wrong_format_marker(self, tmp_path):
        path = write_store(build_table(), tmp_path / "s")
        manifest_path = os.path.join(path, MANIFEST_NAME)
        manifest = json.load(open(manifest_path))
        manifest["format"] = "something-else"
        json.dump(manifest, open(manifest_path, "w"))
        with pytest.raises(StorageError, match="not a seabed-store"):
            open_store(path)


class TestReader:
    def test_out_of_range_partition(self, tmp_path):
        path = write_store(build_table(partitions=3), tmp_path / "s")
        with pytest.raises(StorageError, match="no partition"):
            StoreReader(path).partition(9)

    def test_open_store_sees_external_rewrite(self, tmp_path):
        """A store rewritten by *another* process (simulated here by
        moving a new manifest and partitions in under the path) is what
        the next open_store reads; a table opened before the rewrite
        keeps reading its own maps."""
        table = build_table(rows=24, partitions=4)
        path = write_store(table, tmp_path / "s")
        stale = open_store(path)
        assert stale.num_partitions == 4
        # Rewrite out-of-band: stage elsewhere, then move the new
        # manifest + partitions in.
        other = write_store(build_table(rows=12, partitions=2), tmp_path / "o")
        for entry in os.listdir(path):
            target = os.path.join(path, entry)
            shutil.rmtree(target) if os.path.isdir(target) else os.remove(target)
        for entry in os.listdir(other):
            os.rename(os.path.join(other, entry), os.path.join(path, entry))
        assert open_store(path).num_partitions == 2
        assert_tables_equal(table, stale)


    def test_partition_mapped_once_until_released(self, tmp_path):
        path = write_store(build_table(partitions=3), tmp_path / "s")
        reader = StoreReader(path)
        first = reader.partition(1)
        assert reader.partition(1) is first
        reader.release(1)
        again = reader.partition(1)
        assert again is not first
        assert np.array_equal(np.asarray(again.column("u")), np.asarray(first.column("u")))

    def test_every_open_maps_afresh(self, tmp_path):
        path = write_store(build_table(partitions=3), tmp_path / "s")
        a, b = open_store(path), open_store(path)
        for pa, pb in zip(a.partitions, b.partitions):
            assert pa is not pb
            assert pa.column("u") is not pb.column("u")
        assert_tables_equal(a, b)

    def test_manifest_shape_disagreeing_with_file_rejected(self, tmp_path):
        path = write_store(build_table(), tmp_path / "s")
        manifest_path = os.path.join(path, MANIFEST_NAME)
        manifest = json.load(open(manifest_path))
        manifest["columns"]["u"]["width"] = 2
        json.dump(manifest, open(manifest_path, "w"))
        with pytest.raises(StorageError, match="shape needs"):
            open_store(path)


class TestValidation:
    def test_unsupported_dtype_rejected(self, tmp_path):
        table = Table.from_columns(
            "bad", {"x": np.arange(4, dtype=np.int32)}, num_partitions=1
        )
        with pytest.raises(StorageError, match="unsupported dtype"):
            write_store(table, tmp_path / "bad")

    def test_empty_table_rejected(self, tmp_path):
        with pytest.raises(StorageError, match="no partitions"):
            write_store(Table("empty", []), tmp_path / "empty")
