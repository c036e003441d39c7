"""Manifest zone-map statistics: emission, backfill, rebuild."""

import json
import os

import numpy as np
import pytest

from repro.engine.store import (
    FORMAT_VERSION,
    MANIFEST_NAME,
    append_store,
    compact_store,
    open_store,
    rebuild_stats,
    store_stats,
    write_store,
)
from repro.engine.table import Table
from repro.errors import StorageError


def build_table(rows=24, partitions=3, base_id=0, seed=5, name="zm"):
    rng = np.random.default_rng(seed)
    columns = {
        "u__det": rng.integers(0, 6, rows, dtype=np.uint64),
        "year": rng.integers(2013, 2017, rows).astype(np.int64),
        "m__ashe": rng.integers(0, 2**60, rows, dtype=np.uint64),
    }
    return Table.from_columns(name, columns, num_partitions=partitions,
                              base_id=base_id)


def manifest_of(path):
    return json.load(open(os.path.join(path, MANIFEST_NAME)))


def strip_stats(path):
    """Drop every partition's zone-map statistics from the manifest."""
    manifest = manifest_of(path)
    for gen in manifest["generations"]:
        for part in gen["partitions"]:
            part.pop("stats", None)
    json.dump(manifest, open(os.path.join(path, MANIFEST_NAME), "w"))


class TestEmission:
    def test_write_store_emits_stats(self, tmp_path):
        """The manifest keeps bounds and row counts but no DET stats: a
        DET column's artifact is its partition's dictionary, joined in
        when the store is opened, and the summary still counts it."""
        path = write_store(build_table(), tmp_path / "s")
        manifest = manifest_of(path)
        assert manifest["version"] == FORMAT_VERSION == 7
        for part in manifest["generations"][0]["partitions"]:
            stats = part["stats"]
            assert stats["rows"] > 0 and stats["nulls"] == 0
            assert stats["columns"]["year"]["kind"] == "plain"
            assert "u__det" not in stats["columns"]
            assert "m__ashe" not in stats["columns"]
        table = open_store(path)
        for part, zone_map in zip(table.partitions, table.zone_maps):
            det = zone_map["columns"]["u__det"]
            assert det["kind"] == "det"
            assert det["tokens"] is part.dictionaries["u__det"]
            assert np.array_equal(det["tokens"], np.unique(part.column("u__det")))
        summary = store_stats(path)
        assert summary["columns"]["u__det"] == {"kind": "det", "partitions": 3}

    def test_open_store_attaches_zone_maps(self, tmp_path):
        path = write_store(build_table(), tmp_path / "s")
        table = open_store(path)
        assert table.zone_maps is not None
        assert len(table.zone_maps) == table.num_partitions
        assert all(z and z["rows"] for z in table.zone_maps)

    def test_append_and_compact_emit_stats(self, tmp_path):
        path = write_store(build_table(rows=24, partitions=3), tmp_path / "s")
        append_store(build_table(rows=6, partitions=1, base_id=24, seed=9), path)
        append_store(build_table(rows=6, partitions=1, base_id=30, seed=10), path)
        assert all(z for z in open_store(path).zone_maps)
        assert compact_store(path) is not None
        table = open_store(path)
        assert all(z for z in table.zone_maps)
        summary = store_stats(path)
        assert summary["partitions_with_stats"] == summary["partitions"]
        for part, zone_map in zip(table.partitions, table.zone_maps):
            assert zone_map["columns"]["u__det"]["tokens"] is part.dictionaries["u__det"]

    def test_a_det_list_in_the_manifest_never_replaces_the_dictionary(self, tmp_path):
        """A DET token list written into a manifest's stats (by hand, or
        by an older writer) is not what pruning sees: the partition's
        dictionary is, so a list that omits a held token cannot drop
        the partition holding it."""
        path = write_store(build_table(), tmp_path / "s")
        manifest = manifest_of(path)
        for part in manifest["generations"][0]["partitions"]:
            part["stats"]["columns"]["u__det"] = {"kind": "det", "tokens": [999]}
        json.dump(manifest, open(os.path.join(path, MANIFEST_NAME), "w"))
        table = open_store(path)
        for part, zone_map in zip(table.partitions, table.zone_maps):
            assert zone_map["columns"]["u__det"]["tokens"] is part.dictionaries["u__det"]
            assert 999 not in zone_map["columns"]["u__det"]["tokens"]


class TestRebuild:
    def test_rebuild_stats_is_eager_and_idempotent(self, tmp_path):
        path = write_store(build_table(), tmp_path / "s")
        strip_stats(path)
        summary = rebuild_stats(path)
        assert summary["partitions_with_stats"] == 3
        assert summary["columns"]["u__det"]["kind"] == "det"
        before = manifest_of(path)
        rebuild_stats(path)
        assert manifest_of(path)["generations"] == before["generations"]

    @pytest.mark.parametrize("version", [1, 2, 3, 4, 5, 6, FORMAT_VERSION + 1])
    def test_other_format_versions_rejected(self, tmp_path, version):
        """Only the current manifest format is read: the pre-generational
        (v1) and pre-zone-map (v2) formats never shipped, v3's one file
        per column is not read, nor is v4, whose every ASHE column was
        uint64, nor v5, whose DET columns held one 8-byte token a row, nor
        v6, whose manifest held DET token stats beside the dictionaries."""
        path = write_store(build_table(), tmp_path / "s")
        manifest = manifest_of(path)
        manifest["version"] = version
        json.dump(manifest, open(os.path.join(path, MANIFEST_NAME), "w"))
        with pytest.raises(StorageError, match="format version"):
            open_store(path)
