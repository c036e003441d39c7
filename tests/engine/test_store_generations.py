"""Generational appends, snapshots, truncation and compaction
(repro.engine.store), including crash-safety at every labelled point."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.engine.store import (
    CRASH_POINT_ENV,
    MANIFEST_NAME,
    PARTITION_FILE,
    append_store,
    compact_store,
    disk_bytes,
    open_store,
    snapshot_generation,
    store_generations,
    store_num_rows,
    truncate_store,
    write_store,
)
from repro.engine.table import Table
from repro.errors import StorageError
from repro.idlist.codec import decode_span_groups, encode_id_spans


def build_table(rows=24, partitions=3, base_id=0, seed=7, name="mixed"):
    rng = np.random.default_rng(seed)
    objs = np.empty(rows, dtype=object)
    for i in range(rows):
        objs[i] = (1 << 100) + base_id + i
    return Table.from_columns(
        name,
        {
            "u": rng.integers(0, 2**63, rows).astype(np.uint64),
            "f": rng.random(rows),
            "big": objs,
        },
        num_partitions=partitions,
        base_id=base_id,
    )


def column_across(path, name, generation=None):
    return np.concatenate(
        [np.asarray(p.column(name))
         for p in open_store(path, generation=generation).partitions]
    )


class TestAppend:
    @pytest.mark.parametrize("partitions", [1, 3])
    def test_append_fsyncs_two_per_partition_plus_three(
        self, tmp_path, monkeypatch, partitions
    ):
        """Per partition: its file and its directory.  Then the store
        directory after the rename, and the manifest's temp file and
        directory."""
        path = write_store(build_table(rows=24, partitions=3), tmp_path / "s")
        calls = []
        real_fsync = os.fsync
        monkeypatch.setattr(os, "fsync", lambda fd: (calls.append(fd), real_fsync(fd)))
        batch = build_table(rows=12, partitions=partitions, base_id=24, seed=8)
        append_store(batch, path)
        assert len(calls) == 2 * partitions + 3

    def test_append_round_trip(self, tmp_path):
        first = build_table(rows=24, partitions=3)
        path = write_store(first, tmp_path / "s")
        second = build_table(rows=10, partitions=2, base_id=24, seed=8)
        third = build_table(rows=6, partitions=1, base_id=34, seed=9)
        assert append_store(second, path) == 2
        assert append_store(third, path) == 3

        assert store_num_rows(path) == 40
        assert [g["id"] for g in store_generations(path)] == [1, 2, 3]
        reopened = open_store(path)
        assert reopened.num_partitions == 6
        assert reopened.store_generation == 3
        for name in ("u", "f", "big"):
            want = np.concatenate([
                np.asarray(t.column(name)) for t in (first, second, third)
            ])
            assert np.array_equal(column_across(path, name), want), name

    def test_partition_ids_stay_contiguous(self, tmp_path):
        path = write_store(build_table(rows=24, partitions=3), tmp_path / "s")
        append_store(build_table(rows=10, partitions=2, base_id=24), path)
        starts = [p.start_id for p in open_store(path).partitions]
        ends = [
            p.start_id + p.nrows for p in open_store(path).partitions
        ]
        assert starts == [0, 8, 16, 24, 29]
        assert ends[:-1] == starts[1:]

    def test_append_wrong_base_id_rejected(self, tmp_path):
        path = write_store(build_table(rows=24), tmp_path / "s")
        with pytest.raises(StorageError, match="row-ID sequence"):
            append_store(build_table(rows=10, base_id=30), path)

    def test_append_schema_mismatch_rejected(self, tmp_path):
        path = write_store(build_table(rows=24), tmp_path / "s")
        bad = Table.from_columns(
            "mixed", {"u": np.arange(4, dtype=np.uint64)},
            num_partitions=1, base_id=24,
        )
        with pytest.raises(StorageError, match="do not match"):
            append_store(bad, path)

    def test_append_wrong_table_rejected(self, tmp_path):
        path = write_store(build_table(rows=24), tmp_path / "s")
        with pytest.raises(StorageError, match="holds table"):
            append_store(build_table(rows=4, base_id=24, name="other"), path)

    def test_appended_snapshot_carries_generation(self, tmp_path):
        path = write_store(build_table(rows=24, partitions=3), tmp_path / "s")
        append_store(build_table(rows=10, partitions=1, base_id=24), path)
        reopened = open_store(path)
        assert reopened.store_generation == 2
        assert reopened.store_path == os.path.abspath(path)
        assert reopened.partitions[-1].start_id == 24


class TestSnapshots:
    def test_old_generation_still_readable_after_append(self, tmp_path):
        first = build_table(rows=24, partitions=3)
        path = write_store(first, tmp_path / "s")
        snapshot = open_store(path)
        append_store(build_table(rows=10, partitions=1, base_id=24), path)

        # The held snapshot keeps its generation-1 partitions, and
        # generation 1 re-opens from the newer manifest.
        assert snapshot.num_rows == 24
        assert snapshot.store_generation == 1
        reopened = open_store(path, generation=1)
        assert reopened.num_rows == 24
        for part in (snapshot.partitions[0], reopened.partitions[0]):
            assert np.array_equal(
                np.asarray(part.column("u")),
                np.asarray(first.partitions[0].column("u")),
            )
        assert open_store(path).num_rows == 34

    def test_snapshot_generation_boundaries(self, tmp_path):
        path = write_store(build_table(rows=24), tmp_path / "s")
        append_store(build_table(rows=10, partitions=1, base_id=24), path)
        assert snapshot_generation(path, 24) == 1
        assert snapshot_generation(path, 34) == 2
        assert snapshot_generation(path, 30) is None
        assert snapshot_generation(path, 99) is None

    def test_retired_snapshot_fails_after_compaction_elsewhere(self, tmp_path):
        """Once another process compacts generation G away, re-opening
        G is a typed error, not a read of reshuffled partitions."""
        path = write_store(build_table(rows=24, partitions=3), tmp_path / "s")
        base = 24
        for i in range(3):
            append_store(
                build_table(rows=5, partitions=1, base_id=base, seed=30 + i), path
            )
            base += 5
        snapshot = open_store(path)
        assert snapshot.num_rows == 39
        gen = snapshot.store_generation
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        proc = subprocess.run(
            [sys.executable, "-c",
             f"from repro.engine.store import compact_store; "
             f"assert compact_store({path!r}) is not None"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        with pytest.raises(StorageError, match="compacted"):
            open_store(path, generation=gen)


def edit_manifest(path, edit):
    manifest_path = os.path.join(path, MANIFEST_NAME)
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    edit(manifest)
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh)


class TestSnapshotChecks:
    """Every check a snapshot open makes is a typed ``StorageError``."""

    def appended(self, tmp_path):
        path = write_store(build_table(rows=24, partitions=3), tmp_path / "s")
        append_store(build_table(rows=10, partitions=2, base_id=24), path)
        return path

    def test_generation_from_the_future_rejected(self, tmp_path):
        path = self.appended(tmp_path)
        with pytest.raises(StorageError, match="no generation 3 yet"):
            open_store(path, generation=3)

    def test_generation_below_the_first_has_no_snapshot(self, tmp_path):
        path = self.appended(tmp_path)
        with pytest.raises(StorageError, match="no snapshot at generation 0"):
            open_store(path, generation=0)

    def test_non_contiguous_spans_rejected(self, tmp_path):
        path = self.appended(tmp_path)

        def shift_appended_spans(manifest):
            gen = manifest["generations"][1]
            gen["spans_hex"] = encode_id_spans(
                np.asarray([25, 30], dtype=np.uint64),
                np.asarray([5, 5], dtype=np.uint64),
            ).hex()

        edit_manifest(path, shift_appended_spans)
        with pytest.raises(StorageError, match="not contiguous"):
            open_store(path)
        # The generation-1 snapshot never reads the bad spans.
        assert open_store(path, generation=1).num_rows == 24

    def test_span_count_mismatch_rejected(self, tmp_path):
        path = self.appended(tmp_path)
        edit_manifest(
            path, lambda manifest: manifest["generations"][1]["partitions"].pop()
        )
        with pytest.raises(StorageError, match="span count"):
            open_store(path)

    def test_damaged_appended_generation_leaves_earlier_snapshot_readable(
        self, tmp_path
    ):
        path = self.appended(tmp_path)
        target = os.path.join(path, "gen-000002", "part-00000", PARTITION_FILE)
        with open(target, "r+b") as fh:
            fh.truncate(os.path.getsize(target) - 8)
        with pytest.raises(StorageError, match="truncated"):
            open_store(path)
        assert np.array_equal(
            column_across(path, "u", generation=1),
            np.asarray(build_table(rows=24, partitions=3).column("u")),
        )

    def test_missing_file_in_appended_generation_rejected(self, tmp_path):
        path = self.appended(tmp_path)
        os.remove(os.path.join(path, "gen-000002", "part-00001", PARTITION_FILE))
        with pytest.raises(StorageError, match="missing column file"):
            open_store(path)
        assert open_store(path, generation=1).num_rows == 24


class TestHeldSnapshot:
    """A table already opened keeps reading its own generation's maps
    after the files behind them are unlinked."""

    def test_held_table_reads_after_truncate_unlinks_its_files(self, tmp_path):
        path = write_store(build_table(rows=24, partitions=3), tmp_path / "s")
        appended = build_table(rows=10, partitions=1, base_id=24, seed=8)
        append_store(appended, path)
        held = open_store(path)
        assert truncate_store(path, 24) == 1
        assert not os.path.exists(os.path.join(path, "gen-000002"))
        assert held.num_rows == 34
        assert np.array_equal(
            np.asarray(held.partitions[-1].column("u")),
            np.asarray(appended.partitions[0].column("u")),
        )
        assert open_store(path).num_rows == 24

    def test_held_table_reads_after_compaction_unlinks_its_files(self, tmp_path):
        path = write_store(build_table(rows=24, partitions=3), tmp_path / "s")
        base = 24
        for i in range(4):
            append_store(
                build_table(rows=5, partitions=1, base_id=base, seed=40 + i), path
            )
            base += 5
        held = open_store(path)
        before = column_across(path, "u")
        assert compact_store(path, target_rows=base) is not None
        assert not os.path.exists(os.path.join(path, "part-00000"))
        assert held.num_partitions == 7
        assert np.array_equal(
            np.concatenate([np.asarray(p.column("u")) for p in held.partitions]),
            before,
        )
        assert [p.start_id for p in held.partitions] == [0, 8, 16, 24, 29, 34, 39]


class TestTruncate:
    def test_truncate_drops_uncommitted_generations(self, tmp_path):
        path = write_store(build_table(rows=24, partitions=3), tmp_path / "s")
        append_store(build_table(rows=10, partitions=1, base_id=24), path)
        size_with_orphan = disk_bytes(path)
        assert truncate_store(path, 24) == 1
        assert store_num_rows(path) == 24
        assert open_store(path).num_partitions == 3
        assert not os.path.exists(os.path.join(path, "gen-000002"))
        assert disk_bytes(path) < size_with_orphan

    def test_truncate_never_reuses_generation_ids(self, tmp_path):
        path = write_store(build_table(rows=24), tmp_path / "s")
        append_store(build_table(rows=10, partitions=1, base_id=24), path)
        truncate_store(path, 24)
        # The counter is not rewound: the next append gets a fresh id, so
        # a snapshot pinned to the rolled-back generation can never alias it.
        assert append_store(build_table(rows=8, partitions=1, base_id=24), path) == 3

    def test_truncate_to_non_boundary_rejected(self, tmp_path):
        path = write_store(build_table(rows=24), tmp_path / "s")
        append_store(build_table(rows=10, partitions=1, base_id=24), path)
        with pytest.raises(StorageError, match="no generation boundary"):
            truncate_store(path, 30)

    def test_truncate_noop(self, tmp_path):
        path = write_store(build_table(rows=24), tmp_path / "s")
        assert truncate_store(path, 24) == 0


class TestCompact:
    def build_fragmented(self, tmp_path, appends=6, rows_per=5):
        first = build_table(rows=24, partitions=3)
        path = write_store(first, tmp_path / "s")
        base = 24
        for i in range(appends):
            append_store(
                build_table(rows=rows_per, partitions=1, base_id=base, seed=20 + i),
                path,
            )
            base += rows_per
        return path, base

    def test_compact_merges_small_runs(self, tmp_path):
        path, total = self.build_fragmented(tmp_path)
        before = column_across(path, "u")
        stats = compact_store(path)
        assert stats is not None
        assert stats["generations_before"] == 7
        assert stats["generations_after"] == 2
        assert stats["partitions_after"] < stats["partitions_before"]
        gens = store_generations(path)
        assert gens[0]["id"] == 1  # the full-size generation is untouched
        assert gens[1]["compacted_from"] == [2, 3, 4, 5, 6, 7]
        assert store_num_rows(path) == total
        assert np.array_equal(column_across(path, "u"), before)

    def test_compacted_source_spans_recorded(self, tmp_path):
        path, total = self.build_fragmented(tmp_path, appends=4, rows_per=5)
        compact_store(path, target_rows=8)
        manifest = json.load(open(os.path.join(path, MANIFEST_NAME)))
        merged = manifest["generations"][-1]
        groups = decode_span_groups(bytes.fromhex(merged["source_spans_hex"]))
        # One group per output partition; together they cover exactly the
        # merged generations' row-ID range, in order.
        assert len(groups) == len(merged["partitions"])
        flat = [span for group in groups for span in group]
        assert flat[0][0] == 24
        assert sum(count for _, count in flat) == total - 24
        ends = [start + count for start, count in flat]
        assert all(e == s for e, (s, _) in zip(ends[:-1], flat[1:]))

    def test_compact_noop_on_healthy_store(self, tmp_path):
        path = write_store(build_table(rows=24, partitions=3), tmp_path / "s")
        assert compact_store(path) is None

    def test_retired_snapshot_fails_loudly_after_compaction(self, tmp_path):
        path, _ = self.build_fragmented(tmp_path)
        stale = open_store(path).store_generation
        assert compact_store(path) is not None
        with pytest.raises(StorageError, match="compacted"):
            open_store(path, generation=stale)

    def test_compact_everything_when_all_generations_small(self, tmp_path):
        path, total = self.build_fragmented(tmp_path)
        before = column_across(path, "u")
        stats = compact_store(path, target_rows=total)
        assert stats["generations_after"] == 1
        reopened = open_store(path)
        assert reopened.num_partitions == 1
        assert np.array_equal(column_across(path, "u"), before)
        # generation-1 root partitions were retired and deleted
        assert not os.path.exists(os.path.join(path, "part-00000"))


CRASH_SCRIPT = """
import numpy as np
from repro.engine.store import append_store
from repro.engine.table import Table

table = Table.from_columns(
    "mixed",
    {{
        "u": np.arange(10, dtype=np.uint64),
        "f": np.ones(10),
        "big": np.array([1 << 100] * 10, dtype=object),
    }},
    num_partitions=1,
    base_id=24,
)
append_store(table, {path!r})
"""


class TestCrashSafety:
    @pytest.mark.parametrize("point", [
        "append:before-rename", "append:after-rename", "append:after-manifest",
    ])
    def test_writer_killed_mid_append(self, tmp_path, point):
        first = build_table(rows=24, partitions=3)
        path = write_store(first, tmp_path / "s")
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        env[CRASH_POINT_ENV] = point
        proc = subprocess.run(
            [sys.executable, "-c", CRASH_SCRIPT.format(path=path)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 70, proc.stderr

        if point == "append:after-manifest":
            # Published but never acknowledged: visible until rolled back.
            assert store_num_rows(path) == 34
            truncate_store(path, 24)
        # The store reopens cleanly at the previous generation...
        reopened = open_store(path)
        assert reopened.num_rows == 24
        assert np.array_equal(column_across(path, "u"), first.column("u"))
        # ...and the next append succeeds despite any staged leftovers.
        gen = append_store(
            build_table(rows=10, partitions=1, base_id=24, seed=31), path
        )
        assert gen >= 2
        assert store_num_rows(path) == 34
        assert not any(
            entry.endswith(".tmp") for entry in os.listdir(path)
        )

    @pytest.mark.parametrize("point", [
        "compact:before-rename", "compact:after-rename", "compact:after-manifest",
    ])
    def test_writer_killed_mid_compaction(self, tmp_path, point):
        path = write_store(build_table(rows=24, partitions=3), tmp_path / "s")
        base = 24
        for i in range(4):
            append_store(
                build_table(rows=5, partitions=1, base_id=base, seed=40 + i), path
            )
            base += 5
        want = column_across(path, "u")

        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        env[CRASH_POINT_ENV] = point
        proc = subprocess.run(
            [sys.executable, "-c",
             f"from repro.engine.store import compact_store; "
             f"compact_store({path!r})"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 70, proc.stderr

        # Data identical whether the crash landed before or after the
        # manifest publish (compaction never changes row content)...
        assert store_num_rows(path) == 44
        assert np.array_equal(column_across(path, "u"), want)
        # ...and the next writer finishes the job and leaves no strays:
        # staging dirs, and -- for the after-manifest crash -- the
        # retired generation directories the dead writer never deleted.
        compact_store(path)
        assert np.array_equal(column_across(path, "u"), want)
        manifest = json.load(open(os.path.join(path, MANIFEST_NAME)))
        referenced = set()
        for g in manifest["generations"]:
            if g["dir"]:
                referenced.add(g["dir"])
            for part in g["partitions"]:
                referenced.add(part["dir"].split("/", 1)[0])
        on_disk = {
            e for e in os.listdir(path) if e.startswith(("gen-", "part-"))
        }
        assert on_disk == referenced
        assert not any(e.endswith(".tmp") for e in os.listdir(path))
