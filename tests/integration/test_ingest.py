"""Incremental encrypted ingestion through the whole stack.

``SeabedSession.append_rows`` must encrypt only its batch (proved via
the OPS counters), publish it atomically (a writer killed at any labelled
crash point leaves a store that reopens cleanly at the committed state),
keep concurrent readers on consistent snapshots, and compose with
compaction.  The append / killed-writer / stale-session / compaction
cases take the table's placement (one store, a local worker fleet, a
fleet behind a service) as one more input.
"""

import os
import subprocess
import sys

import numpy as np
import pytest
from placement import PLACEMENTS

import repro
from repro.core.schema import ColumnSpec, TableSchema
from repro.core.session import SeabedSession
from repro.engine.cluster import ClusterConfig, SimulatedCluster
from repro.engine.store import (
    CRASH_POINT_ENV,
    MANIFEST_NAME,
    store_generations,
    store_num_rows,
)
from repro.errors import StorageError
from repro.ops import OPS
from repro.query import execute_plain, parse_query

COUNTRIES = ["us", "ca", "in", "uk"]
MASTER_KEY = b"ingest-tests-master-key-32-byte!"

COUNT = "SELECT count(*) FROM sales"
TOTAL = "SELECT sum(amount), count(*) FROM sales"
GROUPED = "SELECT country, sum(amount), count(*) FROM sales GROUP BY country"

SAMPLES = [
    GROUPED,
    "SELECT sum(amount) FROM sales WHERE year = 2015",
    "SELECT min(amount), max(amount) FROM sales",
]


# The sharded placements route rows by city over three shards: twelve
# cities leave a shard empty under about 2% of keys, three under 78%.
CITIES = ["nyc", "sea", "lon", "par", "tok", "syd", "rio", "mex", "cai", "del", "osl", "lim"]


def dataset(n=600, seed=5, cities=CITIES):
    rng = np.random.default_rng(seed)
    return {
        "country": rng.choice(COUNTRIES, n),
        "city": rng.choice(cities, n),
        "amount": rng.integers(0, 1000, n),
        "year": rng.integers(2014, 2017, n),
    }


def schema(shard_key=False):
    """``shard_key`` makes ``city`` sensitive, hence DET-planned: the
    column a sharded placement routes rows by."""
    return TableSchema("sales", [
        ColumnSpec("country", dtype="str", sensitive=True,
                   distinct_values=COUNTRIES),
        ColumnSpec("city", dtype="str", sensitive=shard_key),
        ColumnSpec("amount", dtype="int", sensitive=True, nbits=32),
        ColumnSpec("year", dtype="int", sensitive=False),
    ])


def build_writer(tmp_path, cluster=None, n=600):
    session = SeabedSession(
        mode="seabed", master_key=MASTER_KEY, cluster=cluster, seed=3
    )
    session.create_plan(schema(), SAMPLES)
    session.upload("sales", dataset(n=n), num_partitions=5, path=tmp_path / "sales")
    return session, session.save_table("sales")


def samples(placed):
    by_city = ["SELECT city, count(*) FROM sales GROUP BY city"]
    return SAMPLES + by_city * placed.sharded


def build_placed(placed, n=600):
    """``(writer, path)`` for the ``sales`` table under ``placed``."""
    session = placed.new_session(mode="seabed", master_key=MASTER_KEY, seed=3)
    session.create_plan(schema(shard_key=placed.sharded), samples(placed))
    return placed.persist(
        session, "sales", dataset(n=n), shard_key="city", num_partitions=5
    )


def attach(placed, path):
    return placed.attach(path, mode="seabed", master_key=MASTER_KEY)


def rows_of(session, sql, **kwargs):
    return sorted(map(str, session.query(sql, **kwargs).rows))


class TestAppendRows:
    def test_append_encrypts_only_the_batch(self, placed):
        writer, path = build_placed(placed)
        batch = dataset(n=100, seed=11)
        rows_before = writer.encrypted_table("sales").shard_rows()
        before = OPS.snapshot()
        stats = writer.append_rows("sales", batch)
        delta = OPS.delta(before)
        rows_after = writer.encrypted_table("sales").shard_rows()
        assert delta.get("encrypt_rows") == 100
        # one encryption pass per store that owns rows of the batch
        owners = sum(rows_after[s] > rows_before[s] for s in rows_after)
        assert owners >= 1
        assert delta.get("encrypt_batch") == owners
        assert stats.rows == 100
        assert stats.generation == 2
        assert writer.query(COUNT).rows[0]["count(*)"] == 700
        assert placed.stored_rows(writer, "sales") == 700

    def test_appended_rows_answer_identically_to_bulk_upload(self, placed):
        writer, _ = build_placed(placed, n=500)
        for seed in (21, 22):
            writer.append_rows("sales", dataset(n=100, seed=seed))

        bulk = SeabedSession(mode="seabed", master_key=MASTER_KEY, seed=3)
        bulk.create_plan(schema(shard_key=placed.sharded), samples(placed))
        merged = {
            k: np.concatenate([
                dataset(n=500)[k], dataset(n=100, seed=21)[k],
                dataset(n=100, seed=22)[k],
            ])
            for k in ("country", "city", "amount", "year")
        }
        bulk.upload("sales", merged, num_partitions=5)
        assert rows_of(writer, GROUPED) == rows_of(bulk, GROUPED)
        assert rows_of(writer, TOTAL) == rows_of(bulk, TOTAL)

    def test_append_grows_dictionaries(self, placed):
        """A batch holding a never-seen string value extends the column
        dictionary; the updated sidecar lets a fresh attach decode it.
        (SPLASHE dimensions keep their declared domain -- dictionary
        growth applies to dictionary-encoded columns.)"""
        writer, path = build_placed(placed)
        extended = dataset(n=50, seed=13, cities=CITIES + ["ber"])
        extended["city"][0] = "ber"
        writer.append_rows("sales", extended)
        fresh = attach(placed, path)
        got = {
            r["city"]: r["count(*)"]
            for r in fresh.query("SELECT city, count(*) FROM sales GROUP BY city").rows
        }
        assert "ber" in got
        assert sum(got.values()) == 650

    def test_append_right_after_upload_commits_a_second_generation(self):
        """The first upload created the store: an append needs no save
        step in between, and a fresh attach sees both generations."""
        session = SeabedSession(mode="seabed", master_key=MASTER_KEY, seed=3)
        session.create_plan(schema(), SAMPLES)
        session.upload("sales", dataset(), num_partitions=5)
        stats = session.append_rows("sales", dataset(n=10, seed=9))
        assert stats.generation == 2
        generations = session.encrypted_table("sales").generations
        assert [g["num_rows"] for g in generations] == [600, 10]
        fresh = SeabedSession(mode="seabed", master_key=MASTER_KEY)
        fresh.open_table(session.save_table("sales"))
        assert fresh.query(COUNT).rows[0]["count(*)"] == 610

    def test_append_before_any_upload_is_refused(self):
        session = SeabedSession(mode="seabed", master_key=MASTER_KEY, seed=3)
        session.create_plan(schema(), SAMPLES)
        with pytest.raises(StorageError, match="no store yet"):
            session.append_rows("sales", dataset(n=10, seed=9))

    def test_empty_batch_rejected(self, placed):
        writer, _ = build_placed(placed)
        with pytest.raises(StorageError, match="empty"):
            writer.append_rows("sales", {k: v[:0] for k, v in dataset().items()})

    def test_append_partition_sizing_from_config(self, tmp_path):
        cluster = SimulatedCluster(ClusterConfig(append_partition_rows=40))
        writer, path = build_writer(tmp_path, cluster=cluster)
        writer.append_rows("sales", dataset(n=100, seed=17))
        assert store_generations(path)[-1]["num_partitions"] == 3  # ceil(100/40)

    def test_upload_routes_through_append_once_store_backed(self, placed):
        """upload() on a saved/attached table must not silently diverge
        from the store: it lands durably as an append generation."""
        writer, path = build_placed(placed)
        stats = writer.upload("sales", dataset(n=100, seed=27))
        assert stats.rows == 100
        assert placed.stored_rows(writer, "sales") == 700
        if not placed.sharded:
            assert len(writer.encrypted_table("sales").generations) == 2
        fresh = attach(placed, path)
        assert fresh.query(COUNT).rows[0]["count(*)"] == 700

    def test_attach_then_append(self, placed):
        writer, path = build_placed(placed)
        if placed.kind == "sharded-local":
            writer.close()  # one fleet at a time writes a sharded root
        fresh = attach(placed, path)
        fresh.append_rows("sales", dataset(n=100, seed=19))
        assert fresh.query(COUNT).rows[0]["count(*)"] == 700
        again = attach(placed, path)
        assert again.query(COUNT).rows[0]["count(*)"] == 700


class TestConcurrentReaders:
    def test_reader_pinned_to_its_snapshot_during_append(self, tmp_path):
        """A session attached before an append keeps answering from its
        own snapshot -- wholly pre-append, never torn -- and a re-attach
        sees the append in full."""
        writer, path = build_writer(tmp_path)
        expected_before = rows_of(writer, TOTAL)

        pinned = SeabedSession(mode="seabed", master_key=MASTER_KEY)
        pinned.open_table(path)
        writer.append_rows("sales", dataset(n=100, seed=23))
        assert rows_of(pinned, TOTAL) == expected_before
        assert pinned.query(COUNT).rows[0]["count(*)"] == 600

        after = SeabedSession(mode="seabed", master_key=MASTER_KEY)
        after.open_table(path)
        assert after.query(COUNT).rows[0]["count(*)"] == 700
        assert rows_of(after, TOTAL) == rows_of(writer, TOTAL)

    def test_writer_sees_appends_immediately(self, tmp_path):
        writer, path = build_writer(tmp_path)
        total = 600
        for seed in (31, 32, 33):
            writer.append_rows("sales", dataset(n=50, seed=seed))
            total += 50
            assert writer.query(COUNT).rows[0]["count(*)"] == total

    def test_interleaved_reads_never_torn(self, tmp_path):
        """Re-attaching between appends only ever observes generation
        boundaries: each observed count is a valid committed total."""
        writer, path = build_writer(tmp_path)
        valid = {600}
        observed = set()
        total = 600
        for seed in range(41, 47):
            writer.append_rows("sales", dataset(n=25, seed=seed))
            total += 25
            valid.add(total)
            probe = SeabedSession(mode="seabed", master_key=MASTER_KEY)
            probe.open_table(path)
            observed.add(probe.query(COUNT).rows[0]["count(*)"])
        assert observed <= valid


class TestPinnedSnapshot:
    # Placements where each session holds its own snapshot of the store; a
    # service's sessions share the service's one.
    @pytest.mark.parametrize("placed", PLACEMENTS[:2], indirect=True)
    def test_pinned_session_outlives_compaction_of_its_generation(self, placed):
        """A session attached at generation G keeps answering from G, bit
        for bit, after another session appends and compacts G away: its
        tables hold G's partitions, which no later store change unmaps."""
        writer, path = build_placed(placed)
        writer.append_rows("sales", dataset(n=100, seed=61))
        pinned = attach(placed, path)
        grouped = rows_of(pinned, GROUPED)
        total = rows_of(pinned, TOTAL)

        for seed in (62, 63, 64):
            writer.append_rows("sales", dataset(n=100, seed=seed))
        assert all(placed.compactions(writer.compact_table("sales")))
        stores = [d for d, _, files in os.walk(path) if MANIFEST_NAME in files]
        assert stores and all(
            any(2 in gen["compacted_from"] for gen in store_generations(store))
            for store in stores
        )

        assert rows_of(pinned, GROUPED) == grouped
        assert rows_of(pinned, TOTAL) == total
        assert pinned.query(COUNT).rows[0]["count(*)"] == 700
        assert attach(placed, path).query(COUNT).rows[0]["count(*)"] == 1000


class TestMultiWriter:
    def test_stale_session_cannot_truncate_committed_appends(self, placed):
        """The on-disk sidecar is the commit record: a session whose
        in-memory watermark went stale (another writer appended since it
        attached) must get an error, not silently roll the committed
        generation back."""
        writer, path = build_placed(placed)
        stale = attach(placed, path)
        writer.append_rows("sales", dataset(n=100, seed=81))

        with pytest.raises(StorageError, match="another writer"):
            stale.append_rows("sales", dataset(n=50, seed=82))
        with pytest.raises(StorageError, match="another writer"):
            stale.compact_table("sales")
        # The committed append survived untouched...
        assert placed.stored_rows(writer, "sales") == 700
        # ...and a re-opened session continues the sequence cleanly.
        fresh = attach(placed, path)
        fresh.append_rows("sales", dataset(n=50, seed=82))
        assert fresh.query(COUNT).rows[0]["count(*)"] == 750


class TestCompaction:
    def test_compact_preserves_answers(self, placed):
        writer, path = build_placed(placed)
        for seed in range(51, 57):
            writer.append_rows("sales", dataset(n=20, seed=seed))
        expected = rows_of(writer, GROUPED)
        merged = placed.compactions(writer.compact_table("sales"))
        assert all(stats is not None for stats in merged)
        assert all(
            stats["partitions_after"] < stats["partitions_before"]
            for stats in merged
        )
        assert rows_of(writer, GROUPED) == expected

        fresh = attach(placed, path)
        assert rows_of(fresh, GROUPED) == expected

    def test_compact_noop_without_small_generations(self, placed):
        writer, _ = build_placed(placed)
        assert placed.compactions(writer.compact_table("sales")) == [None] * (
            3 if placed.sharded else 1
        )

    def test_compact_skips_a_never_populated_shard(self, placed):
        """One city: the ring routes every row to one shard, so the
        others never get a store -- and compaction must not need one."""
        session = placed.new_session(mode="seabed", master_key=MASTER_KEY, seed=3)
        session.create_plan(schema(shard_key=placed.sharded), samples(placed))
        writer, path = placed.persist(
            session, "sales", dataset(cities=["nyc"]), shard_key="city"
        )
        for seed in range(51, 57):
            writer.append_rows("sales", dataset(n=20, seed=seed, cities=["nyc"]))
        rows = writer.encrypted_table("sales").shard_rows().values()
        assert sorted(rows) == ([0, 0, 720] if placed.sharded else [720])
        expected = rows_of(writer, GROUPED)

        merged = placed.compactions(writer.compact_table("sales"))
        assert sorted(stats is not None for stats in merged) == sorted(
            n > 0 for n in rows
        )
        assert rows_of(writer, GROUPED) == expected
        assert rows_of(attach(placed, path), GROUPED) == expected

    def test_ingest_stream_replays_the_flagship_workload(self, tmp_path):
        """The ad-analytics table replayed as arriving traffic: first
        batch bulk-uploaded, the rest appended, compaction inline."""
        from repro.workloads import adanalytics
        from repro.workloads.persist import ingest_stream

        data = adanalytics.generate(rows=2000, seed=4)
        batches = list(adanalytics.stream_batches(data, 4))
        assert sum(len(b["hour"]) for b in batches) == 2000

        session = SeabedSession(mode="seabed", master_key=MASTER_KEY, seed=3)
        # The paper's storage budget (as in the Figure 10 benchmarks):
        # every batch must balance its enhanced-SPLASHE dummies alone, so
        # the k the planner picks needs the budget's slack.
        session.create_plan(
            data.schema, adanalytics.sample_queries(data), storage_budget=10.0
        )
        session.upload(
            "ad_analytics", batches[0], num_partitions=4, path=tmp_path / "ada"
        )
        stats = ingest_stream(
            session, "ad_analytics", batches[1:], compact_every=2
        )
        assert len(stats) == 3
        sql = "SELECT hour, sum(measure00) FROM ad_analytics GROUP BY hour"
        got = session.query(sql).rows
        want_total = int(np.asarray(data.columns["measure00"]).sum())
        assert sum(r["sum(measure00)"] for r in got) == want_total


CRASH_SCRIPT = """
import numpy as np
from repro.core.session import SeabedSession

rng = np.random.default_rng(61)
batch = {{
    "country": rng.choice({countries!r}, 100),
    "city": rng.choice(["nyc", "sea", "lon"], 100),
    "amount": rng.integers(0, 1000, 100),
    "year": rng.integers(2014, 2017, 100),
}}
session = SeabedSession(mode="seabed", master_key={key!r})
session.open_table({path!r})
session.append_rows("sales", batch)
"""


FIRST_UPLOAD_SCRIPT = """
import sys
sys.path.insert(0, {tests!r})
from test_ingest import MASTER_KEY, SAMPLES, dataset, schema
from repro.core.session import SeabedSession

session = SeabedSession(mode="seabed", master_key=MASTER_KEY, seed=3)
session.create_plan(schema(), SAMPLES)
session.upload("sales", dataset(), num_partitions=5, path={path!r})
"""

CRASH_POINTS = ["append:before-rename", "append:after-rename", "append:after-manifest"]


def crash_at(point, script):
    """Run ``script`` in a fresh interpreter that dies at ``point``."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    env[CRASH_POINT_ENV] = point
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 70, proc.stderr


class TestCrashSafety:
    @pytest.mark.parametrize("point", CRASH_POINTS)
    def test_killed_writer_rolls_back_cleanly(self, tmp_path, point):
        writer, path = build_writer(tmp_path)
        expected = rows_of(writer, TOTAL)

        crash_at(point, CRASH_SCRIPT.format(
            countries=COUNTRIES, key=MASTER_KEY, path=path,
        ))

        # A fresh session attaches at the committed state regardless of
        # how far the dead writer got (the sidecar watermark is the
        # commit record)...
        fresh = SeabedSession(mode="seabed", master_key=MASTER_KEY)
        fresh.open_table(path)
        assert fresh.query(COUNT).rows[0]["count(*)"] == 600
        assert rows_of(fresh, TOTAL) == expected

        # ...and the next append rolls back any published-but-unacked
        # generation before continuing the row-ID sequence.
        fresh.append_rows("sales", dataset(n=50, seed=63))
        assert fresh.query(COUNT).rows[0]["count(*)"] == 650
        assert store_num_rows(path) == 650
        again = SeabedSession(mode="seabed", master_key=MASTER_KEY)
        again.open_table(path)
        assert rows_of(again, TOTAL) == rows_of(fresh, TOTAL)

    @pytest.mark.parametrize("point", CRASH_POINTS)
    def test_killed_first_upload_commits_nothing(self, tmp_path, point):
        """A writer killed inside the upload that creates the store leaves
        the empty table it committed first: attaching yields no rows, and
        a retried upload succeeds and sweeps what the dead one wrote."""
        path = str(tmp_path / "sales")
        crash_at(point, FIRST_UPLOAD_SCRIPT.format(
            tests=os.path.dirname(os.path.abspath(__file__)), path=path,
        ))

        fresh = SeabedSession(mode="seabed", master_key=MASTER_KEY)
        handle = fresh.open_table(path)
        assert handle.num_rows == 0
        # A published first generation stays on disk, uncommitted and
        # unserved, until the next ingest rolls it back.
        published = 600 if point == "append:after-manifest" else 0
        assert handle.shard_rows() == {0: published}

        fresh.upload("sales", dataset(), num_partitions=3)
        assert fresh.query(COUNT).rows[0]["count(*)"] == 600
        assert store_num_rows(path) == 600
        assert sorted(os.listdir(path)) == [
            "client_state.json", MANIFEST_NAME,
            "part-00000", "part-00001", "part-00002",
        ]
        reference, _ = build_writer(tmp_path / "reference")
        again = SeabedSession(mode="seabed", master_key=MASTER_KEY)
        again.open_table(path)
        assert rows_of(again, TOTAL) == rows_of(reference, TOTAL)

    @pytest.mark.parametrize("remote", [False, True], ids=["local", "remote"])
    @pytest.mark.parametrize("point", CRASH_POINTS)
    def test_empty_created_table_answers_introspection(self, request, tmp_path, point,
                                                       remote):
        """The empty table a killed first upload leaves describes its store,
        in process or through the service: no generations and an empty
        index summary until a generation is published, and that published
        (uncommitted) one after it."""
        path = str(tmp_path / "sales")
        crash_at(point, FIRST_UPLOAD_SCRIPT.format(
            tests=os.path.dirname(os.path.abspath(__file__)), path=path,
        ))
        if remote:
            service = repro.serve(auth_required=False)
            request.addfinalizer(service.stop)
            fresh = repro.connect(service.address, mode="seabed", master_key=MASTER_KEY)
        else:
            fresh = SeabedSession(mode="seabed", master_key=MASTER_KEY)
        request.addfinalizer(fresh.close)
        handle = fresh.open_table(path)
        reference, _ = build_writer(tmp_path / "reference")
        shape = reference.encrypted_table("sales").stats()
        stats = handle.stats()
        assert set(stats) == set(shape)
        if point == "append:after-manifest":
            assert [g["num_rows"] for g in handle.generations] == [600]
            assert (stats["partitions"], stats["rows"]) == (5, 600)
        else:
            assert handle.generations == []
            assert stats == {"partitions": 0, "partitions_with_stats": 0, "rows": 0,
                             "columns": {}, "generation": 0}
        assert handle.rebuild_index() == stats
        assert handle.num_rows == 0

    @pytest.mark.parametrize("remote", [False, True], ids=["local", "remote"])
    @pytest.mark.parametrize("point", CRASH_POINTS)
    def test_empty_created_table_answers_queries(self, request, tmp_path, point, remote):
        """The empty table a killed first upload leaves is served: every
        aggregation answers as over zero rows (its reply has no row set,
        even where a published generation waits uncommitted) and a
        projection returns no row."""
        path = str(tmp_path / "sales")
        crash_at(point, FIRST_UPLOAD_SCRIPT.format(
            tests=os.path.dirname(os.path.abspath(__file__)), path=path,
        ))
        if remote:
            service = repro.serve(auth_required=False)
            request.addfinalizer(service.stop)
            fresh = repro.connect(service.address, mode="seabed", master_key=MASTER_KEY)
        else:
            fresh = SeabedSession(mode="seabed", master_key=MASTER_KEY)
        request.addfinalizer(fresh.close)
        fresh.open_table(path)
        empty = {name: np.asarray(column)[:0] for name, column in dataset().items()}
        for sql in [COUNT, TOTAL, GROUPED, *SAMPLES,
                    "SELECT year, count(*) FROM sales GROUP BY year"]:
            result = fresh.query(sql)
            assert result.rows == execute_plain({"sales": empty}, parse_query(sql)), sql
            assert result.result_bytes == 0, sql
        assert fresh.query(COUNT).rows == [{"count(*)": 0}]
        assert fresh.query("SELECT min(amount), max(amount) FROM sales").rows == [
            {"min(amount)": None, "max(amount)": None}]
        assert fresh.scan("SELECT amount, year FROM sales WHERE year = 2015").rows == []

    def test_writer_lost_between_publish_and_commit(self, placed):
        """Whatever the placement: generations published to the store(s)
        but never acknowledged by the sidecar are invisible to the next
        attach and rolled back by the next append."""
        writer, path = build_placed(placed)
        expected = rows_of(writer, TOTAL)

        def lost(table):
            raise RuntimeError("writer lost before the sidecar commit")

        doomed = attach(placed, path)
        doomed._commit_state = lost
        with pytest.raises(RuntimeError, match="writer lost"):
            doomed.append_rows("sales", dataset(n=100, seed=61))
        assert placed.stored_rows(doomed, "sales") == 700
        doomed.close()

        fresh = attach(placed, path)
        assert fresh.query(COUNT).rows[0]["count(*)"] == 600
        assert rows_of(fresh, TOTAL) == expected
        if placed.kind == "sharded-local":
            writer.close()  # one fleet at a time writes a sharded root
        fresh.append_rows("sales", dataset(n=50, seed=63))
        assert fresh.query(COUNT).rows[0]["count(*)"] == 650
        assert placed.stored_rows(fresh, "sales") == 650
        again = attach(placed, path)
        assert rows_of(again, TOTAL) == rows_of(fresh, TOTAL)
