"""Every placement must be bit-identical to in-memory execution.

One dataset, one in-memory reference session, and the same table (same
master key, same seed, same plan) persisted under each placement: one
partition store, a fleet of process-isolated shard workers, and that
fleet behind a service.  Every query -- ASHE sums, grouped partials, ORE
extremes and medians, routed DET point lookups -- must decrypt to
exactly the reference answer, across appended and compacted
generations.  A hypothesis sweep then compares random queries against
the plaintext executor directly, with the placement as one more input.
"""

import multiprocessing
import os
import signal
import threading
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from placement import PLACEMENTS, Placement

from repro.core.schema import ColumnSpec, TableSchema
from repro.core.server import SeabedServer
from repro.core.session import SeabedSession
from repro.core.transport import LocalTransport
from repro.engine.cluster import ClusterConfig, SimulatedCluster
from repro.query import execute_plain
from repro.query.ast import Aggregate, ColumnRef, Comparison, InList, Query

REGIONS = ["ber", "del", "lag", "lim", "osl", "rio", "sfo", "tok"]
KEY = b"s" * 32
N = 360


def _batch(seed, n=N):
    rng = np.random.default_rng(seed)
    return {
        "region": rng.choice(REGIONS, n).tolist(),
        "day": rng.integers(0, 60, n),
        "amount": rng.integers(-50, 900, n),
    }


BATCHES = [_batch(3), _batch(4), _batch(5)]
ALL_DATA = {
    col: np.concatenate([np.asarray(b[col]) for b in BATCHES])
    for col in BATCHES[0]
}

SCHEMA = TableSchema("sales", [
    ColumnSpec("region", dtype="str", sensitive=True),
    ColumnSpec("day", dtype="int", sensitive=True, nbits=16),
    ColumnSpec("amount", dtype="int", sensitive=True, nbits=32),
])
SAMPLE_QUERIES = [
    "SELECT sum(amount) FROM sales WHERE region = 'rio'",
    "SELECT region, sum(amount), count(*) FROM sales GROUP BY region",
    "SELECT sum(amount), var(amount) FROM sales WHERE day > 10",
    "SELECT min(amount), max(amount), median(amount) FROM sales",
]
CHECK_QUERIES = [
    "SELECT sum(amount) FROM sales WHERE region = 'rio'",
    "SELECT sum(amount), count(*) FROM sales WHERE region IN ('ber', 'tok')",
    "SELECT region, sum(amount), count(*) FROM sales GROUP BY region",
    "SELECT sum(amount), avg(amount), var(amount) FROM sales WHERE day > 10",
    "SELECT sum(amount) FROM sales WHERE day >= 12 AND day < 40",
    "SELECT min(amount), max(amount), median(amount) FROM sales",
    "SELECT sum(amount) FROM sales WHERE region = 'osl' AND day < 30",
]


def _rows_key(row):
    return sorted(row.items(), key=lambda kv: kv[0])


def assert_same_rows(got, want):
    assert len(got) == len(want)
    for g, w in zip(
        sorted(got, key=_rows_key), sorted(want, key=_rows_key)
    ):
        assert set(g) == set(w)
        for key, value in w.items():
            if isinstance(value, float):
                assert g[key] == pytest.approx(value, rel=1e-9, abs=1e-9)
            else:
                assert g[key] == value


def make_single():
    session = SeabedSession(master_key=KEY, seed=1)
    session.create_plan(SCHEMA, SAMPLE_QUERIES)
    for batch in BATCHES:
        session.upload("sales", batch, num_partitions=8)
    return session


def make_sharded(tmp_path, replicas=2, num_shards=4):
    config = ClusterConfig(storage_dir=str(tmp_path), append_partition_rows=128)
    session = SeabedSession(
        master_key=KEY, seed=1, cluster=SimulatedCluster(config)
    )
    session.create_plan(SCHEMA, SAMPLE_QUERIES)
    session.shard_table(
        "sales", "region", num_shards=num_shards, replicas=replicas
    )
    for batch in BATCHES:
        session.upload("sales", batch)
    return session


def make_placed(kind, root):
    """``(placement, session)``: the table persisted under ``kind`` from
    its first batch, the later batches appended through the placement."""
    placement = Placement(kind, root)
    builder = placement.new_session(master_key=KEY, seed=1)
    builder.create_plan(SCHEMA, SAMPLE_QUERIES)
    session, _ = placement.persist(builder, "sales", BATCHES[0], "region")
    for batch in BATCHES[1:]:
        session.upload("sales", batch)
    return placement, session


@pytest.fixture(scope="module")
def single():
    return make_single()


@pytest.fixture(scope="module")
def deployments(tmp_path_factory):
    """One deployment per placement, built on first use."""
    built = {}

    def deployment(kind):
        if kind not in built:
            built[kind] = make_placed(kind, tmp_path_factory.mktemp(kind))
        return built[kind]

    yield deployment
    for placement, _ in built.values():
        placement.close()


@pytest.fixture(scope="module", params=PLACEMENTS)
def deployed(request, deployments):
    return deployments(request.param)[1]


@pytest.fixture(scope="module", params=PLACEMENTS[1:])
def sharded(request, deployments):
    return deployments(request.param)[1]


class TestEquivalence:
    @pytest.mark.parametrize("query", CHECK_QUERIES)
    def test_query_matches_in_memory(self, single, deployed, query):
        assert_same_rows(
            deployed.query(query).rows, single.query(query).rows
        )

    def test_scan_matches_in_memory(self, single, deployed):
        query = "SELECT region, amount FROM sales WHERE region = 'lag'"
        got = deployed.scan(query).rows
        want = single.scan(query).rows
        assert sorted(map(_rows_key, got)) == sorted(map(_rows_key, want))

    def test_rows_distributed_across_shards(self, sharded):
        table = sharded.encrypted_table("sales")
        per_shard = table.shard_rows()
        assert sum(per_shard.values()) == len(BATCHES) * N
        assert sum(1 for n in per_shard.values() if n > 0) >= 2

    def test_point_query_routes_and_skips_shards(self, sharded):
        result = sharded.query(
            "SELECT sum(amount) FROM sales WHERE region = 'rio'"
        )
        metrics = result.request_metrics[0]
        assert metrics.shards_total == 3
        assert metrics.shards_skipped > 0
        assert metrics.failovers == 0

    def test_range_query_prunes_through_rollups(self, sharded):
        result = sharded.query(
            "SELECT sum(amount) FROM sales WHERE day > 1000"
        )
        metrics = result.request_metrics[0]
        # Every shard's rolled-up ORE envelope excludes day > 1000; the
        # empty sum decrypts to None exactly as single-store does.
        assert metrics.shards_skipped == metrics.shards_total
        assert_same_rows(result.rows, [{"sum(amount)": None}])


def test_compacted_generations_equivalent(tmp_path, single):
    session = make_sharded(tmp_path)
    try:
        table = session.encrypted_table("sales")
        stats = table.compact()
        assert any(s is not None for s in stats.values())
        for query in CHECK_QUERIES:
            assert_same_rows(
                session.query(query).rows, single.query(query).rows
            )
    finally:
        session.close()


def test_reattach_equivalent(tmp_path, single):
    session = make_sharded(tmp_path)
    session.close()
    config = ClusterConfig(storage_dir=str(tmp_path))
    fresh = SeabedSession(
        master_key=KEY, seed=1, cluster=SimulatedCluster(config)
    )
    try:
        table = fresh.open_sharded("sales")
        assert table.num_rows == len(BATCHES) * N
        for query in CHECK_QUERIES:
            assert_same_rows(
                fresh.query(query).rows, single.query(query).rows
            )
    finally:
        fresh.close()


def _live(pids):
    """The pids in ``pids`` still running (neither gone nor zombie)."""
    live = []
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat") as fh:
                state = fh.read().rsplit(")", 1)[1].split()[0]
        except OSError:
            continue
        if state != "Z":
            live.append(pid)
    return live


def test_concurrent_attach_hosts_one_fleet(tmp_path):
    """Two threads attaching one committed root through one transport
    spawn one fleet, and close() leaves none of its workers behind."""
    shards = 2
    make_sharded(tmp_path, replicas=1, num_shards=shards).close()
    cluster = SimulatedCluster(ClusterConfig(storage_dir=str(tmp_path)))
    transport = LocalTransport(SeabedServer(cluster), cluster)
    before = {p.pid for p in multiprocessing.active_children()}
    barrier = threading.Barrier(2)
    errors = []

    def attach():
        try:
            barrier.wait()
            transport.attach("sales")
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=attach) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    spawned = {p.pid for p in multiprocessing.active_children()} - before
    try:
        assert not any(t.is_alive() for t in threads)
        assert not errors
        assert list(transport._fleets) == ["sales"]
        assert len(_live(spawned)) == shards
        transport.close()
        deadline = time.monotonic() + 15
        while _live(spawned) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert _live(spawned) == []
    finally:
        transport.close()
        for pid in _live(spawned):  # a leaked worker would block exit
            os.kill(pid, signal.SIGKILL)


def test_uncommitted_append_rolled_back_on_reattach(tmp_path, single):
    session = make_sharded(tmp_path)
    # A writer that dies after appending to shard stores but before the
    # sharded sidecar commit must leave no trace after re-attach.
    session._commit_state = lambda table: None
    with pytest.raises(Exception):
        session.upload("sales", _batch(9))
        raise RuntimeError("commit suppressed; simulated writer crash")
    session.close()
    config = ClusterConfig(storage_dir=str(tmp_path))
    fresh = SeabedSession(
        master_key=KEY, seed=1, cluster=SimulatedCluster(config)
    )
    try:
        table = fresh.open_sharded("sales")
        assert table.num_rows == len(BATCHES) * N
        assert sum(table.shard_rows().values()) == len(BATCHES) * N
        assert_same_rows(
            fresh.query(CHECK_QUERIES[2]).rows,
            single.query(CHECK_QUERIES[2]).rows,
        )
    finally:
        fresh.close()


# -- hypothesis sweep vs the plaintext executor -------------------------------

region_predicates = st.one_of(
    # Only seen values: an unseen string has no dictionary code, which
    # raises identically on single-store and sharded sessions.
    st.builds(Comparison, column=st.just("region"), op=st.just("="),
              value=st.sampled_from(REGIONS)),
    st.builds(lambda vs: InList("region", tuple(vs)),
              st.lists(st.sampled_from(REGIONS), min_size=1, max_size=3,
                       unique=True)),
)
day_predicates = st.builds(
    Comparison,
    column=st.just("day"),
    op=st.sampled_from(["<", "<=", ">", ">=", "=", "!="]),
    value=st.integers(min_value=-2, max_value=65),
)
aggregates = st.lists(
    st.sampled_from([
        Aggregate("sum", "amount", "s"),
        Aggregate("count", None, "c"),
        Aggregate("avg", "amount", "a"),
        Aggregate("min", "amount", "lo"),
        Aggregate("max", "amount", "hi"),
    ]),
    min_size=1, max_size=3, unique_by=lambda a: a.alias,
)


@given(aggs=aggregates,
       where=st.one_of(st.none(), region_predicates, day_predicates))
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_random_queries_match_plaintext(deployed, aggs, where):
    query = Query(select=tuple(aggs), table="sales", where=where)
    want = execute_plain({"sales": ALL_DATA}, query)
    got = deployed.query(query)
    assert_same_rows(got.rows, want)


@given(where=st.one_of(st.none(), day_predicates))
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_random_grouped_queries_match_plaintext(deployed, where):
    query = Query(
        select=(ColumnRef("region"), Aggregate("sum", "amount", "s"),
                Aggregate("count", None, "c")),
        table="sales", where=where, group_by=("region",),
    )
    want = execute_plain({"sales": ALL_DATA}, query)
    got = deployed.query(query)
    assert_same_rows(got.rows, want)
