"""Pruned execution is bit-identical to a full scan -- always.

The zone-map index may only ever *skip work*, never change an answer:
across random predicates (hypothesis) and across append/compact store
generations.  Every test here runs the same query with pruning on and
off and requires exactly equal rows.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.schema import ColumnSpec, TableSchema
from repro.core.session import SeabedSession
from repro.query.ast import (
    Aggregate,
    And,
    Between,
    ColumnRef,
    Comparison,
    InList,
    Not,
    Or,
    Query,
)
from repro.workloads.synthetic import clustered_ids

MASTER_KEY = b"pruning-equivalence-master-key-3"
COUNTRIES = ["us", "ca", "in", "uk"]
N = 600
USERS = 40
SESSIONS = 3000  # high cardinality: about 100 tokens a partition dictionary

SAMPLES = [
    "SELECT sum(amount) FROM sales WHERE user = 1",
    "SELECT sum(amount) FROM sales WHERE sess = 1",
    "SELECT sum(amount), min(amount), max(amount) FROM sales "
    "WHERE ts > 5 AND amount > 3",
    "SELECT country, sum(amount) FROM sales GROUP BY country",
    "SELECT year, sum(amount) FROM sales GROUP BY year",
    "SELECT sum(amount) FROM sales WHERE country = 'us'",
]


def dataset(rows, seed, ts_base=0):
    rng = np.random.default_rng(seed)
    return {
        "user": clustered_ids(rows, USERS, seed=seed),
        "sess": clustered_ids(rows, SESSIONS, seed=seed + 1),
        "ts": (ts_base + np.sort(rng.integers(0, 5000, rows))).astype(np.int64),
        "amount": rng.integers(-50, 400, rows).astype(np.int64),
        "year": np.sort(rng.integers(2013, 2017, rows)).astype(np.int64),
        "country": rng.choice(COUNTRIES, rows, p=[0.4, 0.3, 0.2, 0.1]),
    }


def schema():
    # Basic SPLASHE for country (no value_counts): small append batches
    # with skewed draws cannot always be balanced for the enhanced mode.
    return TableSchema("sales", [
        ColumnSpec("user", dtype="int", sensitive=True),
        ColumnSpec("sess", dtype="int", sensitive=True),
        ColumnSpec("ts", dtype="int", sensitive=True, nbits=32),
        ColumnSpec("amount", dtype="int", sensitive=True, nbits=32),
        ColumnSpec("year", dtype="int", sensitive=False),
        ColumnSpec("country", dtype="str", sensitive=True,
                   distinct_values=COUNTRIES),
    ])


@pytest.fixture(scope="module")
def stores(tmp_path_factory):
    """Three store states: freshly written, after appends, after compaction."""
    root = tmp_path_factory.mktemp("pruning-stores")
    paths = {}
    for name, appends, compact in [
        ("base", 0, False), ("appended", 2, False), ("compacted", 3, True),
    ]:
        writer = SeabedSession(mode="seabed", master_key=MASTER_KEY, seed=2)
        writer.create_plan(schema(), SAMPLES)
        path = str(root / name)
        writer.upload("sales", dataset(N, seed=1), num_partitions=6, path=path)
        for i in range(appends):
            writer.append_rows(
                "sales", dataset(120, seed=20 + i, ts_base=5000 * (i + 1))
            )
        if compact:
            assert writer.compact_table("sales") is not None
        paths[name] = path
    return paths


def attach(path):
    session = SeabedSession(mode="seabed", master_key=MASTER_KEY)
    session.open_table(path)
    return session


@pytest.fixture(scope="module")
def appended(stores):
    return attach(stores["appended"])


def run_both(session, query, scan=False):
    """Execute with and without pruning; assert bit-identical rows and
    return how many partitions the pruned run skipped."""
    runner = session.scan if scan else session.query
    session.server.pruning = True
    try:
        pruned = runner(query)
        session.server.pruning = False
        full = runner(query)
    finally:
        session.server.pruning = True
    assert pruned.rows == full.rows
    assert all(m.partitions_skipped == 0 for m in full.request_metrics)
    skipped = sum(m.partitions_skipped for m in pruned.request_metrics)
    total = sum(m.partitions_total for m in pruned.request_metrics)
    assert 0 <= skipped <= total
    return skipped


# -- random queries (hypothesis) ----------------------------------------------

ts_predicates = st.builds(
    Comparison, column=st.just("ts"),
    op=st.sampled_from(["<", "<=", ">", ">=", "=", "!="]),
    value=st.integers(min_value=-10, max_value=16_000),
)
ts_between = st.builds(
    lambda lo, width: Between("ts", lo, lo + width),
    lo=st.integers(min_value=0, max_value=15_000),
    width=st.integers(min_value=0, max_value=4_000),
)
amount_predicates = st.builds(
    Comparison, column=st.just("amount"),
    op=st.sampled_from(["<", ">", ">=", "!="]),
    value=st.integers(min_value=-60, max_value=420),
)
user_predicates = st.one_of(
    st.builds(Comparison, column=st.just("user"),
              op=st.sampled_from(["=", "!="]),
              value=st.integers(min_value=0, max_value=USERS + 3)),
    st.builds(lambda vs: InList("user", tuple(vs)),
              st.lists(st.integers(min_value=0, max_value=USERS + 3),
                       min_size=1, max_size=3, unique=True)),
)
sess_predicates = st.builds(
    Comparison, column=st.just("sess"), op=st.just("="),
    value=st.integers(min_value=0, max_value=SESSIONS + 5),
)
year_predicates = st.builds(
    Comparison, column=st.just("year"),
    op=st.sampled_from(["=", "!=", "<", ">="]),
    value=st.integers(min_value=2012, max_value=2018),
)
leaves = st.one_of(ts_predicates, ts_between, amount_predicates,
                   user_predicates, sess_predicates, year_predicates)
predicates = st.one_of(
    leaves,
    st.builds(lambda a, b: And((a, b)), leaves, leaves),
    st.builds(lambda a, b: Or((a, b)), leaves, leaves),
    st.builds(lambda a: Not(a), leaves),
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


@given(aggs=aggregates, where=st.one_of(st.none(), predicates))
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_flat_pruning_bit_identical(appended, aggs, where):
    query = Query(select=tuple(aggs), table="sales", where=where)
    run_both(appended, query)


@given(dim=st.sampled_from(["year", "country"]),
       where=st.one_of(st.none(), leaves))
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_grouped_pruning_bit_identical(appended, dim, where):
    query = Query(
        select=(ColumnRef(dim), Aggregate("sum", "amount", "s"),
                Aggregate("count", None, "c")),
        table="sales", where=where, group_by=(dim,),
    )
    run_both(appended, query)


@given(where=st.one_of(ts_predicates, user_predicates, year_predicates))
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_scan_pruning_bit_identical(appended, where):
    query = Query(
        select=(ColumnRef("user"), ColumnRef("amount")),
        table="sales", where=where,
    )
    run_both(appended, query, scan=True)


# -- generations (deterministic) -----------------------------------------------

SELECTIVE = [
    "SELECT sum(amount), count(*) FROM sales WHERE user = 2",
    "SELECT sum(amount) FROM sales WHERE ts BETWEEN 100 AND 900",
    "SELECT year, sum(amount) FROM sales WHERE ts < 2000 GROUP BY year",
    "SELECT min(amount), max(amount) FROM sales",
]


@pytest.mark.parametrize("store", ["base", "appended", "compacted"])
def test_every_generation_state_prunes_identically(stores, store):
    session = attach(stores[store])
    skipped = [run_both(session, sql) for sql in SELECTIVE]
    # Selective point/range queries actually skip work on every
    # store state (the floors; equality is asserted inside run_both).
    assert skipped[0] > 0 and skipped[1] > 0


# -- exact dictionaries past 64 tokens ------------------------------------------

def test_not_in_prunes_a_partition_whose_every_token_is_listed():
    """Each partition holds 100 users; ``NOT (user IN (...))`` listing
    all of the first partition's users provably matches none of its
    rows, so the exact dictionary drops it."""
    data = dataset(400, seed=5)
    data["user"] = np.repeat(np.arange(200), 2).astype(np.int64)
    session = SeabedSession(mode="seabed", master_key=MASTER_KEY)
    session.create_plan(schema(), SAMPLES)
    session.upload("sales", data, num_partitions=2)
    query = Query(
        select=(Aggregate("sum", "amount", "s"), Aggregate("count", None, "c")),
        table="sales", where=Not(InList("user", tuple(range(100)))),
    )
    assert run_both(session, query) == 1
    assert session.query(query).rows == [{"s": int(data["amount"][200:].sum()), "c": 200}]


def test_shard_rollup_prunes_on_a_large_non_ring_column(tmp_path):
    """Two shards placed by ``user`` each hold hundreds of ``sess``
    tokens.  A point query on ``sess`` cannot be ring-routed, and the
    shard whose rolled-up dictionary lacks the token is skipped."""
    rng = np.random.default_rng(8)
    data = dataset(2_000, seed=6)
    data["sess"] = (data["user"] * 100 + rng.integers(0, 100, 2_000)).astype(np.int64)
    session = SeabedSession(mode="seabed", master_key=MASTER_KEY)
    try:
        session.create_plan(schema(), SAMPLES)
        session.shard_table("sales", "user", tmp_path / "sales", num_shards=2)
        session.upload("sales", data)
        assert all(n > 0 for n in session.encrypted_table("sales").shard_rows().values())
        target = int(data["sess"][0])
        result = session.query("SELECT sum(amount), count(*) FROM sales WHERE sess = :s",
                               s=target)
        hit = data["sess"] == target
        assert result.rows == [{"sum(amount)": int(data["amount"][hit].sum()),
                                "count(*)": int(hit.sum())}]
        assert result.request_metrics[0].shards_skipped == 1
    finally:
        session.close()


def test_a_token_first_appended_is_found_by_the_index():
    """The server's compiled zone maps (and their inverted token index)
    follow the table's version: a user absent at upload prunes every
    partition, and once an append adds it the new partition answers."""
    session = SeabedSession(mode="seabed", master_key=MASTER_KEY)
    session.create_plan(schema(), SAMPLES)
    session.upload("sales", dataset(N, seed=1), num_partitions=4)
    sql = f"SELECT sum(amount), count(*) FROM sales WHERE user = {USERS + 7}"
    assert run_both(session, sql) == 4
    assert session.query(sql).rows[0]["count(*)"] == 0
    batch = dataset(60, seed=31, ts_base=5000)
    batch["user"] = np.full(60, USERS + 7, dtype=np.int64)
    session.append_rows("sales", batch)
    assert run_both(session, sql) == 4
    assert session.query(sql).rows == [{"sum(amount)": int(batch["amount"].sum()),
                                        "count(*)": 60}]


def test_shard_rollup_follows_an_append(tmp_path):
    """A shard's compiled rollup is cached until the shard mutates: a
    ``sess`` token no shard holds skips both, and after an append puts it
    on one shard that shard answers and only the other is skipped."""
    data = dataset(1_000, seed=6)
    session = SeabedSession(mode="seabed", master_key=MASTER_KEY)
    try:
        session.create_plan(schema(), SAMPLES)
        session.shard_table("sales", "user", tmp_path / "sales", num_shards=2)
        session.upload("sales", data)
        sql = "SELECT sum(amount), count(*) FROM sales WHERE sess = :s"
        target = SESSIONS + 11
        before = session.query(sql, s=target)
        assert before.rows[0]["count(*)"] == 0
        assert before.request_metrics[0].shards_skipped == 2
        batch = dataset(50, seed=32, ts_base=5000)
        batch["user"] = np.full(50, 3, dtype=np.int64)
        batch["sess"] = np.full(50, target, dtype=np.int64)
        session.append_rows("sales", batch)
        after = session.query(sql, s=target)
        assert after.rows == [{"sum(amount)": int(batch["amount"].sum()),
                               "count(*)": 50}]
        assert after.request_metrics[0].shards_skipped == 1
    finally:
        session.close()


def test_uploading_session_prunes_like_a_fresh_attach():
    """The session that uploaded serves the store its upload created:
    full zone-map coverage at once, the same partitions skipped as a
    fresh attach of that store, and an index it can rebuild."""
    session = SeabedSession(mode="seabed", master_key=MASTER_KEY)
    session.create_plan(schema(), SAMPLES)
    session.upload("sales", dataset(N, seed=1), num_partitions=4)
    stats = session.stats("sales")
    assert stats["partitions_with_stats"] == stats["partitions"] == 4
    sql = "SELECT sum(amount) FROM sales WHERE user = 2"
    skipped = run_both(session, sql)
    assert skipped > 0
    fresh = attach(session.save_table("sales"))
    assert run_both(fresh, sql) == skipped
    assert fresh.query(sql).rows == session.query(sql).rows
    assert session.rebuild_index("sales")["partitions_with_stats"] == 4
    assert run_both(session, sql) == skipped


def test_rebuild_index_recomputes_missing_stats(stores, tmp_path):
    import json
    import os
    import shutil

    from repro.engine.store import MANIFEST_NAME

    # Strip the zone maps from a copy of the base store.
    path = str(tmp_path / "bare")
    shutil.copytree(stores["base"], path)
    manifest_path = os.path.join(path, MANIFEST_NAME)
    manifest = json.load(open(manifest_path))
    for gen in manifest["generations"]:
        for part in gen["partitions"]:
            part.pop("stats", None)
    json.dump(manifest, open(manifest_path, "w"))

    session = attach(path)
    sql = "SELECT sum(amount), count(*) FROM sales WHERE user = 2"
    before = session.query(sql)
    assert sum(m.partitions_skipped for m in before.request_metrics) == 0
    assert session.stats("sales")["partitions_with_stats"] == 0

    summary = session.encrypted_table("sales").rebuild_index()
    assert summary["partitions_with_stats"] == summary["partitions"] > 0

    after = session.query(sql)
    assert after.rows == before.rows
    assert sum(m.partitions_skipped for m in after.request_metrics) > 0
