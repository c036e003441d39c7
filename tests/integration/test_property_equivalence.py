"""Property-based equivalence: random queries, encrypted vs plaintext.

Hypothesis generates random aggregation queries (aggregates, predicates,
optional group-by) over a fixed dataset; the Seabed pipeline must return
exactly the plaintext executor's answer for every one of them.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import server as srv
from repro.core.grouped import code_dtype
from repro.core.session import SeabedSession
from repro.core.schema import ColumnSpec, TableSchema
from repro.query import execute_plain, parse_query
from repro.query.ast import (
    Aggregate,
    And,
    Between,
    Comparison,
    InList,
    Or,
    Query,
)

COUNTRIES = ["us", "ca", "in", "uk"]
N = 400


def _dataset():
    rng = np.random.default_rng(17)
    return {
        "country": rng.choice(COUNTRIES, N, p=[0.4, 0.3, 0.2, 0.1]),
        "amount": rng.integers(-100, 500, N),
        "ts": rng.integers(0, 100, N),
        "year": rng.integers(2014, 2017, N),
    }


DATA = _dataset()


@pytest.fixture(scope="module")
def client():
    schema = TableSchema("sales", [
        ColumnSpec("country", dtype="str", sensitive=True,
                   distinct_values=COUNTRIES,
                   value_counts={c: int((DATA["country"] == c).sum())
                                 for c in COUNTRIES}),
        ColumnSpec("amount", dtype="int", sensitive=True, nbits=32),
        ColumnSpec("ts", dtype="int", sensitive=True, nbits=16),
        ColumnSpec("year", dtype="int", sensitive=False),
    ])
    client = SeabedSession(master_key=b"p" * 32, mode="seabed", seed=6)
    client.create_plan(schema, [
        "SELECT sum(amount), var(amount) FROM sales WHERE country = 'us'",
        "SELECT sum(amount) FROM sales WHERE ts > 5",
        "SELECT country, sum(amount) FROM sales GROUP BY country",
        "SELECT year, sum(amount) FROM sales GROUP BY year",
        "SELECT min(amount), max(amount), median(amount) FROM sales",
    ])
    client.upload("sales", DATA, num_partitions=3)
    return client


# -- query strategies ---------------------------------------------------------

range_predicates = st.builds(
    Comparison,
    column=st.just("ts"),
    op=st.sampled_from(["<", "<=", ">", ">=", "=", "!="]),
    value=st.integers(min_value=-5, max_value=105),
)
between_predicates = st.builds(
    lambda lo, width: Between("ts", lo, lo + width),
    lo=st.integers(min_value=0, max_value=90),
    width=st.integers(min_value=0, max_value=40),
)
year_predicates = st.builds(
    Comparison,
    column=st.just("year"),
    op=st.sampled_from(["=", "!=", "<", ">="]),
    value=st.integers(min_value=2014, max_value=2016),
)
amount_predicates = st.builds(
    Comparison,
    column=st.just("amount"),
    op=st.sampled_from(["<", ">", ">="]),
    value=st.integers(min_value=-150, max_value=550),
)
splashe_predicates = st.one_of(
    st.builds(Comparison, column=st.just("country"), op=st.just("="),
              value=st.sampled_from(COUNTRIES + ["zz"])),
    st.builds(lambda vs: InList("country", tuple(vs)),
              st.lists(st.sampled_from(COUNTRIES), min_size=1, max_size=3,
                       unique=True)),
)
filter_only = st.one_of(range_predicates, between_predicates, year_predicates,
                        amount_predicates)
nested_filters = st.one_of(
    filter_only,
    st.builds(lambda a, b: And((a, b)), filter_only, filter_only),
    st.builds(lambda a, b: Or((a, b)), filter_only, filter_only),
)

aggregates = st.lists(
    st.sampled_from([
        Aggregate("sum", "amount", "s"),
        Aggregate("count", None, "c"),
        Aggregate("avg", "amount", "a"),
        Aggregate("var", "amount", "v"),
        Aggregate("min", "amount", "lo"),
        Aggregate("max", "amount", "hi"),
    ]),
    min_size=1, max_size=3, unique_by=lambda a: a.alias,
)


def assert_rows_match(got, want):
    """Rows equal, with float aggregates compared within a tolerance:
    the encrypted path reconstitutes averages/variances from exact int64
    sums while the plaintext executor works in floats, so the two can
    differ in the last ulp (which naive round()-then-compare turns into
    a spurious mismatch whenever a value sits on a rounding boundary)."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert set(g) == set(w)
        for key, value in w.items():
            if isinstance(value, float):
                assert g[key] == pytest.approx(value, rel=1e-9, abs=1e-9), key
            else:
                assert g[key] == value, key


@given(aggs=aggregates, where=st.one_of(st.none(), nested_filters))
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_flat_queries_equivalent(client, aggs, where):
    query = Query(select=tuple(aggs), table="sales", where=where)
    want = execute_plain({"sales": DATA}, query)
    got = client.query(query)
    assert_rows_match(got.rows, want)


@given(where=st.one_of(st.none(), splashe_predicates, filter_only))
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_sum_count_with_splashe_filters_equivalent(client, where):
    if where is not None and isinstance(where, (Comparison, InList)) \
            and where.column == "country":
        select = (Aggregate("sum", "amount", "s"), Aggregate("count", None, "c"))
    else:
        select = (Aggregate("sum", "amount", "s"),)
    query = Query(select=select, table="sales", where=where)
    want = execute_plain({"sales": DATA}, query)
    got = client.query(query)
    assert_rows_match(got.rows, want)


@given(dim=st.sampled_from(["country", "year"]),
       where=st.one_of(st.none(), filter_only))
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_grouped_queries_equivalent(client, dim, where):
    from repro.query.ast import ColumnRef

    query = Query(
        select=(ColumnRef(dim), Aggregate("sum", "amount", "s"),
                Aggregate("count", None, "c")),
        table="sales", where=where, group_by=(dim,),
    )
    want = execute_plain({"sales": DATA}, query)
    got = client.query(query)
    assert_rows_match(got.rows, want)


# -- code widths --------------------------------------------------------------
# A grouped reply names each ID's row set by a code in the narrowest of
# uint8 / uint16 / uint32 that holds the row-set count.  One group column
# per side of each step (1, 255 | 256, 65,537 groups), under dense (one run
# per partition), scattered (bitmap chunks) and sparse (run-coded chunks)
# selections, over a join with duplicate build keys, single-store and
# sharded-local: every answer is execute_plain's.

WIDTHS = [1, 255, 256, 65_537]
WIDE_ROWS = 98_304
WIDE_FILTERS = {
    "all": "",
    "dense": "WHERE ts >= 24576",
    "scattered": "WHERE tier IN (1, 2, 3, 4, 5, 6, 7, 8)",
    "sparse": "WHERE tier = 1",
}
WIDE_JOIN = "SELECT g{n}, sum(w), sum(amount), count(*) FROM wide JOIN wb ON bk = key GROUP BY g{n}"


def _wide_data():
    rng = np.random.default_rng(23)
    data = {f"g{n}": rng.permutation(np.arange(WIDE_ROWS) % n) for n in WIDTHS}
    data.update(amount=rng.integers(-1000, 1000, WIDE_ROWS), ts=np.arange(WIDE_ROWS),
                tier=rng.integers(0, 64, WIDE_ROWS), bk=rng.integers(0, 16, WIDE_ROWS))
    return data


WIDE = _wide_data()
#: Every even join key twice, odd ones never: joined rows repeat, so
#: both sides' ID chunks are multisets.
WIDE_BUILD = {"key": np.repeat(np.arange(0, 16, 2), 2), "w": np.arange(1, 17)}


@pytest.fixture(scope="module")
def wide_sessions(tmp_path_factory):
    probe = TableSchema("wide", [
        ColumnSpec("amount", dtype="int", sensitive=True, nbits=32),
        ColumnSpec("ts", dtype="int", sensitive=True, nbits=32),
        ColumnSpec("tier", dtype="int", sensitive=True),
        ColumnSpec("bk", dtype="int", sensitive=True),
        *(ColumnSpec(f"g{n}", dtype="int", sensitive=True) for n in WIDTHS),
    ])
    build = TableSchema("wb", [ColumnSpec("key", dtype="int", sensitive=True),
                               ColumnSpec("w", dtype="int", sensitive=True)])
    samples = [
        *(f"SELECT g{n}, sum(amount), count(*) FROM wide GROUP BY g{n}" for n in WIDTHS),
        "SELECT sum(amount) FROM wide WHERE ts >= 5", "SELECT sum(amount) FROM wide WHERE tier = 1",
        WIDE_JOIN.format(n=1),
    ]
    sessions = {}
    for placement in ("single-store", "sharded-local"):
        session = SeabedSession(master_key=b"w" * 32, mode="seabed", seed=2)
        session.create_plan(probe, samples)
        session.create_plan(build, samples)
        if placement == "single-store":
            session.upload("wide", WIDE, num_partitions=8)
            session.upload("wb", WIDE_BUILD, num_partitions=2)
        else:
            session.shard_table("wide", "bk", str(tmp_path_factory.mktemp("wide") / "wide"),
                                num_shards=2)
            session.upload("wide", WIDE)
        sessions[placement] = session
    yield sessions
    for session in sessions.values():
        session.close()


def _replies(monkeypatch):
    """Every grouped reply the sessions' servers send, as they send it."""
    replies = []
    execute = srv.SeabedServer.execute
    monkeypatch.setattr(srv.SeabedServer, "execute",
                        lambda self, q: replies.append(execute(self, q)) or replies[-1])
    return replies


def _check_widths(replies):
    for reply in replies:
        pieces = [p for ps in reply.groups.ids.values() for p in ps]
        assert pieces and {p.codes.dtype for p in pieces} == {code_dtype(len(reply.groups))}


@pytest.mark.parametrize("placement", ["single-store", "sharded-local"])
@pytest.mark.parametrize("where", list(WIDE_FILTERS))
@pytest.mark.parametrize("groups", WIDTHS)
def test_grouped_rows_at_every_code_width(wide_sessions, placement, where, groups, monkeypatch):
    sql = (f"SELECT g{groups}, sum(amount), count(*) FROM wide {WIDE_FILTERS[where]} "
           f"GROUP BY g{groups}")
    want = sorted(execute_plain({"wide": WIDE}, parse_query(sql)), key=str)
    replies = _replies(monkeypatch)
    got = wide_sessions[placement].query(sql)
    assert sorted(got.rows, key=str) == want
    _check_widths(replies)
    if where == "all":  # every group selected: the width of the count
        assert replies[0].groups.ids[srv.ROW_IDS][0].codes.dtype == (
            np.uint8 if groups < 256 else np.uint16 if groups < 65_536 else np.uint32)


@pytest.mark.parametrize("groups", WIDTHS)
def test_grouped_join_with_duplicate_build_keys_at_every_code_width(wide_sessions, groups,
                                                                    monkeypatch):
    sql = WIDE_JOIN.format(n=groups)
    want = sorted(execute_plain({"wide": WIDE, "wb": WIDE_BUILD}, parse_query(sql)), key=str)
    replies = _replies(monkeypatch)
    got = wide_sessions["single-store"].query(sql)
    assert sorted(got.rows, key=str) == want
    _check_widths(replies)
    assert {len(reply.groups.ids) for reply in replies} == {2}  # probe and build IDs
