"""Property-based equivalence: random queries, encrypted vs plaintext.

Hypothesis generates random aggregation queries (aggregates, predicates,
optional group-by) over a fixed dataset; the Seabed pipeline must return
exactly the plaintext executor's answer for every one of them.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.session import SeabedSession
from repro.core.schema import ColumnSpec, TableSchema
from repro.query import execute_plain
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
    got = client.query(query, expected_groups=4)
    assert_rows_match(got.rows, want)
