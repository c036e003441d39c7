"""Grouped and flat results assembled as columns, against the executor.

The decryptor opens every reply into columns and builds the result rows
once, after ORDER BY / the default group order / LIMIT have run on the
columns.  Every test here compares with ``execute_plain`` row for row:
the same values, the same Python types (``int`` vs ``float`` vs
``None``) and, wherever the order is defined, the same order.
"""

import numpy as np
import pytest

from repro.core.schema import ColumnSpec, TableSchema
from repro.core.session import SeabedSession
from repro.query import execute_plain, parse_query

KEY = b"columnar-results-master-key-32by"
REGIONS = ["us", "eu", "apac", "latam", "mea", "anz"]


def typed(rows):
    return [[(name, type(value).__name__, value) for name, value in row.items()]
            for row in rows]


def schema(region_counts=None):
    return TableSchema("t", [
        ColumnSpec("user", dtype="int", sensitive=True),
        ColumnSpec("region", dtype="str", sensitive=True, distinct_values=REGIONS,
                   value_counts=region_counts),
        ColumnSpec("amount", dtype="int", sensitive=True, nbits=32),
        ColumnSpec("year", dtype="int", sensitive=False),
    ])


SAMPLES = [
    "SELECT user, sum(amount), count(*) FROM t GROUP BY user",
    "SELECT region, sum(amount), count(*) FROM t GROUP BY region",
    "SELECT user, avg(amount), var(amount), stddev(amount) FROM t GROUP BY user",
    "SELECT sum(amount) FROM t WHERE region = 'us'",
    "SELECT sum(amount) FROM t WHERE amount > 500",
]


def dataset(n=1200, users=12, seed=5, sort=True):
    """Users laid out in ascending order, so the executor's first-seen group
    order is NoEnc's key order (the order its ties keep)."""
    rng = np.random.default_rng(seed)
    user = np.arange(n) % users
    return {
        "user": np.sort(user) if sort else rng.permutation(user),
        "region": np.array(REGIONS, dtype=object)[rng.integers(0, len(REGIONS), n)],
        "amount": rng.integers(0, 1000, n),
        "year": rng.integers(2014, 2017, n),
    }


def session_for(mode, data, region_counts=None, samples=SAMPLES, partitions=3):
    session = SeabedSession(mode=mode, master_key=KEY, seed=1, paillier_bits=256)
    session.create_plan(schema(region_counts), samples)
    session.upload("t", data, num_partitions=partitions)
    return session


def assert_exact(session, data, sql):
    want = execute_plain({"t": data}, parse_query(sql))
    got = session.query(sql).rows
    assert typed(got) == typed(want), sql
    return got


@pytest.fixture(scope="module", params=["plain", "seabed"])
def client(request):
    data = dataset()
    session = session_for(request.param, data)
    yield session, data
    session.close()


def test_descending_ties_keep_the_key_order_through_limit():
    """NoEnc's rows come in key order, as the executor's do here: a stable
    descending sort keeps tied counts in that order, and LIMIT cuts
    through the tie."""
    data = dataset(n=1200, users=12)
    data["user"][:60] = 0  # users 0 gets 100 (more) rows, user 1 40: the rest tie at 100
    data["user"] = np.sort(data["user"])
    session = session_for("plain", data)
    for sql in (
        "SELECT user, count(*) AS c FROM t GROUP BY user ORDER BY c DESC LIMIT 7",
        "SELECT user, count(*) AS c FROM t GROUP BY user ORDER BY c DESC",
        "SELECT user, count(*) AS c, sum(amount) AS s FROM t GROUP BY user "
        "ORDER BY c DESC, s LIMIT 5",
        "SELECT user, count(*) AS c FROM t GROUP BY user ORDER BY c LIMIT 4",
    ):
        assert_exact(session, data, sql)


def test_descending_ties_under_seabed_keep_one_order(client):
    """Seabed's tie order is its key order (DET tokens), not the
    executor's first-seen order: the ranked values and the row set agree."""
    session, data = client
    sql = "SELECT user, count(*) AS c FROM t GROUP BY user ORDER BY c DESC LIMIT 12"
    got = session.query(sql).rows
    want = execute_plain({"t": data}, parse_query(sql))
    assert [row["c"] for row in got] == [row["c"] for row in want]
    assert sorted(map(str, got)) == sorted(map(str, want))


@pytest.mark.parametrize("sql", [
    "SELECT user, sum(amount) FROM t GROUP BY user ORDER BY user DESC",
    "SELECT user, sum(amount) FROM t GROUP BY user ORDER BY user LIMIT 3",
    "SELECT user, sum(amount), count(*) FROM t GROUP BY user",  # keys 10, 11 before 2
    "SELECT sum(amount), count(*) FROM t GROUP BY user",  # the key orders, then leaves
    "SELECT count(*) FROM t GROUP BY user ORDER BY user DESC LIMIT 2",
    "SELECT user, avg(amount) AS a FROM t GROUP BY user ORDER BY a DESC",
    "SELECT region, sum(amount), count(*), avg(amount) FROM t GROUP BY region",
    "SELECT region, count(*) FROM t WHERE amount > 990 GROUP BY region",
    "SELECT user, count(*) FROM t WHERE user = 999 GROUP BY user",
    "SELECT sum(amount), count(*), avg(amount) FROM t WHERE amount > 5000",
    "SELECT sum(amount), count(*) FROM t LIMIT 0",
])
def test_rows_equal_the_executor(client, sql):
    session, data = client
    assert_exact(session, data, sql)


def test_default_order_is_the_key_as_a_string(client):
    session, data = client
    rows = assert_exact(session, data, "SELECT user, count(*) FROM t GROUP BY user")
    assert [row["user"] for row in rows][:4] == [0, 1, 10, 11]


def test_empty_splashe_groups_are_suppressed():
    """A region no selected row holds decrypts to a zero count and no row
    comes out for it, in basic and in enhanced SPLASHE."""
    data = dataset(n=1200)
    data["region"][data["region"] == "anz"] = "us"
    counts = {r: int((data["region"] == r).sum()) for r in REGIONS}
    for region_counts in (None, counts):
        session = session_for("seabed", data, region_counts)
        for sql in ("SELECT region, sum(amount), count(*), avg(amount) FROM t GROUP BY region",
                    "SELECT region, count(*) FROM t WHERE amount > 900 GROUP BY region",
                    "SELECT count(*), sum(amount) FROM t GROUP BY region"):
            rows = assert_exact(session, data, sql)
            assert len(rows) < len(REGIONS)
        session.close()


def test_enhanced_splashe_groups_frequent_and_catch_all_values():
    rng = np.random.default_rng(9)
    data = dataset(n=2000)
    data["region"] = np.array(REGIONS, dtype=object)[
        rng.choice(len(REGIONS), 2000, p=[0.6, 0.3, 0.04, 0.03, 0.02, 0.01])]
    counts = {r: int((data["region"] == r).sum()) for r in REGIONS}
    session = session_for("seabed", data, counts)
    assert session.table_state("t").enc_schema.plan("region").kind == "splashe_enhanced"
    for sql in ("SELECT region, sum(amount), count(*), avg(amount) FROM t GROUP BY region",
                "SELECT region, count(*) AS c FROM t GROUP BY region ORDER BY c DESC LIMIT 3",
                "SELECT region, sum(amount) FROM t WHERE year = 2015 GROUP BY region"):
        assert_exact(session, data, sql)
    session.close()


def test_noenc_per_group_min_and_max():
    data = dataset()
    session = session_for("plain", data)
    assert_exact(session, data, "SELECT user, min(amount), max(amount), count(*) FROM t "
                               "GROUP BY user ORDER BY user")
    session.close()


def test_paillier_sums_are_exact_python_ints():
    data = dataset(n=600)
    session = session_for("paillier", data)
    rows = assert_exact(session, data, "SELECT user, sum(amount), count(*), avg(amount) "
                                      "FROM t GROUP BY user")
    assert all(type(row["sum(amount)"]) is int for row in rows)
    assert_exact(session, data, "SELECT sum(amount), avg(amount) FROM t")
    session.close()


@pytest.mark.parametrize("mode", ["plain", "seabed"])
def test_division_past_two_to_the_53(mode):
    """Sums past 2^53 divide as Python's ``int / int``, which float64
    division of the rounded sum does not reproduce."""
    # Each user's sum is odd and past 2^53: float64 rounds it before dividing.
    data = {
        "user": np.repeat(np.arange(3), 3),
        "amount": np.array([2**53 - 2, 2, 1, 2**53, 4, 1, 2**52, 2**52, 7]),
        "year": np.full(9, 2015),
    }
    session = SeabedSession(mode=mode, master_key=KEY, seed=1)
    session.create_plan(TableSchema("t", [
        ColumnSpec("user", dtype="int", sensitive=True),
        ColumnSpec("amount", dtype="int", sensitive=True),
        ColumnSpec("year", dtype="int", sensitive=False),
    ]), ["SELECT user, sum(amount), avg(amount) FROM t GROUP BY user"])
    session.upload("t", data)
    for sql in ("SELECT user, sum(amount), count(*), avg(amount) FROM t GROUP BY user",
                "SELECT sum(amount), count(*), avg(amount) FROM t"):
        rows = session.query(sql).rows
        want = execute_plain({"t": data}, parse_query(sql))
        assert [{k: v for k, v in r.items() if k != "avg(amount)"} for r in rows] == [
            {k: v for k, v in r.items() if k != "avg(amount)"} for r in want]
        for row in rows:
            exact = row["sum(amount)"] / row["count(*)"]
            assert type(row["avg(amount)"]) is float and row["avg(amount)"] == exact
        # The data has teeth: float64 division of the rounded sum differs.
        assert "GROUP BY" not in sql or any(
            float(r["sum(amount)"]) / r["count(*)"] != r["avg(amount)"] for r in rows)
    session.close()


@pytest.mark.parametrize("mode", ["plain", "seabed"])
def test_variance_divides_sums_of_squares_past_two_to_the_53(mode):
    """var / stddev divide the sum of squares (past 2^53 here) exactly,
    then combine in float64 as ``max(sumsq / n - mean^2, 0.0)``."""
    rng = np.random.default_rng(6)
    n = 40
    amount = rng.integers(2**27, 2**28, n)
    data = {"user": np.arange(n) % 2, "region": np.array(["us"] * n, dtype=object),
            "amount": amount, "year": np.full(n, 2015)}
    session = session_for(mode, data, partitions=2)
    sql = "SELECT user, sum(amount), count(*), var(amount), stddev(amount) FROM t GROUP BY user"
    rows = session.query(sql).rows
    want = execute_plain({"t": data}, parse_query(sql))
    assert [r["user"] for r in rows] == [r["user"] for r in want]
    teeth = False
    for row, user in zip(rows, (0, 1)):
        values = [int(v) for v in amount[data["user"] == user]]
        total, sumsq, count = sum(values), sum(v * v for v in values), len(values)
        mean = total / count
        variance = max(sumsq / count - mean * mean, 0.0)
        assert row["var(amount)"] == variance and row["stddev(amount)"] == variance ** 0.5
        assert row["var(amount)"] == pytest.approx(want[user]["var(amount)"], rel=1e-6)
        teeth |= max(float(sumsq) / count - mean * mean, 0.0) != variance
        assert sumsq > 2**53
    assert teeth, "float64 division of the sum of squares must differ somewhere"
    session.close()
