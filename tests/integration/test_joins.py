"""Integration tests for join queries (Big Data Benchmark query 3 shape)."""

import numpy as np
import pytest

from repro.core.server import BUILD_IDS
from repro.core.session import SeabedSession
from repro.core.schema import ColumnSpec, TableSchema
from repro.query import execute_plain, parse_query


def normalise(rows):
    return [
        {k: (round(v, 5) if isinstance(v, float) else v) for k, v in r.items()}
        for r in rows
    ]


@pytest.fixture(scope="module")
def tables():
    rng = np.random.default_rng(11)
    n_rank, n_visits = 40, 300
    urls = [f"url{i}" for i in range(n_rank)]
    rankings = {
        "pageURL": np.array(urls, dtype=object),
        "pageRank": rng.integers(1, 100, n_rank),
    }
    uservisits = {
        "destURL": rng.choice(urls, n_visits),
        "adRevenue": rng.integers(1, 500, n_visits),
        "visitDate": rng.integers(0, 365, n_visits),
        "sourceIP": rng.choice([f"ip{i}" for i in range(15)], n_visits),
    }
    return rankings, uservisits


@pytest.fixture(scope="module")
def schemas():
    rankings = TableSchema("rankings", [
        ColumnSpec("pageURL", dtype="str", sensitive=True),
        ColumnSpec("pageRank", dtype="int", sensitive=True, nbits=16),
    ])
    uservisits = TableSchema("uservisits", [
        ColumnSpec("destURL", dtype="str", sensitive=True),
        ColumnSpec("adRevenue", dtype="int", sensitive=True),
        ColumnSpec("visitDate", dtype="int", sensitive=True, nbits=16),
        ColumnSpec("sourceIP", dtype="str", sensitive=True),
    ])
    return rankings, uservisits


Q3 = ("SELECT sourceIP, sum(adRevenue), avg(pageRank) FROM uservisits "
      "JOIN rankings ON destURL = pageURL "
      "WHERE visitDate BETWEEN 30 AND 200 GROUP BY sourceIP")
Q3_FLAT = ("SELECT sum(adRevenue), sum(pageRank), count(*) FROM uservisits "
           "JOIN rankings ON destURL = pageURL WHERE visitDate < 100")
SAMPLES = [Q3, Q3_FLAT]


def build_client(mode, tables, schemas):
    rankings, uservisits = tables
    r_schema, v_schema = schemas
    client = SeabedSession(master_key=b"j" * 32, mode=mode,
                          paillier_bits=256, seed=5)
    client.create_plan(v_schema, SAMPLES)
    client.create_plan(r_schema, SAMPLES)
    client.upload("rankings", rankings, num_partitions=2)
    client.upload("uservisits", uservisits, num_partitions=4)
    return client


@pytest.mark.parametrize("mode", ["plain", "seabed", "paillier"])
@pytest.mark.parametrize("sql", [Q3_FLAT, Q3])
def test_join_matches_ground_truth(mode, sql, tables, schemas):
    rankings, uservisits = tables
    client = build_client(mode, tables, schemas)
    want = execute_plain(
        {"rankings": rankings, "uservisits": uservisits}, parse_query(sql)
    )
    got = client.query(sql)
    assert normalise(got.rows) == normalise(want)


@pytest.fixture(scope="module")
def fanout_tables(tables):
    """``rankings`` lists ten URLs twice: those visits join two build rows."""
    rankings, uservisits = tables
    rng = np.random.default_rng(12)
    rankings = {
        "pageURL": np.concatenate([rankings["pageURL"], rankings["pageURL"][:10]]),
        "pageRank": np.concatenate([rankings["pageRank"], rng.integers(1, 100, 10)]),
    }
    return rankings, uservisits


@pytest.mark.parametrize("mode", ["plain", "seabed", "paillier"])
@pytest.mark.parametrize("sql", [Q3_FLAT, Q3])
def test_join_with_duplicate_build_keys(mode, sql, tables, fanout_tables, schemas):
    """A probe row matching several build rows is summed once per match,
    so its ID must be padded (and counted) once per match too: the
    probe-side ID set is a multiset, never deduplicated."""
    rankings, uservisits = fanout_tables
    client = build_client(mode, fanout_tables, schemas)
    want = execute_plain(
        {"rankings": rankings, "uservisits": uservisits}, parse_query(sql)
    )
    got = client.query(sql)
    assert normalise(got.rows) == normalise(want)
    if sql == Q3_FLAT:  # the probe rows did fan out
        unique = execute_plain(
            {"rankings": tables[0], "uservisits": uservisits}, parse_query(sql)
        )
        assert want[0]["count(*)"] > unique[0]["count(*)"]


def test_join_ciphertexts_match_across_tables(tables, schemas):
    """The shared join group gives both DET columns the same key, so the
    server can match ciphertexts without learning URLs."""
    client = build_client("seabed", tables, schemas)
    probe = client.server.table("uservisits").column("destURL__det")
    build = client.server.table("rankings").column("pageURL__det")
    assert set(probe.tolist()) <= set(build.tolist())


def test_join_multiset_ids_used(tables, schemas):
    """Build-side aggregation carries a multiset ID collection (a URL's
    pageRank counts once per matching visit)."""
    client = build_client("seabed", tables, schemas)
    result = client.query(Q3_FLAT)
    aggs = result.translation.requests[0].aggs
    multisets = [a for a in aggs if getattr(a, "id_source", None) == BUILD_IDS]
    assert len(multisets) == 1
    assert multisets[0].column == "pageRank__ashe"


def test_incremental_upload_after_join_plan(tables, schemas):
    rankings, uservisits = tables
    client = build_client("seabed", tables, schemas)
    extra = {k: v[:50] for k, v in uservisits.items()}
    client.upload("uservisits", extra, num_partitions=1)
    merged = {
        k: np.concatenate([np.asarray(uservisits[k]), np.asarray(extra[k])])
        for k in uservisits
    }
    want = execute_plain(
        {"rankings": rankings, "uservisits": merged}, parse_query(Q3_FLAT)
    )
    got = client.query(Q3_FLAT)
    assert normalise(got.rows) == normalise(want)


@pytest.mark.parametrize("mode", ["plain", "seabed"])
def test_duplicate_and_absent_build_keys(mode, schemas):
    """Build keys repeat (each build row of a key joins every probe row of
    it, in build-row order) and some probe keys have no build row; the
    probe key column is dictionary-coded at rest."""
    rng = np.random.default_rng(5)
    rankings = {
        "pageURL": np.array([f"url{i % 7}" for i in range(20)], dtype=object),
        "pageRank": rng.integers(1, 100, 20),
    }
    uservisits = {
        "destURL": rng.choice([f"url{i}" for i in range(12)], 200),  # url7-url11: absent
        "adRevenue": rng.integers(1, 500, 200),
        "visitDate": rng.integers(0, 365, 200),
        "sourceIP": rng.choice([f"ip{i}" for i in range(5)], 200),
    }
    client = build_client(mode, (rankings, uservisits), schemas)
    if mode == "seabed":
        part = client.server.table("uservisits").partitions[0]
        assert part.columns["destURL__det"].dtype == np.uint8  # coded at rest
    data = {"rankings": rankings, "uservisits": uservisits}
    for sql in (Q3, Q3_FLAT):
        want = execute_plain(data, parse_query(sql))
        assert normalise(client.query(sql).rows) == normalise(want), sql
    client.close()
