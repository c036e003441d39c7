"""The Big Data Benchmark queries checked for value correctness (not just
timing) against the plaintext executor, across all three systems."""

import numpy as np
import pytest

from repro.core.session import SeabedSession
from repro.query import execute_plain, parse_query
from repro.workloads import bdb


def normalise(rows):
    return [
        {k: (round(v, 5) if isinstance(v, float) else v) for k, v in r.items()}
        for r in rows
    ]


@pytest.fixture(scope="module")
def data():
    return bdb.generate(num_rankings=80, num_uservisits=600, seed=5)


@pytest.fixture(scope="module", params=["plain", "seabed", "paillier"])
def client(request, data):
    client = SeabedSession(master_key=b"b" * 32, mode=request.param,
                          paillier_bits=256, seed=6)
    client.create_plan(data.uservisits_schema, bdb.sample_queries())
    client.create_plan(data.rankings_schema, bdb.sample_queries())
    client.upload("rankings", data.rankings, num_partitions=2)
    client.upload("uservisits", data.uservisits, num_partitions=4)
    return client


@pytest.fixture(scope="module")
def plain_tables(data):
    return {"rankings": data.rankings, "uservisits": data.uservisits}


@pytest.mark.parametrize("variant", ["A", "B", "C"])
def test_q1_scan(client, plain_tables, variant):
    threshold = bdb.Q1_THRESHOLDS[variant]
    sql = f"SELECT pageURL, pageRank FROM rankings WHERE pageRank > {threshold}"
    want = execute_plain(plain_tables, parse_query(sql))
    got = client.scan(sql)
    assert {r["pageURL"]: r["pageRank"] for r in got.rows} == {
        r["pageURL"]: r["pageRank"] for r in want
    }


@pytest.mark.parametrize("variant", ["A", "B", "C"])
def test_q2_prefix_aggregation(client, plain_tables, variant):
    sql = bdb.query_q2(variant)
    want = execute_plain(plain_tables, parse_query(sql))
    got = client.query(sql)
    assert normalise(got.rows) == normalise(want)


@pytest.mark.parametrize("variant", ["A", "B"])
def test_q3_join(client, plain_tables, variant):
    sql = bdb.query_q3(variant)
    want = execute_plain(plain_tables, parse_query(sql))
    got = client.query(sql)
    assert normalise(got.rows) == normalise(want)


def test_q4_phase2_aggregation(data):
    """Phase 1 runs plaintext (paper's simplification); phase 2 aggregates
    the link counts under encryption and must match a direct recount."""
    from collections import Counter

    from repro.core.schema import ColumnSpec, TableSchema

    client = SeabedSession(master_key=b"b" * 32, mode="seabed", seed=6)
    docs = bdb.generate_crawl_documents(60, data.rankings["pageURL"], seed=2)
    counted, _ = bdb.count_links(client.cluster, docs, num_partitions=3)
    expected = Counter()
    for doc in docs:
        for url, one in bdb.extract_links(doc):
            expected[url] += one
    assert counted == dict(expected)

    urls = sorted(counted)
    schema = TableSchema("linkcounts", [
        ColumnSpec("target", dtype="str", sensitive=True, distinct_values=urls),
        ColumnSpec("hits", dtype="int", sensitive=True),
    ])
    client.create_plan(schema, ["SELECT sum(hits) FROM linkcounts WHERE target = 'x'"])
    client.upload("linkcounts", {
        "target": np.array(urls, dtype=object),
        "hits": np.array([counted[u] for u in urls], dtype=np.int64),
    }, num_partitions=2)
    total = client.query("SELECT sum(hits) FROM linkcounts").rows[0]["sum(hits)"]
    assert total == sum(counted.values())
