"""Integration tests for projection (scan) queries -- the BDB Q1 shape."""

import numpy as np
import pytest

from repro.core.session import SeabedSession
from repro.core.schema import ColumnSpec, TableSchema
from repro.errors import TranslationError
from repro.query import execute_plain, parse_query


@pytest.fixture(scope="module")
def setup():
    rng = np.random.default_rng(3)
    n = 500
    data = {
        "pageURL": np.array([f"url{i}" for i in range(n)], dtype=object),
        "pageRank": rng.integers(1, 1000, n),
        "site": rng.choice(["a", "b"], n),
    }
    schema = TableSchema("rankings", [
        ColumnSpec("pageURL", dtype="str", sensitive=True),
        ColumnSpec("pageRank", dtype="int", sensitive=True, nbits=16),
        ColumnSpec("site", dtype="str", sensitive=False),
    ])
    samples = [
        # Join + range samples make the planner give pageURL DET and
        # pageRank an ORE companion.
        "SELECT sum(pageRank) FROM rankings JOIN x ON pageURL = y WHERE pageRank > 10",
    ]
    return data, schema, samples


def make_client(mode, setup):
    data, schema, samples = setup
    client = SeabedSession(master_key=b"s" * 32, mode=mode,
                          paillier_bits=256, seed=1)
    client.create_plan(schema, samples)
    client.upload("rankings", data, num_partitions=3)
    return client


@pytest.mark.parametrize("mode", ["plain", "seabed", "paillier"])
def test_scan_matches_ground_truth(mode, setup):
    data = setup[0]
    client = make_client(mode, setup)
    sql = "SELECT pageURL, pageRank FROM rankings WHERE pageRank > 900"
    want = execute_plain({"rankings": data}, parse_query(sql))
    got = client.scan(sql)
    assert sorted(r["pageURL"] for r in got.rows) == sorted(
        r["pageURL"] for r in want
    )
    assert {r["pageURL"]: r["pageRank"] for r in got.rows} == {
        r["pageURL"]: r["pageRank"] for r in want
    }


def test_scan_with_plain_filter(setup):
    data = setup[0]
    client = make_client("seabed", setup)
    sql = "SELECT pageRank FROM rankings WHERE site = 'a'"
    want = execute_plain({"rankings": data}, parse_query(sql))
    got = client.scan(sql)
    assert sorted(r["pageRank"] for r in got.rows) == sorted(
        r["pageRank"] for r in want
    )


def test_scan_rejects_aggregates(setup):
    client = make_client("seabed", setup)
    with pytest.raises(TranslationError, match="projection"):
        client.scan("SELECT sum(pageRank) FROM rankings")


def test_scan_metrics(setup):
    client = make_client("seabed", setup)
    result = client.scan("SELECT pageRank FROM rankings WHERE pageRank > 500")
    assert client.cluster.model(result.request_metrics).server_s > 0
    assert result.result_bytes > 0
    assert result.client_time > 0
