"""Backend equivalence: serial, threads, and processes must agree.

The execution backend decides only *how* stage task bodies run on the
host; the rows a query returns, the simulated-schedule structure, and the
byte accounting must be identical across backends for every query shape
(flat aggregation, group-by, join, scan) and for the batched
``query_many`` path.
"""

import numpy as np
import pytest

from repro.core.session import SeabedSession
from repro.core.schema import ColumnSpec, TableSchema
from repro.engine.cluster import ClusterConfig, SimulatedCluster, makespan, model
from repro.query import execute_plain, parse_query

BACKENDS = ["serial", "threads", "processes"]

COUNTRIES = ["us", "ca", "in", "uk"]

FLAT = "SELECT sum(amount), count(*) FROM sales WHERE year = 2015"
GROUPED = "SELECT country, sum(amount) FROM sales GROUP BY country"
JOINED = ("SELECT sum(amount), sum(rate), count(*) FROM sales "
          "JOIN fx ON country = code WHERE year = 2016")
SCAN = "SELECT country, amount FROM sales WHERE amount > 900"

SAMPLES = [
    FLAT,
    GROUPED,
    JOINED,
    # Join + range sample so amount gets an ORE companion for the scan.
    "SELECT sum(amount) FROM sales JOIN fx ON country = code WHERE amount > 10",
]


@pytest.fixture(scope="module")
def dataset():
    rng = np.random.default_rng(23)
    n = 800
    sales = {
        "country": rng.choice(COUNTRIES, n),
        "amount": rng.integers(0, 1000, n),
        "year": rng.integers(2014, 2017, n),
    }
    fx = {
        "code": np.array(COUNTRIES, dtype=object),
        "rate": np.array([7, 9, 81, 8]),
    }
    sales_schema = TableSchema("sales", [
        ColumnSpec("country", dtype="str", sensitive=True,
                   distinct_values=COUNTRIES),
        ColumnSpec("amount", dtype="int", sensitive=True, nbits=32),
        ColumnSpec("year", dtype="int", sensitive=False),
    ])
    fx_schema = TableSchema("fx", [
        ColumnSpec("code", dtype="str", sensitive=True,
                   distinct_values=COUNTRIES),
        ColumnSpec("rate", dtype="int", sensitive=True, nbits=16),
    ])
    return sales, fx, sales_schema, fx_schema


def build_client(backend, dataset, workers=2):
    sales, fx, sales_schema, fx_schema = dataset
    cluster = SimulatedCluster(ClusterConfig(backend=backend, workers=workers))
    client = SeabedSession(master_key=b"b" * 32, mode="seabed",
                          cluster=cluster, seed=9)
    client.create_plan(sales_schema, SAMPLES)
    client.create_plan(fx_schema, SAMPLES)
    client.upload("sales", sales, num_partitions=6)
    client.upload("fx", fx, num_partitions=1)
    return client


@pytest.fixture(scope="module")
def reference(dataset):
    """Ground truth from the serial backend (bit-for-bit the seed path)."""
    client = build_client("serial", dataset)
    return {
        "flat": client.query(FLAT).rows,
        "grouped": client.query(GROUPED).rows,
        "joined": client.query(JOINED).rows,
        "scan": client.scan(SCAN).rows,
    }


def normalise(rows):
    return sorted(
        tuple(sorted(
            (k, round(v, 6) if isinstance(v, float) else v) for k, v in r.items()
        ))
        for r in rows
    )


def check_metrics(result):
    for m in result.request_metrics:
        assert m.stages, "every request runs at least one stage"
        assert model([m], ClusterConfig()).server_s > 0.0
        assert m.real_time >= 0.0
        assert m.result_bytes > 0
        for stage in m.stages:
            assert stage.wall_time >= 0.0
            assert len(stage.task_times) == stage.num_tasks
            assert makespan(stage.task_times, 16) <= stage.total_cpu + 1e-12


@pytest.mark.parametrize("backend", BACKENDS)
class TestBackendEquivalence:
    def test_flat(self, backend, dataset, reference):
        client = build_client(backend, dataset)
        result = client.query(FLAT)
        assert normalise(result.rows) == normalise(reference["flat"])
        check_metrics(result)
        client.cluster.close()

    def test_grouped(self, backend, dataset, reference):
        client = build_client(backend, dataset)
        result = client.query(GROUPED)
        assert normalise(result.rows) == normalise(reference["grouped"])
        check_metrics(result)
        client.cluster.close()

    def test_joined(self, backend, dataset, reference):
        client = build_client(backend, dataset)
        result = client.query(JOINED)
        assert normalise(result.rows) == normalise(reference["joined"])
        check_metrics(result)
        client.cluster.close()

    def test_scan(self, backend, dataset, reference):
        client = build_client(backend, dataset)
        result = client.scan(SCAN)
        assert normalise(result.rows) == normalise(reference["scan"])
        check_metrics(result)
        client.cluster.close()

    def test_matches_plaintext_executor(self, backend, dataset):
        sales, fx, *_ = dataset
        client = build_client(backend, dataset)
        for sql in (FLAT, GROUPED, JOINED):
            want = execute_plain({"sales": sales, "fx": fx}, parse_query(sql))
            got = client.query(sql).rows
            assert normalise(got) == normalise(want), sql
        client.cluster.close()


class TestQueryMany:
    QUERIES = [FLAT, GROUPED, JOINED, FLAT, GROUPED]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_batch_matches_sequential(self, backend, dataset):
        client = build_client(backend, dataset, workers=3)
        sequential = [client.query(q).rows for q in self.QUERIES]
        batch = client.query_many(self.QUERIES)
        assert len(batch) == len(self.QUERIES)
        for got, want in zip(batch, sequential):
            assert normalise(got.rows) == normalise(want)
            check_metrics(got)
        client.cluster.close()

    def test_empty_batch(self, dataset):
        client = build_client("serial", dataset)
        assert client.query_many([]) == []

    def test_threads_batch_is_concurrent_safe_repeatedly(self, dataset):
        # Hammer the concurrent path a few times to surface races.
        client = build_client("threads", dataset, workers=4)
        want = normalise(client.query(GROUPED).rows)
        for _ in range(3):
            results = client.query_many([GROUPED] * 6)
            assert all(normalise(r.rows) == want for r in results)
        client.cluster.close()
