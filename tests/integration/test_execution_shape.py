"""Execution-shape invariance: how a query's work is cut up never changes
its answer.

Stages run every task in the calling thread, and ``cluster.model`` is the
only account of multi-core scaling.  So the rows a query returns must be
the same however many partitions the table is split into (one map task
each), whatever ``cores`` the model schedules onto, and wherever the
grouped ID lists are compressed (the ``compress_at`` wire field).  Every
query shape is checked: flat aggregation, group-by, join and scan.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.schema import ColumnSpec, TableSchema
from repro.core.session import SeabedSession
from repro.engine.cluster import ClusterConfig, SimulatedCluster, makespan, model
from repro.query import execute_plain, parse_query

PARTITIONS = [1, 2, 6, 13]
CORES = [1, 4, 100]

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


def build_client(dataset, num_partitions=6, cores=16):
    sales, fx, sales_schema, fx_schema = dataset
    client = SeabedSession(master_key=b"b" * 32, mode="seabed",
                           cluster=SimulatedCluster(ClusterConfig(cores=cores)),
                           seed=9)
    client.create_plan(sales_schema, SAMPLES)
    client.create_plan(fx_schema, SAMPLES)
    client.upload("sales", sales, num_partitions=num_partitions)
    client.upload("fx", fx, num_partitions=1)
    return client


@pytest.fixture(scope="module")
def clients(dataset):
    """One client per partition count, built on first use."""
    cache = {}

    def get(num_partitions):
        if num_partitions not in cache:
            cache[num_partitions] = build_client(dataset, num_partitions)
        return cache[num_partitions]

    return get


def normalise(rows):
    return sorted(
        tuple(sorted(
            (k, round(v, 6) if isinstance(v, float) else v) for k, v in r.items()
        ))
        for r in rows
    )


def plain(dataset, sql):
    sales, fx, *_ = dataset
    return normalise(execute_plain({"sales": sales, "fx": fx}, parse_query(sql)))


def check_metrics(result):
    for m in result.request_metrics:
        assert m.stages, "every request runs at least one stage"
        assert model([m], ClusterConfig()).server_s > 0.0
        assert m.result_bytes > 0
        for stage in m.stages:
            assert stage.total_cpu >= 0.0
            assert stage.wall_time >= stage.total_cpu - 1e-9  # float rounding only
            assert len(stage.task_times) == stage.num_tasks
            assert makespan(stage.task_times, 16) <= stage.total_cpu + 1e-12


@pytest.mark.parametrize("num_partitions", PARTITIONS)
class TestPartitionCount:
    def test_flat(self, num_partitions, clients, dataset):
        result = clients(num_partitions).query(FLAT)
        assert normalise(result.rows) == plain(dataset, FLAT)
        check_metrics(result)

    def test_grouped(self, num_partitions, clients, dataset):
        result = clients(num_partitions).query(GROUPED)
        assert normalise(result.rows) == plain(dataset, GROUPED)
        check_metrics(result)

    def test_joined(self, num_partitions, clients, dataset):
        result = clients(num_partitions).query(JOINED)
        assert normalise(result.rows) == plain(dataset, JOINED)
        check_metrics(result)

    def test_scan(self, num_partitions, clients, dataset):
        sales = dataset[0]
        keep = sales["amount"] > 900
        want = normalise(
            {"country": str(c), "amount": int(a)}
            for c, a in zip(sales["country"][keep], sales["amount"][keep])
        )
        result = clients(num_partitions).scan(SCAN)
        assert normalise(result.rows) == want
        check_metrics(result)

    def test_one_map_task_per_unpruned_partition(self, num_partitions, clients):
        result = clients(num_partitions).query(GROUPED)
        (m,) = result.request_metrics
        mapped = [s for s in m.stages if s.partitions_total]
        assert mapped, "a grouped query maps over the table's partitions"
        for stage in mapped:
            assert stage.partitions_total == num_partitions
            assert stage.num_tasks == num_partitions - stage.partitions_skipped

    def test_interleaved_sequence_matches_plaintext(self, num_partitions, clients, dataset):
        # Shapes repeat through one session, so later runs reuse the
        # cached translation of an earlier one.
        client = clients(num_partitions)
        for sql in [FLAT, GROUPED, JOINED, FLAT, GROUPED]:
            result = client.query(sql)
            assert normalise(result.rows) == plain(dataset, sql)
            check_metrics(result)

    @pytest.mark.parametrize("sql", [FLAT, GROUPED, JOINED])
    def test_driver_compression_same_answer(self, num_partitions, sql, clients, dataset):
        prepared = clients(num_partitions).prepare(sql)
        prepared.translation.requests = [
            replace(r, compress_at="driver") for r in prepared.translation.requests
        ]
        got = prepared.execute()
        assert all(r.compress_at == "driver" for r in got.translation.requests)
        assert normalise(got.rows) == plain(dataset, sql)


@pytest.mark.parametrize("cores", CORES)
class TestModelledCores:
    def test_rows_do_not_depend_on_cores(self, cores, dataset):
        client = build_client(dataset, cores=cores)
        for sql in (FLAT, GROUPED, JOINED):
            assert normalise(client.query(sql).rows) == plain(dataset, sql), sql

    def test_model_uses_the_configured_cores(self, cores, dataset):
        client = build_client(dataset, cores=cores)
        jobs = client.query(GROUPED).request_metrics
        assert client.cluster.model(jobs) == model(jobs, ClusterConfig(cores=cores))


def test_more_modelled_cores_never_slower(dataset):
    client = build_client(dataset, num_partitions=13)
    jobs = client.query(GROUPED).request_metrics
    server = [model(jobs, ClusterConfig(cores=c)).server_s for c in (1, 2, 4, 8, 16)]
    assert server == sorted(server, reverse=True)
