"""End-to-end integration: every mode's pipeline against ground truth.

The single most important invariant in the repository: for every supported
query shape, ``SeabedSession.query`` over encrypted data returns exactly
what the plaintext executor returns, in all three modes (NoEnc, Seabed,
Paillier baseline).
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.session import SeabedSession
from repro.core.schema import ColumnSpec, TableSchema
from repro.query import execute_plain, parse_query

COUNTRIES = ["us", "ca", "in", "uk", "de"]


def normalise(rows):
    return [
        {k: (round(v, 6) if isinstance(v, float) else v) for k, v in r.items()}
        for r in rows
    ]


@pytest.fixture(scope="module")
def dataset():
    rng = np.random.default_rng(7)
    n = 1500
    data = {
        "country": rng.choice(COUNTRIES, n, p=[0.45, 0.3, 0.1, 0.1, 0.05]),
        "amount": rng.integers(-50, 1000, n),
        "year": rng.integers(2014, 2017, n),
    }
    counts = {c: int((data["country"] == c).sum()) for c in COUNTRIES}
    schema = TableSchema("sales", [
        ColumnSpec("country", dtype="str", sensitive=True,
                   distinct_values=COUNTRIES, value_counts=counts),
        ColumnSpec("amount", dtype="int", sensitive=True, nbits=32),
        ColumnSpec("year", dtype="int", sensitive=False),
    ])
    samples = [
        "SELECT sum(amount) FROM sales WHERE country = 'us'",
        "SELECT avg(amount), var(amount) FROM sales WHERE year = 2015",
        "SELECT country, sum(amount) FROM sales GROUP BY country",
        "SELECT min(amount), max(amount), median(amount) FROM sales",
        "SELECT count(*) FROM sales WHERE amount > 500",
    ]
    return data, schema, samples


def build_client(mode, dataset, partitions=5):
    data, schema, samples = dataset
    client = SeabedSession(master_key=b"q" * 32, mode=mode,
                          paillier_bits=256, seed=3)
    client.create_plan(schema, samples)
    client.upload("sales", data, num_partitions=partitions)
    return client


@pytest.fixture(scope="module", params=["plain", "seabed", "paillier"])
def client(request, dataset):
    return build_client(request.param, dataset)


QUERIES = [
    "SELECT sum(amount) FROM sales",
    "SELECT sum(amount), count(*) FROM sales WHERE year = 2015",
    "SELECT sum(amount) FROM sales WHERE country = 'us'",
    "SELECT sum(amount) FROM sales WHERE country = 'de'",
    "SELECT sum(amount), count(*) FROM sales WHERE country = 'in' AND year = 2016",
    "SELECT count(*) FROM sales WHERE country IN ('ca', 'de')",
    "SELECT count(*) FROM sales WHERE country != 'us'",
    "SELECT avg(amount) FROM sales WHERE year = 2014",
    "SELECT var(amount), stddev(amount) FROM sales WHERE year = 2016",
    "SELECT min(amount), max(amount) FROM sales",
    "SELECT median(amount) FROM sales WHERE year = 2015",
    "SELECT sum(amount) FROM sales WHERE amount > 500",
    "SELECT sum(amount) FROM sales WHERE amount BETWEEN 100 AND 200",
    "SELECT count(*) FROM sales WHERE year = 2015 AND amount >= 0",
    "SELECT count(*) FROM sales WHERE NOT year = 2015",
    "SELECT sum(amount) FROM sales WHERE year = 2014 OR year = 2016",
    "SELECT year, sum(amount), count(*) FROM sales GROUP BY year",
    "SELECT year, avg(amount) FROM sales GROUP BY year",
    "SELECT year, var(amount) FROM sales GROUP BY year",
    "SELECT country, sum(amount) FROM sales GROUP BY country",
    "SELECT country, count(*) FROM sales GROUP BY country",
    "SELECT country, avg(amount) FROM sales GROUP BY country",
    "SELECT year, sum(amount) FROM sales WHERE amount > 300 GROUP BY year",
    "SELECT year, sum(amount) AS total FROM sales GROUP BY year ORDER BY total DESC LIMIT 2",
    "SELECT sum(amount) FROM sales WHERE year = 1999",
]


@pytest.mark.parametrize("sql", QUERIES)
def test_query_matches_ground_truth(client, dataset, sql):
    data = dataset[0]
    if client.mode != "seabed" and "GROUP BY country" in sql and "var" in sql:
        pytest.skip("not applicable")
    want = execute_plain({"sales": data}, parse_query(sql))
    got = client.query(sql)
    assert normalise(got.rows) == normalise(want), sql


UNSELECTED_KEY = [
    "SELECT sum(amount) FROM sales GROUP BY year",
    "SELECT count(*), sum(amount) FROM sales GROUP BY country",
    "SELECT sum(amount) AS total FROM sales GROUP BY year ORDER BY total DESC LIMIT 2",
]


@pytest.mark.parametrize("sql", UNSELECTED_KEY)
def test_unselected_group_key_orders_rows_then_leaves_them(client, dataset, sql):
    """SQL returns only the selected columns: a GROUP BY key that is not
    selected still orders the rows, and no row carries it."""
    data = dataset[0]
    key = sql.split("GROUP BY ")[1].split()[0]
    keyed = sql.replace("SELECT ", f"SELECT {key}, ", 1)
    want = [
        {k: v for k, v in row.items() if k != key}
        for row in execute_plain({"sales": data}, parse_query(keyed))
    ]
    assert normalise(execute_plain({"sales": data}, parse_query(sql))) == normalise(want)
    assert normalise(client.query(sql).rows) == normalise(want), sql


def test_aggregate_aliased_to_group_key_keeps_its_output(client, dataset):
    """An aggregate named like the unselected group key is a selected column:
    each row keeps it, holding the aggregate, not the key."""
    data = dataset[0]
    sql = "SELECT sum(amount) AS year FROM sales GROUP BY year"
    want = execute_plain({"sales": data}, parse_query(sql))
    totals = execute_plain(
        {"sales": data},
        parse_query("SELECT year, sum(amount) AS total FROM sales GROUP BY year"),
    )
    assert sorted(row["year"] for row in want) == sorted(row["total"] for row in totals)
    assert normalise(client.query(sql).rows) == normalise(want)


class TestIncrementalUpload:
    def test_second_batch_extends_results(self, dataset):
        data, schema, samples = dataset
        client = SeabedSession(master_key=b"q" * 32, mode="seabed", seed=3)
        client.create_plan(schema, samples)
        half = {k: v[:700] for k, v in data.items()}
        rest = {k: v[700:] for k, v in data.items()}
        client.upload("sales", half, num_partitions=3)
        client.upload("sales", rest, num_partitions=3)
        want = execute_plain({"sales": data}, parse_query(QUERIES[0]))
        got = client.query(QUERIES[0])
        assert normalise(got.rows) == normalise(want)


class TestMetrics:
    def test_latency_breakdown_present(self, dataset):
        client = build_client("seabed", dataset)
        result = client.query("SELECT sum(amount) FROM sales")
        modelled = client.cluster.model(result.request_metrics)
        assert modelled.server_s > 0
        assert result.client_time > 0
        assert modelled.total_s >= modelled.server_s
        assert result.result_bytes > 0

    def test_seabed_result_smaller_than_paillier(self, dataset):
        seabed = build_client("seabed", dataset)
        paillier = build_client("paillier", dataset)
        sql = "SELECT sum(amount) FROM sales"
        # Full-table aggregation: Seabed's range-encoded ID list is tiny;
        # Paillier returns one 512-bit ciphertext.  Both are small, but the
        # paper's key claim is server compute, checked below.  Compare the
        # measured task compute, not modelled server time: the model
        # adds a shared scheduling constant that swamps the ~10x compute
        # gap at this scale and makes the comparison load-sensitive.
        def server_compute(result):
            return sum(
                stage.total_cpu
                for metrics in result.request_metrics
                for stage in metrics.stages
            )

        r_seabed = seabed.query(sql)
        r_paillier = paillier.query(sql)
        assert server_compute(r_seabed) < server_compute(r_paillier)


class TestCompressionSiteAblation:
    def test_driver_compression_same_answer(self, dataset):
        data, _, _ = dataset
        client = build_client("seabed", dataset)
        sql = "SELECT sum(amount) FROM sales WHERE amount > 250"
        want = execute_plain({"sales": data}, parse_query(sql))
        prepared = client.prepare(sql)
        prepared.translation.requests = [
            replace(r, compress_at="driver") for r in prepared.translation.requests
        ]
        got = prepared.execute()
        assert got.translation.requests[0].compress_at == "driver"
        assert normalise(got.rows) == normalise(want)


class TestSecurityPosture:
    def test_server_never_sees_plaintext_columns(self, dataset):
        client = build_client("seabed", dataset)
        table = client.server.table("sales")
        assert "amount" not in table.column_names
        assert "country" not in table.column_names
        # year is public by the schema, so it may appear in the clear.
        assert "year" in table.column_names

    def test_splashe_det_column_is_balanced(self, dataset):
        from repro.attacks.frequency import uniformity_chi2

        client = build_client("seabed", dataset)
        det_col = client.server.table("sales").column("country__det")
        assert uniformity_chi2(det_col) > 0.5

    def test_wrong_key_decrypts_garbage(self, dataset):
        data, schema, samples = dataset
        right = build_client("seabed", dataset)
        # The wrong-key client shares the right client's server state.
        wrong = SeabedSession(
            master_key=b"x" * 32, mode="seabed", seed=3, transport=right.transport
        )
        wrong.create_plan(schema, samples)
        wrong.table_state("sales").dictionaries.update(
            right.table_state("sales").dictionaries
        )
        got = wrong.query("SELECT sum(amount) FROM sales")
        want = execute_plain({"sales": data}, parse_query("SELECT sum(amount) FROM sales"))
        assert got.rows[0]["sum(amount)"] != want[0]["sum(amount)"]
