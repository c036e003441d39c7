"""Figure 10a: ad-analytics query response-time CDF.

Paper: over 15 production queries (groups of 1/4/8), Seabed's response
time is 1.08-1.45x NoEnc (median overhead 27%), while Paillier's median is
6.7x Seabed.
"""

import numpy as np
import pytest

from repro.bench import ResultSink, cdf_points, format_table
from repro.core.session import SeabedSession
from repro.workloads import adanalytics


@pytest.fixture(scope="module")
def clients(scale, paper_cluster):
    dataset = adanalytics.generate(rows=scale["ada_rows"], seed=0)
    samples = adanalytics.sample_queries(dataset)
    out = {}
    for mode in ("plain", "seabed", "paillier"):
        client = SeabedSession(mode=mode, cluster=paper_cluster,
                              paillier_bits=scale["paillier_bits"],
                              paillier_blinding_pool=32, seed=2)
        client.create_plan(dataset.schema, samples, storage_budget=10.0)
        client.upload("ad_analytics", dataset.columns, num_partitions=32)
        out[mode] = client
    return out


def test_fig10a_response_time_cdf(benchmark, clients):
    queries = adanalytics.figure10a_queries(seed=1)
    times = {mode: [] for mode in clients}

    def run_all():
        for q in queries:
            for mode, client in clients.items():
                result = client.query(q.sql)
                times[mode].append(
                    client.cluster.model(result.request_metrics).total_s)

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    quantiles = (0.1, 0.25, 0.5, 0.75, 0.9, 1.0)
    cdfs = {mode: cdf_points(values, quantiles) for mode, values in times.items()}
    table_rows = [
        [f"p{int(q * 100)}"] + [
            f"{cdfs[mode][i][1] * 1e3:,.0f} ms"
            for mode in ("plain", "seabed", "paillier")
        ]
        for i, q in enumerate(quantiles)
    ]
    med = {mode: float(np.median(values)) for mode, values in times.items()}
    with ResultSink("fig10a_ada_cdf") as sink:
        sink.emit(format_table(
            ["Quantile", "NoEnc", "Seabed", "Paillier"], table_rows,
            title=f"Figure 10a: response-time CDF over {len(queries)} ad-analytics queries",
        ))
        sink.emit(format_table(
            ["Shape check", "Paper", "Measured"],
            [
                ("median Seabed / NoEnc", "1.27x", f"{med['seabed'] / med['plain']:.2f}x"),
                ("max Seabed / NoEnc", "1.45x",
                 f"{max(s / p for s, p in zip(times['seabed'], times['plain'])):.2f}x"),
                ("median Paillier / Seabed", "6.7x",
                 f"{med['paillier'] / med['seabed']:.2f}x"),
            ],
            title="Paper-vs-measured",
        ))

    assert med["plain"] <= med["seabed"] <= med["paillier"]
    assert med["seabed"] / med["plain"] < 3.0  # paper: 1.08-1.45x
