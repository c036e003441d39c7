"""Figure 6: end-to-end latency vs dataset size.

Paper setup: 100 cores, 0.25-1.75 B rows; NoEnc flat at ~0.6 s (task
startup dominated), Seabed growing linearly from ~1.8 s to ~11 s
(selectivity 50% worst case; 100% best case), Paillier >1000 s.

Here the same four series run at laptop scale on the 100-core simulated
cluster.  Selectivity uses the paper's random row-selection model via a
uniform filter column.  Shape checks: NoEnc roughly flat; Seabed linear
and within ~2x of NoEnc at sel=100%; sel=50% above sel=100%; Paillier
orders of magnitude above both.
"""

import numpy as np

from repro.bench import ResultSink, format_table
from repro.core.session import SeabedSession
from repro.core.schema import ColumnSpec, TableSchema
from repro.workloads import synthetic


def _build_client(mode, rows, cluster, scale):
    data = synthetic.generate(rows, seed=1)
    columns = dict(data.columns)
    columns["sel"] = synthetic.selectivity_filter_column(rows, seed=2)
    schema = TableSchema("synth", [
        ColumnSpec("value", dtype="int", sensitive=True, nbits=32),
        ColumnSpec("sel", dtype="int", sensitive=False),
    ])
    client = SeabedSession(
        mode=mode, cluster=cluster, paillier_bits=scale["paillier_bits"],
        paillier_blinding_pool=32, seed=1,
    )
    client.create_plan(schema, ["SELECT sum(value) FROM synth WHERE sel < 10"])
    client.upload("synth", columns, num_partitions=min(400, max(rows // 50_000, 8)))
    return client


def _median_latency(client, sql, repeats=3):
    times = [
        client.cluster.model(client.query(sql).request_metrics).total_s
        for _ in range(repeats)
    ]
    return float(np.median(times))


def test_fig6_latency_vs_rows(benchmark, scale, paper_cluster):
    series: dict[str, list[tuple[int, float]]] = {
        "NoEnc": [], "Seabed sel=100%": [], "Seabed sel=50%": [], "Paillier": [],
    }

    def sweep():
        for rows in scale["fig6_rows"]:
            plain = _build_client("plain", rows, paper_cluster, scale)
            seabed = _build_client("seabed", rows, paper_cluster, scale)
            paillier = _build_client("paillier", rows, paper_cluster, scale)
            full = "SELECT sum(value) FROM synth"
            half = "SELECT sum(value) FROM synth WHERE sel < 500000"
            series["NoEnc"].append((rows, _median_latency(plain, full)))
            series["Seabed sel=100%"].append((rows, _median_latency(seabed, full)))
            series["Seabed sel=50%"].append((rows, _median_latency(seabed, half)))
            series["Paillier"].append((rows, _median_latency(paillier, full, repeats=1)))

    benchmark.pedantic(sweep, rounds=1, iterations=1)

    headers = ["Rows"] + list(series)
    table_rows = []
    for i, rows in enumerate(scale["fig6_rows"]):
        table_rows.append([f"{rows:,}"] + [
            f"{series[s][i][1] * 1e3:,.0f} ms" for s in series
        ])
    with ResultSink("fig6_latency_vs_rows") as sink:
        sink.emit(format_table(
            headers, table_rows,
            title="Figure 6: median end-to-end latency vs rows (100 simulated cores)",
        ))
        last = {s: series[s][-1][1] for s in series}
        sink.emit(format_table(
            ["Shape check", "Paper", "Measured"],
            [
                ("Paillier / Seabed(100%) at max rows", ">100x",
                 f"{last['Paillier'] / last['Seabed sel=100%']:,.0f}x"),
                ("Seabed(50%) >= Seabed(100%)", "yes",
                 str(last['Seabed sel=50%'] >= last['Seabed sel=100%'])),
                ("Seabed(100%) / NoEnc at max rows", "1.1-3x",
                 f"{last['Seabed sel=100%'] / last['NoEnc']:.2f}x"),
            ],
            title="Paper-vs-measured",
        ))

    assert last["Paillier"] > 20 * last["Seabed sel=100%"]
    assert last["Seabed sel=50%"] >= 0.95 * last["Seabed sel=100%"]
    # NoEnc stays near its startup floor: last point within 3x of first.
    noenc = series["NoEnc"]
    assert noenc[-1][1] < 3 * noenc[0][1] + 0.5
