"""Figure 8: ID-list size and response time vs selectivity.

(a) ID-list size per encoding combination: without range encoding the
    list grows with selectivity; with ranges it peaks at 50% and collapses
    at 100%; Diff+VB shrink it and Deflate shrinks it further.
(b) response time per encoding: the better-compressing stacks are also
    the faster ones (the paper's happy accident), except compact Deflate.
(c) adding an OPE selection raises response time by a roughly constant
    factor over the pure-aggregation path.
"""

import numpy as np

from repro.bench import ResultSink, format_table
from repro.core.session import SeabedSession
from repro.core.schema import ColumnSpec, TableSchema
from repro.engine.cluster import ClusterConfig, SimulatedCluster
from repro.idlist import IdList, get_codec
from repro.workloads import synthetic

SELECTIVITIES = [0.1, 0.25, 0.5, 0.75, 0.9, 1.0]
CODEC_SERIES = [
    ("Ranges & VB", "ranges+vb"),
    ("+Diff", "ranges+vb+diff"),
    ("+Deflate(Compact)", "ranges+vb+diff+deflate_compact"),
    ("+Deflate(Fast)", "ranges+vb+diff+deflate_fast"),
]


def test_fig8a_idlist_size_vs_selectivity(benchmark, scale):
    rows = scale["fig8_rows"]
    rng = np.random.default_rng(0)
    table_rows = []
    sizes = {name: [] for name, _ in CODEC_SERIES}

    def sweep():
        for sel in SELECTIVITIES:
            ids = IdList.from_mask(rng.random(rows) < sel)
            for name, codec_name in CODEC_SERIES:
                sizes[name].append(get_codec(codec_name).encoded_size(ids))

    benchmark.pedantic(sweep, rounds=1, iterations=1)

    for i, sel in enumerate(SELECTIVITIES):
        table_rows.append(
            [f"{sel:.0%}"] + [f"{sizes[n][i] / 1e3:,.1f} KB" for n, _ in CODEC_SERIES]
        )
    with ResultSink("fig8a_idlist_size") as sink:
        sink.emit(format_table(
            ["Selectivity"] + [n for n, _ in CODEC_SERIES], table_rows,
            title=f"Figure 8a: encoded ID-list size vs selectivity ({rows:,} rows)",
        ))

    # Range encoding bounds the tail: 100% selectivity is near-zero bytes.
    assert sizes["Ranges & VB"][-1] < 100
    # Peak for range-coded lists is at 50%, the incompressible point.
    peak = max(range(len(SELECTIVITIES)), key=lambda i: sizes["+Diff"][i])
    assert SELECTIVITIES[peak] == 0.5
    # Diff strictly improves on plain ranges at the peak; Deflate improves
    # on Diff.
    assert sizes["+Diff"][2] <= sizes["Ranges & VB"][2]
    assert sizes["+Deflate(Fast)"][2] <= sizes["+Diff"][2]


def test_fig8b_response_time_per_codec(benchmark, scale):
    rows = scale["fig8_rows"]
    rng = np.random.default_rng(1)
    mask50 = rng.random(rows) < 0.5
    ids = IdList.from_mask(mask50)
    times = {}

    def measure():
        import time as _t
        for name, codec_name in CODEC_SERIES:
            codec = get_codec(codec_name)
            t0 = _t.perf_counter()
            codec.encode(ids)
            times[name] = _t.perf_counter() - t0

    benchmark.pedantic(measure, rounds=1, iterations=1)

    with ResultSink("fig8b_codec_time") as sink:
        sink.emit(format_table(
            ["Encoding", "Encode time (ms, sel=50%)"],
            [(n, f"{times[n] * 1e3:.1f}") for n, _ in CODEC_SERIES],
            title="Figure 8b: worker-side encode cost per codec",
        ))
    # Compact Deflate is the slow outlier (the paper's reason to pick fast).
    assert times["+Deflate(Compact)"] > times["+Deflate(Fast)"]


def test_fig8c_ope_selection_overhead(benchmark, scale):
    rows = min(scale["fig8_rows"], 1_000_000)
    data = synthetic.generate(rows, seed=3, with_ope_column=True)
    schema = TableSchema("synth", [
        ColumnSpec("value", dtype="int", sensitive=True, nbits=32),
        ColumnSpec("ope_val", dtype="int", sensitive=True, nbits=32),
    ])
    cluster = SimulatedCluster(ClusterConfig(
        cores=100, job_startup_s=0.0005, task_startup_s=2e-5,
    ))
    client = SeabedSession(mode="seabed", cluster=cluster, seed=1)
    client.create_plan(schema, [
        "SELECT sum(value) FROM synth WHERE ope_val > 10",
    ])
    client.upload("synth", data.columns, num_partitions=64)

    results = {}

    def sweep():
        def server_s(sql):
            return cluster.model(client.query(sql).request_metrics).server_s

        results["agg"] = server_s("SELECT sum(value) FROM synth")
        # thresholds chosen for ~25/50/75% selectivity of a uniform column
        for pct, thr in ((25, 250), (50, 500), (75, 750)):
            results[pct] = server_s(
                f"SELECT sum(value) FROM synth WHERE ope_val < {thr}"
            )

    benchmark.pedantic(sweep, rounds=1, iterations=1)

    with ResultSink("fig8c_ope_overhead") as sink:
        sink.emit(format_table(
            ["Query", "Server time (ms)", "vs pure aggregation"],
            [("aggregation only", f"{results['agg'] * 1e3:,.0f}", "1.00x")] + [
                (f"+OPE selection ({pct}%)", f"{results[pct] * 1e3:,.0f}",
                 f"{results[pct] / results['agg']:.2f}x")
                for pct in (25, 50, 75)
            ],
            title=f"Figure 8c: OPE selection overhead ({rows:,} rows)",
        ))
    # The ORE comparison adds measurable but bounded overhead.
    assert all(results[p] >= results["agg"] * 0.95 for p in (25, 50, 75))
