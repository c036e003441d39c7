"""Figure 7: server-side latency vs number of cores.

Paper: at 1.75 B rows, NoEnc bottoms out at ~1 s by 20 cores, Seabed
(sel=100%) reaches 1.35 s and (sel=50%) 8 s by 50 cores, and Paillier
stays near 1000 s even at 100 cores -- i.e. Paillier needs orders of
magnitude more cores for comparable latency.

Here the same fixed dataset is executed once per core count; the time
model (``cluster.model``) recomputes the schedule from the measured task
durations, which is exactly how added cores help a real Spark stage.
"""


from repro.bench import ResultSink, format_table
from repro.core.session import SeabedSession
from repro.core.schema import ColumnSpec, TableSchema
from repro.engine.cluster import ClusterConfig, SimulatedCluster
from repro.workloads import synthetic

CORE_COUNTS = [10, 20, 40, 60, 80, 100]


def _build(mode, rows, cluster, scale):
    data = synthetic.generate(rows, seed=1)
    columns = dict(data.columns)
    columns["sel"] = synthetic.selectivity_filter_column(rows, seed=2)
    schema = TableSchema("synth", [
        ColumnSpec("value", dtype="int", sensitive=True, nbits=32),
        ColumnSpec("sel", dtype="int", sensitive=False),
    ])
    client = SeabedSession(mode=mode, cluster=cluster,
                          paillier_bits=scale["paillier_bits"],
                          paillier_blinding_pool=32, seed=1)
    client.create_plan(schema, ["SELECT sum(value) FROM synth"])
    client.upload("synth", columns, num_partitions=200)
    return client


def test_fig7_scalability(benchmark, scale):
    rows = scale["fig7_rows"]
    series = {"NoEnc": [], "Seabed sel=100%": [], "Seabed sel=50%": [],
              "Paillier": []}

    def sweep():
        for cores in CORE_COUNTS:
            cluster = SimulatedCluster(ClusterConfig(
                cores=cores, job_startup_s=0.0005, task_startup_s=2e-5,
            ))
            plain = _build("plain", rows, cluster, scale)
            seabed = _build("seabed", rows, cluster, scale)
            paillier = _build("paillier", rows, cluster, scale)
            full = "SELECT sum(value) FROM synth"
            half = "SELECT sum(value) FROM synth WHERE sel < 500000"
            def server_s(client, sql):
                return cluster.model(client.query(sql).request_metrics).server_s

            series["NoEnc"].append(server_s(plain, full))
            series["Seabed sel=100%"].append(server_s(seabed, full))
            series["Seabed sel=50%"].append(server_s(seabed, half))
            series["Paillier"].append(server_s(paillier, full))

    benchmark.pedantic(sweep, rounds=1, iterations=1)

    table_rows = [
        [cores] + [f"{series[s][i] * 1e3:,.0f} ms" for s in series]
        for i, cores in enumerate(CORE_COUNTS)
    ]
    with ResultSink("fig7_scalability") as sink:
        sink.emit(format_table(
            ["Cores"] + list(series), table_rows,
            title=f"Figure 7: server-side latency vs cores ({rows:,} rows)",
        ))
        sink.emit(format_table(
            ["Shape check", "Paper", "Measured"],
            [
                ("every series speeds up 10 -> 100 cores", "yes", str(all(
                    series[s][0] >= series[s][-1] * 0.99 for s in series
                ))),
                ("Paillier/Seabed(100%) at 100 cores", ">100x",
                 f"{series['Paillier'][-1] / series['Seabed sel=100%'][-1]:,.0f}x"),
                ("Seabed flattens by ~50 cores", "best latency by 50 cores",
                 f"{series['Seabed sel=100%'][3] / series['Seabed sel=100%'][-1]:.2f}x"
                 " of 100-core latency at 60"),
            ],
            title="Paper-vs-measured",
        ))

    # Monotone improvement with more cores (within noise).
    for name, values in series.items():
        assert values[0] >= values[-1] * 0.99, name
    assert series["Paillier"][-1] > 20 * series["Seabed sel=100%"][-1]
