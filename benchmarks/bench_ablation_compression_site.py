"""Ablation: compress ID lists at the workers vs at the driver.

Section 4.5: driver-side compression can compress better (one combined
list) but serialises the work at the driver, which the paper found to be
a bottleneck; Seabed compresses at the workers.  We measure both paths
by setting ``ServerQuery.compress_at`` on the translated requests.
"""

from dataclasses import replace

from repro.bench import ResultSink, format_table
from repro.core.session import SeabedSession
from repro.core.schema import ColumnSpec, TableSchema
from repro.workloads import synthetic


def test_ablation_compression_site(benchmark, scale, paper_cluster):
    rows = scale["fig8_rows"]
    data = synthetic.generate(rows, seed=1)
    columns = dict(data.columns)
    columns["sel"] = synthetic.selectivity_filter_column(rows, seed=2)
    schema = TableSchema("synth", [
        ColumnSpec("value", dtype="int", sensitive=True, nbits=32),
        ColumnSpec("sel", dtype="int", sensitive=False),
    ])
    client = SeabedSession(mode="seabed", cluster=paper_cluster, seed=1)
    client.create_plan(schema, ["SELECT sum(value) FROM synth"])
    client.upload("synth", columns, num_partitions=128)
    sql = "SELECT sum(value) FROM synth WHERE sel < 500000"

    results = {}

    def run_both():
        for site in ("worker", "driver"):
            prepared = client.prepare(sql)
            prepared.translation.requests = [
                replace(q, compress_at=site) for q in prepared.translation.requests
            ]
            r = prepared.execute()
            driver_stage = [
                s for m in r.request_metrics for s in m.stages if s.name == "merge"
            ][0]
            results[site] = {
                "server": paper_cluster.model(r.request_metrics).server_s,
                "driver_merge": driver_stage.wall_time,
                "result_bytes": r.result_bytes,
            }

    benchmark.pedantic(run_both, rounds=1, iterations=1)

    with ResultSink("ablation_compression_site") as sink:
        sink.emit(format_table(
            ["Site", "Server time (ms)", "Driver merge (ms)", "Result bytes"],
            [
                (site, f"{v['server'] * 1e3:,.0f}",
                 f"{v['driver_merge'] * 1e3:,.1f}", f"{v['result_bytes']:,}")
                for site, v in results.items()
            ],
            title="Ablation: worker-side vs driver-side ID-list compression",
        ))

    # Driver-side compression may shrink the payload, but it serialises:
    # the driver's merge stage does strictly more work.
    assert results["driver"]["driver_merge"] > results["worker"]["driver_merge"]
    # Both answers already verified equal in the integration tests.
