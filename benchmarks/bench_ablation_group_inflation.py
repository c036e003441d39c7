"""Ablation: the group-inflation optimisation on and off.

Section 4.5 / Figure 9a: with fewer groups than workers, most reducers
idle and the per-group ID lists are dense; appending a pseudo-random
suffix multiplies the reduce keys.  We compare reduce-stage parallelism
and latency with the optimisation disabled and enabled.
"""


from repro.bench import ResultSink, format_table
from repro.core.session import SeabedSession
from repro.core.schema import ColumnSpec, TableSchema
from repro.workloads import synthetic


def test_ablation_group_inflation(benchmark, scale):
    from repro.engine.cluster import ClusterConfig, SimulatedCluster

    rows = scale["fig9a_rows"]
    cluster = SimulatedCluster(ClusterConfig(  # scaled like fig9a's cluster
        cores=100, job_startup_s=0.0005, task_startup_s=2e-5,
        shuffle_bandwidth_bytes_s=2e6,
    ))
    groups = 10  # the paper's worst case: far fewer groups than workers
    data = synthetic.generate(rows, seed=4, num_groups=groups)
    schema = TableSchema("synth", [
        ColumnSpec("value", dtype="int", sensitive=True, nbits=32),
        ColumnSpec("grp", dtype="int", sensitive=True),
    ])
    client = SeabedSession(mode="seabed", cluster=cluster, seed=1)
    client.create_plan(schema, [
        "SELECT grp, sum(value) FROM synth GROUP BY grp",
    ])
    client.upload("synth", data.columns, num_partitions=64)
    sql = "SELECT grp, sum(value) FROM synth GROUP BY grp"

    results = {}

    def run_both():
        for label, hint in (("off", None), ("on", groups)):
            r = client.query(sql, expected_groups=hint)
            reduce_stage = [
                s for m in r.request_metrics for s in m.stages
                if s.name == "group-reduce"
            ][0]
            results[label] = {
                "total": cluster.model(r.request_metrics).total_s,
                "reduce_tasks": reduce_stage.num_tasks,
                "inflation": r.translation.inflation,
                "rows": len(r.rows),
            }

    benchmark.pedantic(run_both, rounds=1, iterations=1)

    with ResultSink("ablation_group_inflation") as sink:
        sink.emit(format_table(
            ["Inflation", "Factor", "Reduce tasks", "Total time (ms)",
             "Result groups"],
            [
                (label, v["inflation"], v["reduce_tasks"],
                 f"{v['total'] * 1e3:,.0f}", v["rows"])
                for label, v in results.items()
            ],
            title=f"Ablation: group inflation ({groups} groups, 100 workers)",
        ))

    assert results["on"]["inflation"] == 10
    assert results["on"]["reduce_tasks"] > results["off"]["reduce_tasks"]
    assert results["on"]["rows"] == results["off"]["rows"] == groups
