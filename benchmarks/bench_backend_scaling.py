"""Execution-backend scaling on the Figure-7 aggregation workload.

The paper's headline scalability result (Figures 6-7) comes from Spark
executing map tasks concurrently on real cores.  This benchmark runs the
same fixed Figure-7 workload (ASHE sum over a partitioned synthetic
table, at 100% and ~50% selectivity) under each execution backend --
``serial``, ``threads``, ``processes`` -- at 8 workers, and compares
*real* wall-clock (``JobMetrics.real_time``) across backends.

Results are rendered to ``results/backend_scaling.txt`` and recorded
machine-readably in ``BENCH_backends.json`` at the repository root.

What gates this benchmark:

- **Bit-identical answers**: the three backends return the same rows.
- **Backend-independent model**: ``cluster.model`` on each backend's
  job (recorded as ``model_server_s``) agrees across backends -- the
  invariant that keeps every figure benchmark reproducible regardless
  of backend.
- **Multi-core scaling** (8+ CPU hosts, e.g. the nightly runners):
  threads speedup must reach ``0.7 x min(workers, cpu_count)`` on the
  fig7 workload -- the ROADMAP's near-linear-scaling floor, recorded in
  the JSON and re-checked by CI's artifact-verification step.

Speedups on smaller hosts are recorded, not gated: on 1-2 vCPUs the
threads backend reads 0.5-0.85x serial (the GIL serialises the Python
between numpy kernels; ``perf/`` ``scan-local`` measured the same -16%).
"""

import json
import os
import platform
import time
from pathlib import Path

from repro.bench import ResultSink, format_table
from repro.core.session import SeabedSession
from repro.core.schema import ColumnSpec, TableSchema
from repro.engine.cluster import ClusterConfig, SimulatedCluster
from repro.workloads import synthetic

BACKENDS = ["serial", "threads", "processes"]
WORKERS = 8
PARTITIONS = 64
REPEATS = 9

#: Per-core scaling floor applied on hosts with 8+ CPUs (ROADMAP nightly gate).
MULTICORE_FLOOR_PER_CORE = 0.7
MULTICORE_MIN_CPUS = 8

FULL = "SELECT sum(value) FROM synth"
HALF = "SELECT sum(value) FROM synth WHERE sel < 500000"


def _build(backend, rows):
    cluster = SimulatedCluster(ClusterConfig(
        cores=100, job_startup_s=0.0005, task_startup_s=2e-5,
        backend=backend, workers=WORKERS,
    ))
    data = synthetic.generate(rows, seed=1)
    columns = dict(data.columns)
    columns["sel"] = synthetic.selectivity_filter_column(rows, seed=2)
    schema = TableSchema("synth", [
        ColumnSpec("value", dtype="int", sensitive=True, nbits=32),
        ColumnSpec("sel", dtype="int", sensitive=False),
    ])
    client = SeabedSession(mode="seabed", cluster=cluster, seed=1)
    client.create_plan(schema, [FULL])
    client.upload("synth", columns, num_partitions=PARTITIONS)
    return client


def _measure_once(client, sql, best):
    """One timed query; fold the metrics into the running ``best`` dict.

    The best repeat is taken per metric independently so the recorded
    numbers are each a stable floor rather than one arbitrary sample.
    """
    t0 = time.perf_counter()
    result = client.query(sql)
    elapsed = time.perf_counter() - t0
    assert result.rows, sql
    best["real_s"] = min(best["real_s"],
                         sum(m.real_time for m in result.request_metrics))
    best["wall_s"] = min(best["wall_s"], elapsed)
    best["model_server_s"] = min(
        best["model_server_s"],
        client.cluster.model(result.request_metrics).server_s,
    )
    return result.rows


def test_backend_scaling(benchmark, scale):
    # Own scale knob (not fig7_rows): speedups are *ratios*, so each
    # sample must be large enough that a few ms of scheduler preemption
    # cannot move it by 10%.
    rows = scale["backend_rows"]
    answers = {b: {} for b in BACKENDS}
    results = {
        b: {q: {"real_s": float("inf"), "wall_s": float("inf"),
                "model_server_s": float("inf")}
            for q in ("full", "half")}
        for b in BACKENDS
    }

    def sweep():
        # Repeats are *interleaved* across backends (serial, threads,
        # processes, serial, ...) rather than run as one block per
        # backend: machine-wide drift -- frequency scaling, a noisy
        # neighbour -- then perturbs every backend's samples alike
        # instead of biasing the speedup ratios.
        clients = {b: _build(b, rows) for b in BACKENDS}
        for client in clients.values():
            client.query(FULL)  # warm pools and the translation cache
        for _ in range(REPEATS):
            for b, client in clients.items():
                answers[b]["full"] = _measure_once(client, FULL, results[b]["full"])
                answers[b]["half"] = _measure_once(client, HALF, results[b]["half"])
        for client in clients.values():
            client.cluster.close()

    benchmark.pedantic(sweep, rounds=1, iterations=1)

    serial_full = results["serial"]["full"]["real_s"]
    serial_half = results["serial"]["half"]["real_s"]
    speedups = {
        b: {
            "full": serial_full / max(results[b]["full"]["real_s"], 1e-12),
            "half": serial_half / max(results[b]["half"]["real_s"], 1e-12),
        }
        for b in BACKENDS
    }

    table_rows = [
        [
            b,
            f"{results[b]['full']['real_s'] * 1e3:,.1f} ms",
            f"{speedups[b]['full']:.2f}x",
            f"{results[b]['half']['real_s'] * 1e3:,.1f} ms",
            f"{speedups[b]['half']:.2f}x",
            f"{results[b]['full']['model_server_s'] * 1e3:,.1f} ms",
        ]
        for b in BACKENDS
    ]
    with ResultSink("backend_scaling") as sink:
        sink.emit(format_table(
            ["Backend", "sel=100% real", "speedup", "sel=50% real", "speedup",
             "modelled server"],
            table_rows,
            title=(
                f"Backend scaling, Figure-7 workload ({rows:,} rows, "
                f"{PARTITIONS} partitions, {WORKERS} workers, "
                f"{os.cpu_count()} host CPUs)"
            ),
        ))

    cpus = os.cpu_count() or 1
    floors = {}
    if cpus >= MULTICORE_MIN_CPUS:
        floors["multicore_threads_speedup"] = (
            MULTICORE_FLOOR_PER_CORE * min(WORKERS, cpus)
        )

    record = {
        "workload": "fig7-aggregation",
        "rows": rows,
        "partitions": PARTITIONS,
        "workers": WORKERS,
        "repeats": REPEATS,
        "queries": {"full": FULL, "half": HALF},
        "hardware": {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "results": results,
        "speedup_vs_serial": {
            b: speedups[b] for b in BACKENDS if b != "serial"
        },
        "floors": floors,
    }
    out = Path(__file__).resolve().parents[1] / "BENCH_backends.json"
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    # Every backend computes the same answer, bit for bit.
    assert answers["threads"] == answers["processes"] == answers["serial"]

    # Modelled time is backend-independent (same measured task bodies
    # scheduled onto the same simulated cores); allow generous noise
    # since task timing jitters under contention.
    modelled = [results[b]["full"]["model_server_s"] for b in BACKENDS]
    assert max(modelled) < min(modelled) * 5

    # Multi-core scaling floor (the ROADMAP's nightly gate): only
    # meaningful when the host can actually overlap work.
    if cpus >= MULTICORE_MIN_CPUS:
        target = floors["multicore_threads_speedup"]
        best = max(speedups["threads"].values())
        assert best >= target, (
            f"threads backend scaled {best:.2f}x on {cpus} CPUs; "
            f"floor is {target:.2f}x (0.7 x {min(WORKERS, cpus)} cores)"
        )
