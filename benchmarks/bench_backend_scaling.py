"""Execution-backend scaling on the Figure-7 aggregation workload.

The paper's headline scalability result (Figures 6-7) comes from Spark
executing map tasks concurrently on real cores.  This benchmark runs the
same fixed Figure-7 workload (ASHE sum over a partitioned synthetic
table, at 100% and ~50% selectivity) under each execution backend --
``serial``, ``threads``, ``processes`` -- at 8 workers, and compares
*real* wall-clock (``JobMetrics.real_time``) across backends.  The
*simulated* makespan is also recorded; it must be backend-independent,
which is the invariant that keeps every figure benchmark reproducible
regardless of backend.

Results are rendered to ``results/backend_scaling.txt`` and recorded
machine-readably in ``BENCH_backends.json`` at the repository root.

Two floors gate this benchmark (both recorded in the JSON and re-checked
by CI's artifact-verification step):

- **Host-independent**: the threads backend must score
  ``speedup_vs_serial >= 0.9`` on *both* fig7 queries at any CPU count.
  A host with one usable CPU cannot overlap work, so this is a ceiling
  on dispatch overhead -- chunked warm-pool dispatch must cost (almost)
  nothing, never the 0.2-0.9x *losses* the per-task submit path showed.
- **Multi-core scaling** (8+ CPU hosts, e.g. the nightly runners):
  threads speedup must reach ``0.7 x min(workers, cpu_count)`` on the
  fig7 workload -- the ROADMAP's near-linear-scaling floor.
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

#: Dispatch-overhead ceiling: threads vs serial on both fig7 queries, any host.
THREADS_FLOOR = 0.9
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
    best["sim_server_s"] = min(best["sim_server_s"], result.server_time)


def test_backend_scaling(benchmark, scale):
    # Own scale knob (not fig7_rows): the 0.9x floor is a *ratio* gate,
    # so each sample must be large enough that a few ms of scheduler
    # preemption cannot move it by 10%.
    rows = scale["backend_rows"]
    results = {
        b: {q: {"real_s": float("inf"), "wall_s": float("inf"),
                "sim_server_s": float("inf")}
            for q in ("full", "half")}
        for b in BACKENDS
    }

    def sweep():
        # Repeats are *interleaved* across backends (serial, threads,
        # processes, serial, ...) rather than run as one block per
        # backend: machine-wide drift -- frequency scaling, a noisy
        # neighbour -- then perturbs every backend's samples alike
        # instead of biasing the speedup ratios, which is what the 0.9x
        # threads floor gates on.
        clients = {b: _build(b, rows) for b in BACKENDS}
        for client in clients.values():
            client.query(FULL)  # warm pools and the translation cache
        for _ in range(REPEATS):
            for b, client in clients.items():
                _measure_once(client, FULL, results[b]["full"])
                _measure_once(client, HALF, results[b]["half"])
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
            f"{results[b]['full']['sim_server_s'] * 1e3:,.1f} ms",
        ]
        for b in BACKENDS
    ]
    with ResultSink("backend_scaling") as sink:
        sink.emit(format_table(
            ["Backend", "sel=100% real", "speedup", "sel=50% real", "speedup",
             "sim makespan"],
            table_rows,
            title=(
                f"Backend scaling, Figure-7 workload ({rows:,} rows, "
                f"{PARTITIONS} partitions, {WORKERS} workers, "
                f"{os.cpu_count()} host CPUs)"
            ),
        ))

    cpus = os.cpu_count() or 1
    floors = {"threads_speedup_vs_serial": THREADS_FLOOR}
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

    # The simulated makespan is backend-independent (same measured task
    # bodies scheduled onto the same simulated cores); allow generous
    # noise since task timing jitters under contention.
    sims = [results[b]["full"]["sim_server_s"] for b in BACKENDS]
    assert max(sims) < min(sims) * 5

    # Host-independent floor: warm chunked dispatch may not *lose* to
    # serial, on any machine -- even one with a single usable CPU.
    for q in ("full", "half"):
        assert speedups["threads"][q] >= THREADS_FLOOR, (
            f"threads backend lost to serial on the {q} query: "
            f"{speedups['threads'][q]:.2f}x < {THREADS_FLOOR}x"
        )

    # Multi-core scaling floor (the ROADMAP's nightly gate): only
    # meaningful when the host can actually overlap work.
    if cpus >= MULTICORE_MIN_CPUS:
        target = floors["multicore_threads_speedup"]
        best = max(speedups["threads"].values())
        assert best >= target, (
            f"threads backend scaled {best:.2f}x on {cpus} CPUs; "
            f"floor is {target:.2f}x (0.7 x {min(WORKERS, cpus)} cores)"
        )
