"""Sharded scatter-gather: routed point queries and parallel aggregates.

A four-shard deployment (one worker process per node, section "sharded
execution" in README) is loaded with a user-keyed table and compared
against a single-store session holding the same rows:

- **routed point queries** -- ``WHERE user = :u`` resolves through the
  consistent-hash ring to one owning shard; the batch must skip shards
  (``shards_skipped > 0``) and beat the same batch with routing and
  rollup pruning disabled by ``ROUTING_TARGET``x (the two sides run
  interleaved, best of ``REPS`` batches each).
- **scatter-gather aggregates** -- grouped partial aggregation computed
  node-side on every shard and merged once by the coordinator; answers
  asserted bit-identical, and the sharded QPS must beat the single-store
  QPS by ``SCATTER_TARGET``x (each shard aggregates a quarter of the
  partitions concurrently, so the win survives even one-core CI boxes;
  the targets are deliberately modest because the transport hop is a
  fixed per-query cost that only amortises at real data sizes).

Results go to ``results/shard.txt`` and machine-readably to
``BENCH_shard.json`` at the repository root.
"""

import json
import os
import platform
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from repro.bench import ResultSink, format_table
from repro.core.schema import ColumnSpec, TableSchema
from repro.core.session import SeabedSession
from repro.engine.cluster import ClusterConfig, SimulatedCluster

NUM_SHARDS = 4
USERS = 256
POINT_QUERIES = 24
#: Interleaved repetitions per compared pair; the best (least-perturbed)
#: run of each side is the basis of a floor's ratio, since both sides
#: are latencies measured on the same possibly noisy, one-core CI box.
REPS = 7
ROUTING_TARGET = 1.1
SCATTER_TARGET = 1.1
MASTER_KEY = b"bench-sharded-scatter-key-32-byt"

SAMPLES = [
    "SELECT sum(revenue), count(*) FROM synth WHERE user = 1",
    "SELECT user, sum(revenue) FROM synth GROUP BY user",
]
POINT = "SELECT sum(revenue), count(*) FROM synth WHERE user = :u"
GROUPED = "SELECT user, sum(revenue), count(*) FROM synth GROUP BY user"


def _columns(rows: int) -> dict:
    rng = np.random.default_rng(5)
    return {
        "user": rng.integers(0, USERS, rows).astype(np.int64),
        "revenue": rng.integers(0, 10_000, rows).astype(np.int64),
    }


def _schema() -> TableSchema:
    return TableSchema("synth", [
        ColumnSpec("user", dtype="int", sensitive=True),
        ColumnSpec("revenue", dtype="int", sensitive=True, nbits=32),
    ])


def _point_batch(prepared, targets) -> tuple[float, list, int, int]:
    rows_out = []
    skipped = total = 0
    t0 = time.perf_counter()
    for u in targets:
        result = prepared.execute(u=int(u))
        rows_out.append(result.rows)
        skipped += sum(m.shards_skipped for m in result.request_metrics)
        total += sum(m.shards_total for m in result.request_metrics)
    return time.perf_counter() - t0, rows_out, skipped, total


@contextmanager
def _unrouted(coordinator):
    """Ring routing and rollup pruning off: every query scatters to
    every shard."""
    original_route = coordinator.route_filter
    coordinator.pruning = False
    coordinator.route_filter = lambda filt: None
    try:
        yield
    finally:
        coordinator.pruning = True
        coordinator.route_filter = original_route


def test_shard_scatter_gather(benchmark, scale):
    rows = scale["shard_rows"]
    record: dict = {}

    def experiment():
        with tempfile.TemporaryDirectory(prefix="seabed-shard-") as tmp:
            columns = _columns(rows)

            single = SeabedSession(
                mode="seabed", master_key=MASTER_KEY,
                cluster=SimulatedCluster(ClusterConfig()),
            )
            single.create_plan(_schema(), SAMPLES)
            single.upload("synth", columns, num_partitions=NUM_SHARDS * 8)

            config = ClusterConfig(
                storage_dir=tmp,
                append_partition_rows=max(rows // (NUM_SHARDS * 8), 1),
            )
            sharded = SeabedSession(
                mode="seabed", master_key=MASTER_KEY,
                cluster=SimulatedCluster(config),
            )
            sharded.create_plan(_schema(), SAMPLES)
            sharded.shard_table("synth", "user", num_shards=NUM_SHARDS)
            sharded.upload("synth", columns)

            rng = np.random.default_rng(9)
            targets = rng.choice(USERS, POINT_QUERIES, replace=False)
            prepared = sharded.prepare(POINT)
            prepared.execute(u=int(targets[0]))  # warm workers and caches

            coordinator = sharded.server.sharded("synth")
            routed_times = []
            full_times = []
            for _ in range(REPS):
                routed_s, routed_rows, skipped, shards_total = _point_batch(
                    prepared, targets
                )
                routed_times.append(routed_s)
                assert skipped > 0, "routed point queries skipped no shards"
                with _unrouted(coordinator):
                    full_s, full_rows, full_skipped, _ = _point_batch(
                        prepared, targets
                    )
                full_times.append(full_s)
                assert full_skipped == 0
                assert routed_rows == full_rows, (
                    "shard routing changed point-query answers"
                )
            routed_s, full_s = min(routed_times), min(full_times)

            single_prepared = single.prepare(POINT)
            single_s, single_rows, _, _ = _point_batch(
                single_prepared, targets
            )
            assert routed_rows == single_rows, (
                "sharded execution changed point-query answers"
            )

            def rows_sorted(result):
                return sorted(
                    result.rows, key=lambda r: sorted(r.items())
                )

            sharded_times = []
            single_times = []
            for _ in range(REPS):
                t0 = time.perf_counter()
                grouped_sharded = sharded.query(GROUPED)
                sharded_times.append(time.perf_counter() - t0)
                t0 = time.perf_counter()
                grouped_single = single.query(GROUPED)
                single_times.append(time.perf_counter() - t0)
            grouped_sharded_s = min(sharded_times)
            grouped_single_s = min(single_times)
            assert rows_sorted(grouped_sharded) == rows_sorted(
                grouped_single
            ), "scatter-gathered group-by changed answers"

            record.update(
                rows=rows,
                shards=NUM_SHARDS,
                point_queries=POINT_QUERIES,
                reps=REPS,
                routed_s=routed_s,
                unrouted_s=full_s,
                routed_speedup_x=full_s / max(routed_s, 1e-12),
                routing_target=ROUTING_TARGET,
                scatter_target=SCATTER_TARGET,
                shards_total=shards_total,
                shards_skipped=skipped,
                point_qps=POINT_QUERIES / max(routed_s, 1e-12),
                single_point_qps=POINT_QUERIES / max(single_s, 1e-12),
                grouped_qps=1.0 / max(grouped_sharded_s, 1e-12),
                single_grouped_qps=1.0 / max(grouped_single_s, 1e-12),
                single_store_speedup_x=(
                    grouped_single_s / max(grouped_sharded_s, 1e-12)
                ),
            )
            sharded.close()

    benchmark.pedantic(experiment, rounds=1, iterations=1, warmup_rounds=0)

    record["host"] = {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
    }
    out = Path(__file__).resolve().parent.parent / "BENCH_shard.json"
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    with ResultSink("shard") as sink:
        sink.emit(format_table(
            ["Path", "QPS", "shards touched"],
            [
                ["routed point (ring + rollups)",
                 round(record["point_qps"], 1),
                 record["shards_total"] - record["shards_skipped"]],
                ["unrouted point (all shards)",
                 round(POINT_QUERIES / record["unrouted_s"], 1),
                 record["shards_total"]],
                ["single-store point",
                 round(record["single_point_qps"], 1), "-"],
                ["scatter-gather group-by",
                 round(record["grouped_qps"], 1), NUM_SHARDS],
                ["single-store group-by",
                 round(record["single_grouped_qps"], 1), "-"],
            ],
            title=(
                f"{POINT_QUERIES} DET point queries over {record['rows']:,} "
                f"rows x {NUM_SHARDS} shards: routing is "
                f"{record['routed_speedup_x']:.1f}x faster than full "
                f"scatter (target >= {ROUTING_TARGET}x); group-by "
                f"scatter-gather runs at "
                f"{record['single_store_speedup_x']:.2f}x single-store"
            ),
        ))

    assert record["routed_speedup_x"] >= ROUTING_TARGET, (
        f"ring-routed point queries are only "
        f"{record['routed_speedup_x']:.2f}x faster than full scatter "
        f"(target {ROUTING_TARGET}x)"
    )
    assert record["single_store_speedup_x"] >= SCATTER_TARGET, (
        f"scatter-gathered group-by runs at only "
        f"{record['single_store_speedup_x']:.2f}x single-store QPS "
        f"(target {SCATTER_TARGET}x)"
    )
