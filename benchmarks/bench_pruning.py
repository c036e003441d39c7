"""Zone-map pruning: selective DET point query vs full scan.

Production encrypted stores are clustered -- by tenant, user bucket, or
arrival time -- so a selective equality predicate touches a handful of
partitions.  Without an index the server still dispatches and filters
every partition; the zone-map subsystem (``repro/index``) skips the
irrelevant ones by each partition's DET dictionary, the exact distinct
tokens the server already stores.

This benchmark attaches a user-clustered store, runs a batch of
prepared point queries (``WHERE user = :u``) with pruning on and off,
verifies the answers are bit-identical, and enforces the CI floor: no
point query touches more than ``TOUCHED_TARGET`` of the ``PARTITIONS``
partitions.  The floor counts pruned work, not time: each user lives in
one or two clustered partitions, so a working index touches at most
two, and one that stopped pruning touches all 128.  A wall-clock ratio
to the full scan is reported too (``speedup_x``) but not gated: it
moves with the cost of a full scan, which the host and every scan-side
optimisation change.

Results go to ``results/pruning.txt`` and machine-readably to
``BENCH_pruning.json`` at the repository root.
"""

import json
import os
import platform
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.bench import ResultSink, format_table
from repro.core.schema import ColumnSpec, TableSchema
from repro.core.session import SeabedSession
from repro.engine.cluster import ClusterConfig, SimulatedCluster
from repro.workloads.synthetic import clustered_ids

PARTITIONS = 128
#: ~50 distinct users per partition, each partition's dictionary.
USERS_PER_PARTITION = 50
QUERIES = 20
#: Most partitions one point query may touch (a user straddles at most
#: one partition boundary of the clustered layout).
TOUCHED_TARGET = 2
MASTER_KEY = b"bench-pruning-master-key-32-byte"

SAMPLES = ["SELECT sum(revenue) FROM synth WHERE user = 1"]


def _build_store(rows: int, tmp: str) -> tuple[SeabedSession, np.ndarray]:
    users = clustered_ids(rows, PARTITIONS * USERS_PER_PARTITION, seed=3)
    rng = np.random.default_rng(4)
    columns = {
        "user": users,
        "revenue": rng.integers(0, 10_000, rows).astype(np.int64),
    }
    schema = TableSchema("synth", [
        ColumnSpec("user", dtype="int", sensitive=True),
        ColumnSpec("revenue", dtype="int", sensitive=True, nbits=32),
    ])
    session = SeabedSession(
        mode="seabed", master_key=MASTER_KEY, cluster=SimulatedCluster(ClusterConfig())
    )
    session.create_plan(schema, SAMPLES)
    session.upload(
        "synth", columns, num_partitions=PARTITIONS, path=os.path.join(tmp, "store")
    )
    return session, users


def test_pruning_speedup(benchmark, scale):
    rows = scale["pruning_rows"]
    record: dict = {}

    def experiment():
        with tempfile.TemporaryDirectory(prefix="seabed-pruning-") as tmp:
            session, users = _build_store(rows, tmp)
            rng = np.random.default_rng(9)
            targets = rng.choice(np.unique(users), QUERIES, replace=False)
            prepared = session.prepare(
                "SELECT sum(revenue), count(*) FROM synth WHERE user = :u"
            )
            prepared.execute(u=int(targets[0]))  # warm the reader cache

            def run_batch() -> tuple[float, list, list[int], int]:
                touched = []
                total_parts = 0
                rows_out = []
                t0 = time.perf_counter()
                for u in targets:
                    result = prepared.execute(u=int(u))
                    rows_out.append(result.rows)
                    parts = sum(m.partitions_total for m in result.request_metrics)
                    touched.append(parts - sum(
                        m.partitions_skipped for m in result.request_metrics
                    ))
                    total_parts += parts
                return time.perf_counter() - t0, rows_out, touched, total_parts

            session.server.pruning = True
            pruned_s, pruned_rows, touched, parts_total = run_batch()
            session.server.pruning = False
            full_s, full_rows, full_touched, _ = run_batch()
            session.server.pruning = True
            skipped = parts_total - sum(touched)

            assert pruned_rows == full_rows, (
                "pruned execution changed query answers"
            )
            assert sum(full_touched) == parts_total
            assert skipped > 0, "selective point queries skipped nothing"

            index = session.stats("synth")
            record.update(
                rows=rows,
                partitions=PARTITIONS,
                queries=QUERIES,
                pruned_s=pruned_s,
                full_s=full_s,
                speedup_x=full_s / max(pruned_s, 1e-12),
                touched_per_query_max=max(touched),
                touched_target=TOUCHED_TARGET,
                partitions_total=parts_total,
                partitions_skipped=skipped,
                skip_fraction=skipped / max(parts_total, 1),
                index={
                    "partitions_with_stats": index["partitions_with_stats"],
                    "user_det": index["columns"].get("user__det", {}),
                },
            )

    benchmark.pedantic(experiment, rounds=1, iterations=1, warmup_rounds=0)

    record["host"] = {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
    }
    out = Path(__file__).resolve().parent.parent / "BENCH_pruning.json"
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    with ResultSink("pruning") as sink:
        sink.emit(format_table(
            ["Mode", "seconds", "partitions touched"],
            [
                ["zone-map pruned", round(record["pruned_s"], 4),
                 record["partitions_total"] - record["partitions_skipped"]],
                ["full scan", round(record["full_s"], 4),
                 record["partitions_total"]],
            ],
            title=(
                f"{QUERIES} DET point queries over {rows:,} user-clustered "
                f"rows x {PARTITIONS} partitions: pruning is "
                f"{record['speedup_x']:.1f}x faster "
                f"({record['skip_fraction']:.0%} of partitions skipped, at most "
                f"{record['touched_per_query_max']} touched a query, "
                f"target <= {TOUCHED_TARGET})"
            ),
        ))

    assert record["touched_per_query_max"] <= TOUCHED_TARGET, (
        f"a point query touched {record['touched_per_query_max']} of "
        f"{PARTITIONS} partitions (target <= {TOUCHED_TARGET})"
    )
