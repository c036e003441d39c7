"""Ingest throughput: incremental append vs full re-encrypt + re-save.

The paper's core economic argument (Section 3.1) is that ad-analytics
data arrives *continuously*, so update cost is what decides between
symmetric ASHE and Paillier.  Before generational appends, adding rows to
a persisted table meant re-encrypting and re-saving the whole dataset;
``SeabedSession.append_rows`` encrypts only the batch and publishes it as
a new store generation.  This benchmark measures both paths for a 1%
batch and enforces the CI floor: the append must be at least
``SPEEDUP_TARGET`` times cheaper.

The op counters additionally *prove* (not infer from timings) that the
append encrypted exactly the batch's rows, and a compaction pass records
how merging the small append generations restores full-size partitions.
A structural floor with no timing in it: at two table sizes, the view an
append serves afterwards maps exactly the batch's partitions
(``partitions_mapped_per_append``) -- the rest are shared with the view
it replaces, so an append costs O(batch), not O(table).  Two more: one
``append_rows`` calls ``os.fsync`` fewer than ``FSYNC_CEILING`` times
(``fsyncs_per_append``), and every partition directory holds one file
(``files_per_partition``, the distinct file counts).

Results go to ``results/ingest.txt`` and machine-readably to
``BENCH_ingest.json`` at the repository root.
"""

import gc
import json
import os
import platform
import tempfile
import time
from pathlib import Path
from unittest import mock

import numpy as np

from repro.bench import ResultSink, format_table
from repro.core.schema import ColumnSpec, TableSchema
from repro.core.session import SeabedSession
from repro.engine.cluster import ClusterConfig, SimulatedCluster
from repro.engine.store import StoreReader, store_generations
from repro.ops import OPS
from repro.workloads import synthetic

PARTITIONS = 32
BATCH_FRACTION = 0.01
SPEEDUP_TARGET = 10.0
COMPACT_APPENDS = 4
#: One append_rows must call os.fsync fewer times than this.  Each batch
#: partition costs two (its one file and its directory), the store
#: directory, manifest and sidecar five: 7 for a one-partition batch.
FSYNC_CEILING = 10
#: Sensitive measures, each planned with sum + min/max + var support
#: (ASHE cipher + squares + ORE columns) -- a slice of the ad-analytics
#: table's 18-measure shape, so re-encryption cost is representative.
MEASURES = 4
MASTER_KEY = b"bench-ingest-master-key-32-byte!"

QUERY = "SELECT sum(m0), count(*) FROM synth"
SAMPLES = [
    f"SELECT sum(m{i}), min(m{i}), max(m{i}), var(m{i}) FROM synth"
    for i in range(MEASURES)
]


def _columns(rows: int, seed: int) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(seed)
    columns = {
        f"m{i}": rng.integers(0, 10_000, rows).astype(np.int64)
        for i in range(MEASURES)
    }
    columns["sel"] = synthetic.selectivity_filter_column(rows, seed=seed + 1)
    return columns


def _schema() -> TableSchema:
    return TableSchema("synth", [
        *(ColumnSpec(f"m{i}", dtype="int", sensitive=True, nbits=32)
          for i in range(MEASURES)),
        ColumnSpec("sel", dtype="int", sensitive=False),
    ])


def _fresh_session() -> SeabedSession:
    cluster = SimulatedCluster(ClusterConfig())
    return SeabedSession(mode="seabed", master_key=MASTER_KEY, cluster=cluster)


def _mapped_per_append(session: SeabedSession, columns: dict) -> dict:
    """Append ``columns`` to ``synth`` and count the partitions mapped
    (``StoreReader._load_partition`` calls) against those written."""
    path = session.encrypted_table("synth").store_path
    table_partitions = sum(g["num_partitions"] for g in store_generations(path))
    with mock.patch.object(
        StoreReader, "_load_partition", autospec=True,
        side_effect=StoreReader._load_partition,
    ) as load:
        session.append_rows("synth", columns)
    return {
        "table_partitions": table_partitions,
        "batch_partitions": store_generations(path)[-1]["num_partitions"],
        "mapped": load.call_count,
    }


def test_ingest_throughput(benchmark, scale):
    rows = scale["ingest_rows"]
    batch_rows = max(1, int(rows * BATCH_FRACTION))
    record: dict = {}

    def experiment():
        with tempfile.TemporaryDirectory(prefix="seabed-ingest-") as tmp:
            base = _columns(rows, seed=1)
            batch = _columns(batch_rows, seed=7)

            # -- the streaming path: encrypt + append only the batch ----
            writer = _fresh_session()
            writer.create_plan(_schema(), SAMPLES)
            writer.upload(
                "synth", base, num_partitions=PARTITIONS,
                path=os.path.join(tmp, "stream"),
            )
            # Benchmarks run earlier in this process leave cyclic garbage
            # (dropped sessions with their stores' memory maps): collect it
            # before each timed region, so a full collection of their heap
            # -- 35-75 ms -- is not charged to whichever path it lands in.
            gc.collect()
            before = OPS.snapshot()
            t0 = time.perf_counter()
            stats = writer.append_rows("synth", batch)
            append_s = time.perf_counter() - t0
            delta = OPS.delta(before)
            assert delta.get("encrypt_rows") == batch_rows, (
                f"append encrypted {delta.get('encrypt_rows')} rows, "
                f"not just the {batch_rows}-row batch"
            )
            streamed = writer.query(QUERY).rows

            # -- the old path: re-encrypt and re-write everything -------
            resaver = _fresh_session()
            resaver.create_plan(_schema(), SAMPLES)
            merged = {
                name: np.concatenate([base[name], batch[name]])
                for name in base
            }
            gc.collect()
            t0 = time.perf_counter()
            resaver.upload(
                "synth", merged, num_partitions=PARTITIONS,
                path=os.path.join(tmp, "resave"),
            )
            resave_s = time.perf_counter() - t0
            assert resaver.query(QUERY).rows == streamed, (
                "append and re-upload answered differently"
            )

            # -- an append maps only its own generation ----------------
            small = _fresh_session()
            small.create_plan(_schema(), SAMPLES)
            small.upload(
                "synth", _columns(batch_rows, seed=3), num_partitions=4,
                path=os.path.join(tmp, "small"),
            )
            mapped = [
                _mapped_per_append(small, batch),
                _mapped_per_append(writer, _columns(batch_rows, seed=11)),
            ]

            # -- compaction keeps scan parallelism healthy --------------
            # (its appends also count fsyncs: untimed, so the wrapper is free)
            for i in range(1, COMPACT_APPENDS):
                with mock.patch.object(os, "fsync", wraps=os.fsync) as fsync:
                    writer.append_rows("synth", _columns(batch_rows, seed=11 + i))
            path = writer.encrypted_table("synth").store_path
            gens_before = store_generations(path)
            t0 = time.perf_counter()
            compaction = writer.compact_table("synth")
            compact_s = time.perf_counter() - t0
            assert compaction is not None, "compaction found nothing to merge"
            files_per_partition = sorted({
                len(files) for dirpath, _, files in os.walk(path)
                if os.path.basename(dirpath).startswith("part-")
            })

            record.update(
                rows=rows,
                batch_rows=batch_rows,
                batch_fraction=BATCH_FRACTION,
                append_s=append_s,
                append_encrypt_s=stats.encrypt_seconds,
                append_write_s=stats.write_seconds,
                resave_s=resave_s,
                speedup_x=resave_s / max(append_s, 1e-12),
                speedup_target=SPEEDUP_TARGET,
                partitions_mapped_per_append=mapped,
                fsyncs_per_append=fsync.call_count,
                fsync_ceiling=FSYNC_CEILING,
                files_per_partition=files_per_partition,
                compaction={
                    "appends": COMPACT_APPENDS + 1,
                    "generations_before": len(gens_before),
                    "generations_after": compaction["generations_after"],
                    "partitions_before": compaction["partitions_before"],
                    "partitions_after": compaction["partitions_after"],
                    "seconds": compact_s,
                },
            )

    benchmark.pedantic(experiment, rounds=1, iterations=1, warmup_rounds=0)

    record["host"] = {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
    }
    out = Path(__file__).resolve().parent.parent / "BENCH_ingest.json"
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    with ResultSink("ingest") as sink:
        sink.emit(format_table(
            ["Path", "seconds"],
            [
                [f"append_rows ({batch_rows:,} rows, 1% batch)",
                 round(record["append_s"], 4)],
                ["  of which encryption", round(record["append_encrypt_s"], 4)],
                ["  of which store write + sidecar", round(record["append_write_s"], 4)],
                [f"re-encrypt + re-save ({rows + batch_rows:,} rows)",
                 round(record["resave_s"], 3)],
            ],
            title=(
                f"Incremental ingest, {rows:,}-row table: appending 1% is "
                f"{record['speedup_x']:.0f}x cheaper than a full re-encrypt + "
                f"re-save (target >= {SPEEDUP_TARGET:.0f}x)"
            ),
        ))
        comp = record["compaction"]
        sink.emit(format_table(
            ["Compaction", ""],
            [
                ["append generations merged",
                 f"{comp['generations_before']} -> {comp['generations_after']}"],
                ["partitions",
                 f"{comp['partitions_before']} -> {comp['partitions_after']}"],
                ["seconds", round(comp["seconds"], 4)],
            ],
            title=f"Compaction after {comp['appends']} small appends",
        ))
        sink.emit(
            f"one append_rows: {record['fsyncs_per_append']} fsyncs "
            f"(ceiling < {FSYNC_CEILING}); files per partition directory: "
            f"{record['files_per_partition']}"
        )

    for entry in record["partitions_mapped_per_append"]:
        assert entry["mapped"] == entry["batch_partitions"], (
            f"appending to a {entry['table_partitions']}-partition table "
            f"mapped {entry['mapped']} partitions, not the batch's "
            f"{entry['batch_partitions']}"
        )
    assert record["fsyncs_per_append"] < FSYNC_CEILING, (
        f"one append_rows called os.fsync {record['fsyncs_per_append']} "
        f"times (ceiling: fewer than {FSYNC_CEILING})"
    )
    assert record["files_per_partition"] == [1], (
        f"partition directories hold {record['files_per_partition']} files, "
        "not one each"
    )
    assert record["speedup_x"] >= SPEEDUP_TARGET, (
        f"appending a 1% batch is only {record['speedup_x']:.1f}x cheaper "
        f"than a full re-encrypt + re-save (target {SPEEDUP_TARGET:.0f}x)"
    )
