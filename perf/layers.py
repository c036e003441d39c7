"""Fold the traced pass into per-layer metrics.

Inputs are what the benchmark can see from outside the program: the spans
its own wrappers recorded (:mod:`spans`), the public ``JobMetrics`` every
reply carries, process/thread CPU from ``/proc``, and the store directory.

Unless stated otherwise a per-op timing is the **median over the traced
ops in which that span occurs** of the span's summed duration within the
op; a layer the workload does not exercise reports 0.
"""

from __future__ import annotations

import statistics
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from repro.crypto.ashe import AsheScheme
from repro.crypto.det import DetScheme
from repro.crypto.ore import OreScheme
from repro.crypto.prf import AesNiCtrPrf
from repro.errors import Backpressure

from deploy import _CLK_TCK
from spans import CONTAINERS, Recorder
from workloads import Op

PROBE_VALUES = 200_000


@dataclass
class OpRecord:
    op_id: int
    op: Op
    seconds: float
    result: object  # QueryResult | AppendStats | compaction dict | Exception
    ok: bool = False  # set by the checker
    product_spans: int = 0
    scaled: float = 0.0  # seconds at the reference machine speed (timed pass)


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def mean(values) -> float:
    values = list(values)
    return float(sum(values) / len(values)) if values else 0.0


def service_thread_cpu() -> float:
    """CPU seconds of the in-process service's threads (asyncio loop plus
    request executors), from ``/proc/self/task/<tid>/stat``."""
    total = 0
    for thread in threading.enumerate():
        if thread.name.startswith(("seabed-service", "seabed-svc")):
            try:
                with open(f"/proc/self/task/{thread.native_id}/stat",
                          encoding="ascii", errors="replace") as fh:
                    fields = fh.read().rsplit(")", 1)[1].split()
            except OSError:
                continue
            total += int(fields[11]) + int(fields[12])
    return total / _CLK_TCK


def crypto_probes() -> dict[str, float]:
    """Fixed 200k-value kernel probes, ns per value, best of 3."""
    key = bytes(range(16))
    n = PROBE_VALUES
    values = np.random.default_rng(7).integers(0, 1 << 30, n).astype(np.int64)
    prf = AesNiCtrPrf(key)
    ashe = AsheScheme(AesNiCtrPrf(key))
    det = DetScheme(key)
    ore = OreScheme(key, nbits=32)
    cipher = ore.encrypt_column(values)
    token = ore.token(1 << 29)

    def ns(fn) -> float:
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
        return best / n * 1e9

    return {
        "crypto.prf_ns": ns(lambda: prf.eval_range(0, n)),
        "crypto.ashe_pad_ns": ns(lambda: ashe.pad_range(1, n)),
        "crypto.ashe_encrypt_ns": ns(lambda: ashe.encrypt_column(values, 1)),
        "crypto.det_encrypt_ns": ns(lambda: det.encrypt_column(values)),
        "crypto.ore_encrypt_ns": ns(lambda: ore.encrypt_column(values)),
        "crypto.ore_compare_ns": ns(lambda: ore.compare_column(cipher, token)),
    }


def _job_metrics(record: OpRecord) -> list:
    return list(getattr(record.result, "request_metrics", ()))


def fold(recorder: Recorder, records: list[OpRecord], table_rows: int) -> dict:
    """Per-layer metrics derivable from spans and reply metrics alone;
    ``records`` are the ops of the traced rounds."""
    queries = [r for r in records if r.op.action == "query" and r.ok]
    appends = [r for r in records if r.op.action == "append" and r.ok]
    n_ops = max(len(records), 1)
    self_time = recorder.self_times()

    # op id -> span name -> [total duration, total self time, count]
    per_op: dict[int, dict[str, list]] = defaultdict(lambda: defaultdict(lambda: [0.0, 0.0, 0]))
    by_name: dict[str, list] = defaultdict(list)
    for s in recorder.spans:
        by_name[s.name].append(s)
        if s.op is not None:
            cell = per_op[s.op][s.name]
            cell[0] += s.duration
            cell[1] += self_time[s.id]
            cell[2] += 1

    def per_op_median(name: str, which: int = 0, scale: float = 1e6,
                      only: list[OpRecord] | None = None) -> float:
        ops = per_op if only is None else {r.op_id: per_op[r.op_id] for r in only}
        return median(
            cells[name][which] * scale for cells in ops.values() if name in cells
        )

    def span_median(name: str, scale: float = 1e3) -> float:
        return median(s.duration * scale for s in by_name[name])

    out: dict[str, float] = {}

    # query / session / translator / decryptor ------------------------------
    out["query.parse_us"] = per_op_median("query.parse")
    out["session.self_us"] = per_op_median("session.query", which=1)
    out["session.prepare_us"] = per_op_median("session.prepare")
    out["translator.translate_us"] = per_op_median("translator.translate")
    out["translator.bind_us"] = per_op_median("translator.bind")
    out["decryptor.decrypt_us"] = per_op_median("decryptor.decrypt")
    out["decryptor.groups_per_op"] = mean(len(r.result.rows) for r in queries)
    glue = sum(
        self_time[s.id] for s in recorder.spans
        if s.op is not None and (s.name in CONTAINERS or s.name == "op")
    )
    out["session.unattributed_ratio"] = glue / max(
        sum(s.duration for s in by_name["op"]), 1e-12
    )

    # encryptor (setup upload and appends alike) ------------------------------
    batches = by_name["encryptor.encrypt_batch"]
    out["encryptor.batch_ms"] = span_median("encryptor.encrypt_batch")
    out["encryptor.rows_per_s"] = sum(s.args["rows"] for s in batches) / max(
        sum(s.duration for s in batches), 1e-12
    ) if batches else 0.0

    # crypto kernels during ops ----------------------------------------------
    kernel = [s for s in recorder.spans
              if s.op is not None and s.name.startswith("crypto.")]
    out["crypto.kernel_ms_per_op"] = sum(s.duration for s in kernel) * 1e3 / n_ops
    out["crypto.values_per_op"] = sum(int(s.args["values"]) for s in kernel) / n_ops

    # server / engine / index / idlist: spans plus the replies' JobMetrics ---
    out["server.execute_ms"] = per_op_median("server.execute", scale=1e3)
    out["server.self_ms"] = per_op_median("server.execute", which=1, scale=1e3)
    out["server.requests_per_op"] = mean(len(_job_metrics(r)) for r in queries)
    out["engine.stage_ms"] = median(
        sum(m.real_time for m in _job_metrics(r)) * 1e3 for r in queries
    )
    out["engine.tasks_per_op"] = mean(
        sum(st.num_tasks for m in _job_metrics(r) for st in m.stages)
        for r in queries
    )
    parts_total = sum(m.partitions_total for r in queries for m in _job_metrics(r))
    parts_skipped = sum(m.partitions_skipped for r in queries for m in _job_metrics(r))
    out["engine.rows_scanned_per_op"] = (
        table_rows * (parts_total - parts_skipped) / parts_total
        * mean(len(_job_metrics(r)) for r in queries)
        if parts_total else 0.0
    )
    out["index.prune_us"] = per_op_median("index.prune")
    out["index.skip_ratio"] = parts_skipped / parts_total if parts_total else 0.0
    out["index.stats_build_ms"] = per_op_median(
        "index.stats_build", scale=1e3, only=appends
    )
    out["idlist.result_bytes_per_op"] = mean(
        sum(m.result_bytes for m in _job_metrics(r)) for r in queries
    )

    # store -----------------------------------------------------------------
    out["store.open_ms"] = span_median("store.open")
    out["store.append_ms"] = span_median("store.append")
    out["store.compact_ms"] = span_median("store.compact")
    out["store.fsyncs_per_append"] = mean(
        per_op[r.op_id]["store.fsync"][2] for r in appends
    )

    # wire: codec, client, service ------------------------------------------
    out["codec.encode_us"] = per_op_median("codec.encode")
    out["codec.decode_us"] = per_op_median("codec.decode")
    frames = [s for s in by_name["codec.encode"] if s.op is not None]
    out["codec.request_bytes"] = mean(
        s.args["bytes"] for s in frames if s.args["kind"] == "req"
    )
    out["codec.reply_bytes"] = mean(
        s.args["bytes"] for s in frames if s.args["kind"] == "rep"
    )
    remote = [s for s in by_name["client.rtt"] if s.op is not None]
    wired = [r for r in queries if "client.rtt" in per_op[r.op_id]]
    out["client.rtt_ms"] = per_op_median("client.rtt", scale=1e3)
    out["client.wire_ms"] = median(
        sum(m.wire_time for m in _job_metrics(r)) * 1e3 for r in wired
    )
    requests_sent = sum(1 for s in frames if s.args["kind"] == "req")
    out["client.retries"] = float(max(requests_sent - len(remote), 0))
    out["service.queue_wait_ms"] = median(
        sum(m.queue_wait for m in _job_metrics(r)) * 1e3 for r in wired
    )
    out["service.overhead_ms"] = median(
        (
            per_op[r.op_id]["client.rtt"][0]
            - per_op[r.op_id]["codec.encode"][0]
            - per_op[r.op_id]["codec.decode"][0]
            - per_op[r.op_id]["server.execute"][0]
            - sum(m.queue_wait for m in _job_metrics(r))
        ) * 1e3
        for r in wired
    )
    out["service.rejects"] = float(sum(
        1 for r in records if isinstance(r.result, Backpressure)
    ))

    # shard / engine.transport ------------------------------------------------
    scattered = [r for r in queries
                 if any(m.shards_total for m in _job_metrics(r))]
    shards_total = sum(m.shards_total for r in scattered for m in _job_metrics(r))
    shards_skipped = sum(m.shards_skipped for r in scattered for m in _job_metrics(r))
    out["shard.scatter_width"] = mean(
        sum(m.shards_total - m.shards_skipped for m in _job_metrics(r))
        for r in scattered
    )
    out["shard.skip_ratio"] = shards_skipped / shards_total if shards_total else 0.0
    calls = [s for s in by_name["shard.call"]
             if s.op is not None and s.args.get("method") == "execute"]
    out["shard.rpc_ms"] = median(s.duration * 1e3 for s in calls)
    out["shard.worker_ms"] = median(s.args.get("worker_ms", 0.0) for s in calls)
    out["transport.rpc_overhead_ms"] = median(
        s.duration * 1e3 - s.args.get("worker_ms", 0.0) for s in calls
    )
    by_op_calls: dict[int, list[float]] = defaultdict(list)
    for s in calls:
        by_op_calls[s.op].append(s.duration)
    out["shard.straggler_ratio"] = median(
        max(d) / statistics.median(d) for d in by_op_calls.values() if len(d) > 1
    )
    coordinators = {s.id for s in by_name["coordinator.execute"]}
    out["shard.merge_ms"] = median(
        s.duration * 1e3 for s in by_name["engine.run_driver"]
        if s.parent in coordinators and s.args.get("stage") == "merge"
    )
    out["shard.failovers"] = float(sum(
        m.failovers for r in scattered for m in _job_metrics(r)
    ))

    # obs -------------------------------------------------------------------
    out["obs.spans_per_op"] = mean(r.product_spans for r in records)
    return out


def scatter_width_by_label(records: list[OpRecord]) -> dict[str, set[int]]:
    """Shards contacted per op, grouped by op label (for the claims check)."""
    widths: dict[str, set[int]] = defaultdict(set)
    for r in records:
        if r.ok and r.op.action == "query":
            for m in _job_metrics(r):
                if m.shards_total:
                    widths[r.op.label].add(m.shards_total - m.shards_skipped)
    return widths
