#!/usr/bin/env python3
"""The Seabed benchmark: four workloads, end-to-end metrics against a NoEnc
twin, and an outside-in per-layer trace.  See ``perf/README.md``.

One run (what the driver invokes)::

    python3 perf/bench.py --workload NAME --seed N --seconds S --trace 0|1

sets the workload's deployment up, replays its seeded op sequence in
rounds for ``S`` seconds, checks every answer against ``execute_plain``,
prints every metric by name with its unit, and ends with one JSON line.
``--trace 0`` measures the end-to-end metrics with nothing installed;
``--trace 1`` is the separate traced pass that yields the per-layer ones.

Without ``--workload`` it runs the whole campaign -- every workload,
``--runs`` timed runs each on consecutive seeds plus one traced run, each
in its own process -- and writes ``perf/out/results.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
    sys.exit("perf/bench.py: no src/repro beside perf/; nothing to benchmark")
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes  # noqa: E402

from repro.crypto import prf  # noqa: E402
from repro.obs import trace as obs_trace  # noqa: E402

import deploy  # noqa: E402
import layers  # noqa: E402
import spans  # noqa: E402
from layers import OpRecord, mean, median  # noqa: E402
from workloads import SMOKE_ROWS, SPECS, TABLE, Op, Workload, build, canonical  # noqa: E402

SETUPS = 3  # set-ups per run; setup_s is their median
MIN_ROUNDS = 3
#: Seconds the calibration kernel takes on the reference host at its usual
#: speed.  Times are reported as if the host ran at that speed throughout.
CALIBRATION_NOMINAL_S = 0.025
_CAL_STREAM = np.arange(1, 1_000_001, dtype=np.uint64)
_CAL_MULT = np.uint64(6364136223846793005)
_CAL_AES = Cipher(algorithms.AES(bytes(range(16))), modes.ECB())
_CAL_BLOCKS = bytes(8_000_000)


def calibrate() -> float:
    """Seconds a fixed piece of work takes right now: an interpreter loop,
    a streaming numpy pass and an AES-NI pass, the three kinds of work the
    workloads are made of.  It runs no code of the program under test.

    The sandbox's speed drifts by up to 2x over minutes and in sub-second
    bursts (CPU time per op tracks wall time: it is machine speed, not
    scheduling), so every timed block is bracketed by this kernel and
    scaled by ``CALIBRATION_NOMINAL_S / measured``.  Of the kernels tried
    over a 25-minute drift log, this mix left the least residual spread.
    """
    t0 = time.perf_counter()
    acc, seen = 0, {}
    for i in range(60_000):
        acc += (i * i) % 7
        seen[i & 255] = acc
    x = _CAL_STREAM * _CAL_MULT
    x ^= x >> np.uint64(29)
    x.sum()
    (x > _CAL_MULT).sum()
    _CAL_AES.encryptor().update(_CAL_BLOCKS)
    return time.perf_counter() - t0


def load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


# -- executing ops -----------------------------------------------------------


def _execute(session, op: Op):
    if op.action == "query":
        return session.query(op.sql)
    if op.action == "append":
        return session.append_rows(TABLE, op.batch)
    return session.compact_table(TABLE)


def _client_loop(session, ops: list[Op], out: list, recorder=None) -> None:
    """Closed loop: the next op is sent only after the previous reply."""
    tracer = obs_trace.get_tracer()
    for op in ops:
        if recorder is not None:
            tracer.clear()
            root = recorder.begin_op(op.label)
        t0 = time.perf_counter()
        try:
            result = _execute(session, op)
        except Exception as exc:  # noqa: BLE001 -- a failed op is counted, not fatal
            result = exc
        seconds = time.perf_counter() - t0
        if recorder is not None:
            recorder.end_op(*root)
            out.append(OpRecord(root[0].op, op, seconds, result,
                                product_spans=len(tracer)))
        else:
            out.append(OpRecord(-1, op, seconds, result))


def _check(records: list[OpRecord]) -> None:
    for r in records:
        if isinstance(r.result, Exception):
            r.ok = False
        elif r.op.action == "query":
            r.ok = canonical(r.result.rows) == r.op.expected
        else:
            r.ok = True


class Block:
    """One side's execution of one block: wall, CPU and checked records."""

    def __init__(self, dep: deploy.Deployment, block: list[list[Op]],
                 pids: list[int], sequential: bool = False, recorder=None):
        cpu_self, cpu_other = time.process_time(), deploy.cpu_seconds(pids)
        per_client: list[list[OpRecord]] = [[] for _ in block]
        if sequential or len(block) == 1:
            # The traced pass runs one client at a time, so every span
            # recorded while an op is open belongs to that op.
            t0 = time.perf_counter()
            for session, ops, out in zip(dep.sessions, block, per_client):
                _client_loop(session, ops, out, recorder)
        else:
            barrier = threading.Barrier(len(block) + 1)

            def client(session, ops, out):
                barrier.wait()
                _client_loop(session, ops, out)

            threads = [
                threading.Thread(target=client, args=args)
                for args in zip(dep.sessions, block, per_client)
            ]
            for t in threads:
                t.start()
            barrier.wait()
            t0 = time.perf_counter()
            for t in threads:
                t.join()
        self.wall = time.perf_counter() - t0
        self.cpu = (time.process_time() - cpu_self
                    + deploy.cpu_seconds(pids) - cpu_other)
        self.records = [r for out in per_client for r in out]
        _check(self.records)

    def scale(self, factor: float) -> None:
        """Express this block's times at the reference machine speed."""
        self.wall *= factor
        self.cpu *= factor
        for r in self.records:
            r.scaled = r.seconds * factor


class Round:
    def __init__(self) -> None:
        self.wall = 0.0  # Seabed blocks, as measured
        self.ops_per_s: list[float] = []  # per Seabed block, at reference speed
        self.slowdown: list[float] = []  # per (Seabed, NoEnc) block pair, raw
        self.cpu = 0.0
        self.records: list[OpRecord] = []  # Seabed side
        self.twin_failed = 0
        self.stored_bytes = 0
        self.rows = 0
        self.generations = 0
        self.bytes_written = 0.0
        self.compact_rewritten: list[int] = []
        self.cache_hits = 0
        self.cache_misses = 0
        self.calibration: list[float] = []


def _user_bytes(batch: dict) -> int:
    return sum(
        sum(len(str(v)) for v in col) if col.dtype == object else col.nbytes
        for col in map(np.asarray, batch.values())
    )


def _compacted_bytes(dep: deploy.Deployment, stats: dict) -> int:
    """Size of the generation directory a compaction just wrote."""
    store = dep.store_paths[0]
    return sum(
        deploy.disk_bytes(os.path.join(store, g["dir"]))
        for g in dep.sessions[0].encrypted_table(TABLE).generations
        if g["compacted_from"] and g["id"] == stats["generation"]
    )


def run_round(workload: Workload, sides: dict, scratch: str, index: int,
              sequential: bool = False, recorder=None,
              warm_up: bool = False) -> Round:
    """Replay every block once per side, Seabed and NoEnc blocks
    interleaved so both see the same machine speed.  A warm-up is the
    first block only: every block holds every kind of op."""
    spec = workload.spec
    round_ = Round()
    if spec.cycles:
        # Every round appends to a private copy of the base store, so
        # rounds start from the same state; copy + attach are untimed.
        sides = {
            name: deploy.fresh_copy(dep, scratch, f"round-{index}-{name}")
            for name, dep in sides.items()
        }
        # ... and so is faulting the copy's fresh memory maps in, which a
        # long-lived server has behind it: one untimed pass of the reads.
        reads = [op for op in workload.blocks[0][0] if op.action == "query"][:3]
        for dep in sides.values():
            for op in reads:
                dep.sessions[0].query(op.sql)
    try:
        pids = {name: dep.other_pids() for name, dep in sides.items()}
        seabed = sides.get("seabed")
        if seabed is not None:
            start_bytes = seabed.stored_bytes() if spec.cycles else 0
            cache0 = [s.cache_stats() for s in seabed.sessions]
        before = calibrate()
        for block in workload.blocks[:1] if warm_up else workload.blocks:
            for name, dep in sides.items():
                done = Block(dep, block, pids[name], sequential,
                             recorder if name == "seabed" else None)
                after = calibrate()
                round_.calibration.append(after)
                if name == "noenc":
                    round_.twin_failed += sum(not r.ok for r in done.records)
                    if seabed is not None:
                        round_.slowdown.append(seabed_wall / done.wall)
                    before = after
                    continue
                seabed_wall = done.wall
                round_.wall += done.wall
                done.scale(2 * CALIBRATION_NOMINAL_S / (before + after))
                before = after
                round_.ops_per_s.append(len(done.records) / done.wall)
                round_.cpu += done.cpu
                round_.records += done.records
                round_.compact_rewritten += [
                    _compacted_bytes(dep, r.result) for r in done.records
                    if r.op.action == "compact" and r.ok and r.result
                ]
        if seabed is not None:
            appended = sum(
                len(r.op.batch["user"]) for r in round_.records
                if r.op.action == "append" and r.ok
            )
            round_.rows = workload.rows + appended
            round_.stored_bytes = seabed.stored_bytes()
            for session, old in zip(seabed.sessions, cache0):
                new = session.cache_stats()
                round_.cache_hits += new["hits"] - old["hits"]
                round_.cache_misses += new["misses"] - old["misses"]
            if spec.cycles:
                round_.generations = len(
                    seabed.sessions[0].encrypted_table(TABLE).generations
                )
                round_.bytes_written = (
                    round_.stored_bytes - start_bytes + sum(round_.compact_rewritten)
                )
    finally:
        if spec.cycles:
            for dep in sides.values():
                dep.close()
    return round_


def run_rounds(seconds: float, min_rounds: int, one_round) -> list:
    rounds = []
    started = time.perf_counter()
    while len(rounds) < min_rounds or time.perf_counter() - started < seconds:
        rounds.append(one_round(len(rounds)))
    return rounds


# -- the two passes ----------------------------------------------------------


def _percentile(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return (values[0], values[0]) if values else (0.0, 0.0)
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def timed_pass(workload: Workload, sides: dict, scratch: str, seconds: float,
               min_rounds: int, setup_s: float) -> tuple[dict, dict, list]:
    """End-to-end metrics, nothing installed.  Returns (metrics, notes,
    Seabed records)."""
    rounds = run_rounds(
        seconds, min_rounds,
        lambda i: run_round(workload, sides, scratch, i),
    )
    records = [r for rd in rounds for r in rd.records]
    reads = [r.scaled * 1e3 for r in records if r.op.action == "query" and r.ok]
    raw_reads = [r.seconds * 1e3 for r in records if r.op.action == "query" and r.ok]
    ops_per_s = [v for rd in rounds for v in rd.ops_per_s]
    slowdown = [v for rd in rounds for v in rd.slowdown]
    calibration = [c * 1e3 for rd in rounds for c in rd.calibration]
    seabed, twin = sides["seabed"], sides["noenc"]
    last = rounds[-1]
    metrics = {
        "setup_s": setup_s,
        "query_p50_ms": _percentile(reads, 50),
        "query_p90_ms": _percentile(reads, 90),
        "ops_per_s": median(ops_per_s),
        "slowdown_vs_noenc_x": median(slowdown),
        "cpu_ms_per_op": sum(rd.cpu for rd in rounds) * 1e3 / len(records),
        "stored_bytes_per_row": last.stored_bytes / last.rows,
        "peak_rss_mb": deploy.peak_rss_mb([os.getpid()] + seabed.other_pids()),
    }
    notes = {
        "rounds": len(rounds),
        "blocks": len(ops_per_s),
        "read_samples": len(reads),
        "calibration_ms": (round(median(calibration), 3),
                           *(round(q, 3) for q in _quartiles(calibration))),
        "uncalibrated_query_p50_ms": round(_percentile(raw_reads, 50), 4),
        "ops_per_s_quartiles": _quartiles(ops_per_s),
        "slowdown_quartiles": _quartiles(slowdown),
        "noenc_stored_bytes_per_row": twin.stored_bytes() / workload.rows,
        "noenc_failed": sum(rd.twin_failed for rd in rounds),
    }
    return metrics, notes, records


def traced_pass(workload: Workload, seabed: deploy.Deployment, scratch: str,
                seconds: float, min_rounds: int, recorder: spans.Recorder,
                wrappers: spans.Wrappers) -> tuple[dict, dict, list]:
    """Per-layer metrics.  Wrappers are already installed (they saw the
    set-up); round 0 is the cold round, then untraced and traced rounds
    alternate so the tracing overhead is measured on one deployment."""
    sides = {"seabed": seabed}
    cpu = {"self": 0.0, "service": 0.0, "workers": 0.0}
    traced_rounds: list[Round] = []
    plain_rounds: list[Round] = []

    def one_round(index: int) -> Round:
        traced = index % 2 == 0
        if traced:
            wrappers.install()
        else:
            wrappers.uninstall()
        workers = seabed.other_pids()
        before = (time.process_time(), layers.service_thread_cpu(),
                  deploy.cpu_seconds(workers))
        round_ = run_round(workload, sides, scratch, index, True,
                           recorder if traced else None)
        if traced:
            cpu["self"] += time.process_time() - before[0]
            cpu["service"] += layers.service_thread_cpu() - before[1]
            cpu["workers"] += deploy.cpu_seconds(workers) - before[2]
        (traced_rounds if traced else plain_rounds).append(round_)
        return round_

    # An odd count: cold traced, then (untraced, traced) pairs.
    run_rounds(seconds, min_rounds, one_round)
    if len(traced_rounds) == len(plain_rounds):
        one_round(len(traced_rounds) + len(plain_rounds))
    wrappers.uninstall()

    records = [r for rd in traced_rounds for r in rd.records]
    metrics = layers.fold(recorder, records, workload.rows)
    metrics.update(layers.crypto_probes())
    n_ops = len(records)

    hits = sum(rd.cache_hits for rd in traced_rounds + plain_rounds)
    misses = sum(rd.cache_misses for rd in traced_rounds + plain_rounds)
    metrics["session.cache_hit_ratio"] = hits / max(hits + misses, 1)
    metrics["session.cpu_ms_per_op"] = cpu["self"] * 1e3 / n_ops
    metrics["service.cpu_ms_per_op"] = cpu["service"] * 1e3 / n_ops
    metrics["shard.worker_cpu_ms_per_op"] = cpu["workers"] * 1e3 / n_ops

    def read_ms(rounds: list[Round]) -> list[float]:
        return [r.seconds * 1e3 for rd in rounds for r in rd.records
                if r.op.action == "query" and r.ok]

    warm_traced = read_ms(traced_rounds[1:]) or read_ms(traced_rounds)
    untraced = read_ms(plain_rounds)
    metrics["session.query_p99_ms"] = _percentile(warm_traced + untraced, 99)
    base = _percentile(untraced, 50)
    metrics["obs.trace_overhead_pct"] = (
        (_percentile(warm_traced, 50) - base) / base * 100.0 if base else 0.0
    )

    # ingest-only write-side numbers (0 elsewhere)
    appends = [r.seconds * 1e3 for r in records if r.op.action == "append" and r.ok]
    metrics["ingest.append_p50_ms"] = _percentile(appends, 50)
    metrics["ingest.rows_per_s"] = median(
        (rd.rows - workload.rows) / rd.wall for rd in traced_rounds
    )
    written = sum(rd.bytes_written for rd in traced_rounds)
    user = sum(_user_bytes(r.op.batch) for r in records
               if r.op.action == "append" and r.ok)
    metrics["store.bytes_written_per_user_byte"] = written / user if user else 0.0
    metrics["store.compact_bytes_rewritten"] = mean(
        b for rd in traced_rounds for b in rd.compact_rewritten
    )
    metrics["store.generations"] = mean(rd.generations for rd in traced_rounds)
    metrics["store.read_stall_ms"] = _read_stall_ms(traced_rounds)

    notes = {
        "rounds_traced": len(traced_rounds),
        "rounds_untraced": len(plain_rounds),
        "spans": len(recorder.spans),
        "claims": _claims(workload, recorder, records, metrics),
    }
    return metrics, notes, records


def _read_stall_ms(rounds: list[Round]) -> float:
    """Slowest of the reads that follow a compaction, minus the round's
    read median: the foreground stall background rewriting causes."""
    stalls = []
    for rd in rounds:
        reads = [r.seconds for r in rd.records if r.op.action == "query" and r.ok]
        for i, r in enumerate(rd.records):
            if r.op.action == "compact":
                after = [x.seconds for x in rd.records[i + 1:i + 5]
                         if x.op.action == "query" and x.ok]
                if after and reads:
                    stalls.append((max(after) - statistics.median(reads)) * 1e3)
    return median(stalls)


def _claims(workload: Workload, recorder: spans.Recorder,
            records: list[OpRecord], metrics: dict) -> list[tuple[str, bool, bool]]:
    """(claim, holds, gates correctness).  Structural claims -- counts
    that repeat exactly -- gate; shares of wall time are reported only."""
    name = workload.spec.name
    names = {s.name for s in recorder.spans if s.op is not None}
    wire = sorted(n for n in names
                  if n.startswith(("codec.", "client.", "shard.", "coordinator.")))
    claims = []
    if name in ("scan-local", "ingest-mixed"):
        claims.append((f"no net/codec/shard span recorded (saw {wire})", not wire, True))
    if name == "scan-local":
        walls = sum(r.seconds for r in records if r.op.action == "query" and r.ok)
        stage = sum(m.real_time for r in records if r.op.action == "query" and r.ok
                    for m in r.result.request_metrics)
        decrypt = sum(s.duration for s in recorder.spans
                      if s.op is not None and s.name == "decryptor.decrypt")
        share = (stage + decrypt) / walls
        claims.append((f"engine stages + decrypt cover {share:.2f} of op wall (>= 0.8)",
                       share >= 0.8, False))
    if name == "point-remote":
        claims.append((f"index.skip_ratio {metrics['index.skip_ratio']:.2f} > 0.5",
                       metrics["index.skip_ratio"] > 0.5, True))
        reads = [r.seconds * 1e3 for r in records if r.op.action == "query" and r.ok]
        share = metrics["engine.stage_ms"] / _percentile(reads, 50)
        claims.append((f"engine.stage_ms is {share:.2f} of traced query p50 (< 0.3)",
                       share < 0.3, False))
    if name == "scatter-sharded":
        widths = layers.scatter_width_by_label(records)
        claims.append((f"grouped scatter width {sorted(widths['group-user'])} > 1",
                       bool(widths["group-user"]) and min(widths["group-user"]) > 1, True))
        claims.append((f"routed point width {sorted(widths['det-point'])} == 1",
                       widths["det-point"] == {1}, True))
    return claims


# -- one run -----------------------------------------------------------------


def run(args, contract: dict) -> dict:
    if not prf.HAVE_AESNI:
        sys.exit("perf/bench.py: crypto.prf.HAVE_AESNI is false; the benchmark "
                 "measures the paper's aes-ni configuration and will not degrade")
    spec = SPECS[args.workload]
    setups = 1 if args.smoke or args.trace else SETUPS
    min_rounds = 1 if args.smoke else MIN_ROUNDS
    os.makedirs(OUT, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="scratch-", dir=OUT)
    live: list[deploy.Deployment] = []
    recorder = spans.Recorder()
    wrappers = spans.Wrappers(recorder)
    try:
        calibrate()  # first call pays the page faults of its buffers
        workload = build(spec, args.seed, args.smoke)
        if args.corrupt_expected:
            victim = next(op for op in workload.ops() if op.action == "query")
            victim.expected = [(("corrupted", 1),)]
        if args.trace:
            wrappers.install()  # before set-up, so its encrypt/open/fsync are seen

        setup_times = []
        for i in range(setups):
            if live:
                live.pop().close()
            speed = [calibrate() for _ in range(3)]
            t0 = time.perf_counter()
            seabed = deploy.deploy(workload, "seabed", scratch, f"seabed-{i}",
                                   in_process=bool(args.trace))
            live.append(seabed)
            if not args.trace:  # the traced pass keeps its first round cold
                run_round(workload, {"seabed": seabed}, scratch, -1 - i, warm_up=True)
            elapsed = time.perf_counter() - t0
            speed += [calibrate() for _ in range(3)]
            setup_times.append(elapsed * CALIBRATION_NOMINAL_S / median(speed))
        setup_s = median(setup_times)

        if args.trace:
            metrics, notes, records = traced_pass(
                workload, seabed, scratch, args.seconds, min_rounds, recorder, wrappers)
            with open(os.path.join(OUT, f"trace-{spec.name}.json"), "w",
                      encoding="utf-8") as fh:
                json.dump(recorder.chrome_trace(), fh,
                          default=lambda o: o.item() if hasattr(o, "item") else str(o))
            declared = contract["per_layer"]
        else:
            twin = deploy.deploy(workload, "plain", scratch, "noenc")
            live.append(twin)
            sides = {"seabed": seabed, "noenc": twin}
            run_round(workload, {"noenc": twin}, scratch, -100, warm_up=True)
            metrics, notes, records = timed_pass(
                workload, sides, scratch, args.seconds, min_rounds, setup_s)
            declared = contract["end_to_end"]
    finally:
        wrappers.uninstall()
        for dep in reversed(live):
            dep.close()
        shutil.rmtree(scratch, ignore_errors=True)
    survivors = deploy.child_pids(os.getpid())
    if survivors:
        sys.exit(f"perf/bench.py: child processes {survivors} survived the run")

    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        sys.exit("perf/bench.py: metrics differ from BENCHMARK.json: "
                 f"missing {sorted(set(units) - set(metrics))}, "
                 f"undeclared {sorted(set(metrics) - set(units))}")
    failed = sum(not r.ok for r in records) + notes.get("noenc_failed", 0)
    claims = notes.get("claims", [])
    correct = failed == 0 and all(holds for _, holds, gates in claims if gates)
    report(spec, args, setup_times, metrics, units, notes, records, failed)
    return {
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]}
                    for name in units},
    }


def report(spec, args, setup_times, metrics, units, notes, records, failed) -> None:
    print(f"# workload {spec.name}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}  rows {SMOKE_ROWS if args.smoke else spec.rows}  "
          f"clients {spec.clients} (closed loop)")
    print(f"# set-ups {[round(s, 3) for s in setup_times]} s; "
          + "; ".join(f"{k} {v}" for k, v in notes.items() if k != "claims"))
    if args.trace and spec.deployment != "local":
        print("# traced pass: service hosted in-process by repro.serve (the timed "
              "pass uses a separate service process), one client at a time; "
              "shard workers are separate processes, their time comes from the "
              "replies' metrics.  obs.trace_overhead_pct compares traced and "
              "untraced rounds of this in-process deployment.")
    for name in units:
        print(f"{name:36s} {metrics[name]:>16.4f} {units[name]}")
    for claim, holds, gates in notes.get("claims", []):
        verdict = "ok" if holds else ("FAILED" if gates else "NOT MET (reported only)")
        print(f"# claim: {claim}: {verdict}")
    print(f"# ops attempted {len(records)}  failed {failed}  "
          f"failed_ops_share {failed / max(len(records), 1):.4f}")


# -- the campaign ------------------------------------------------------------


def environment(args) -> dict:
    import cryptography
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True, timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cryptography": cryptography.__version__,
        "prf_backend": "aes-ni" if prf.HAVE_AESNI else "unavailable",
        "seed": args.seed,
        "seconds": args.seconds,
        "runs": args.runs,
        "smoke": args.smoke,
        "rows": {s.name: SMOKE_ROWS if args.smoke else s.rows for s in SPECS.values()},
        "clients": {s.name: s.clients for s in SPECS.values()},
        "flush_policy": "engine.store default: fsync every column file, directory "
                        "and manifest on write/append/compact, both sides",
        "git_commit": commit,
    }


def _spawn(args, workload: str, seed: int, trace: int) -> dict:
    """One run in its own process (so peak RSS is that run's own)."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(trace)]
    if args.smoke:
        cmd.append("--smoke")
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        sys.exit(f"perf/bench.py: run {cmd[2:]} exited with {done.returncode}")
    sys.stdout.write(done.stdout)
    return json.loads(done.stdout.rstrip().rsplit("\n", 1)[-1])


def campaign(args) -> int:
    env = environment(args)
    print("# environment: " + json.dumps(env))
    labels = [chr(ord("A") + i) for i in range(args.sets)]
    sets = {label: {name: {"timed": [], "traced": None} for name in SPECS}
            for label in labels}
    for i in range(args.runs):
        # A/B/A/B, the order flipped every run, so every set sees the
        # same machine drift.
        for label in (labels if i % 2 == 0 else labels[::-1]):
            for name in SPECS:
                sets[label][name]["timed"].append(_spawn(args, name, args.seed + i, 0))
    for name in SPECS:
        sets[labels[0]][name]["traced"] = _spawn(args, name, args.seed, 1)

    os.makedirs(OUT, exist_ok=True)
    paths = []
    for label in labels:
        suffix = "" if args.sets == 1 else f"-{label}"
        paths.append(os.path.join(OUT, f"results{suffix}.json"))
        with open(paths[-1], "w", encoding="utf-8") as fh:
            json.dump({"environment": env, "workloads": sets[label]}, fh, indent=1)
        print(f"# wrote {paths[-1]}")
    ok = all(run["correct"] for label in labels for name in SPECS
             for run in sets[label][name]["timed"] + [sets[label][name]["traced"]]
             if run is not None)
    if args.sets == 2:
        import compare
        return max(compare.main(paths), 0 if ok else 1)
    return 0 if ok else 1


def main() -> int:
    contract = load_contract()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(SPECS))
    parser.add_argument("--seed", type=int, default=12)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="thousands of rows, one set-up, one round")
    parser.add_argument("--corrupt-expected", action="store_true",
                        help="self-test: corrupt one expected answer; it must be "
                             "counted as failed")
    parser.add_argument("--runs", type=int, default=3,
                        help="campaign: timed runs per workload (seeds seed..seed+runs-1)")
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1,
                        help="campaign: 2 interleaves two sets of runs and compares them")
    args = parser.parse_args()
    if args.seconds is None:
        args.seconds = 0.0 if args.smoke else float(contract["run_seconds"])
    if args.workload is None:
        return campaign(args)
    result = run(args, contract)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
