"""Service layer: concurrent-session load generator and backpressure gate.

A threaded Seabed server (README section "Service layer") hosts one
persisted ciphertext store; ``service_sessions`` concurrent sessions
drive a mixed workload against it over real sockets -- mostly reads
(prepared aggregates, grouped queries) with one designated writer
appending batches between its reads.  The identical workload runs over
``LocalTransport`` sessions on a private copy of the same store as the
in-process baseline.

Two gates, both enforced at every scale:

- **throughput floor** -- remote QPS must stay >= ``QPS_FLOOR``x the
  in-process QPS.  The wire adds a fixed per-request cost (framing, one
  round trip, the admission gate), so the ratio is weakest at quick
  scale where queries are cheapest; the floor is calibrated for that
  worst case.
- **backpressure gate** -- a deliberate overload (more concurrent
  requests than ``max_in_flight`` + ``queue_depth`` can hold) must
  surface typed :class:`~repro.errors.Backpressure` rejections with a
  ``retry_after`` hint: some requests rejected, zero requests hung,
  and the server must keep answering afterwards.

Results go to ``results/service.txt`` and machine-readably to
``BENCH_service.json`` at the repository root.
"""

import json
import os
import platform
import shutil
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

import repro
from repro.bench import ResultSink, format_table
from repro.core.schema import ColumnSpec, TableSchema
from repro.core.session import SeabedSession
from repro.errors import Backpressure
from repro.net.client import RemoteTransport
from repro.net.service import ServiceConfig

QPS_FLOOR = 0.5
READS_PER_SESSION = 16
APPEND_ROWS = 64
OVERLOAD_CLIENTS = 8
MASTER_KEY = b"bench-service-layer-key-32-bytes"
REGIONS = ["us", "eu", "apac", "latam"]

SAMPLES = [
    "SELECT sum(amount) FROM events WHERE region = 'us'",
    "SELECT region, sum(amount), count(*) FROM events GROUP BY region",
    "SELECT count(*) FROM events WHERE amount > 250",
]
READS = [
    "SELECT sum(amount) FROM events WHERE region = 'us'",
    "SELECT region, sum(amount), count(*) FROM events GROUP BY region",
    "SELECT count(*) FROM events WHERE amount > 250",
]

_JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_service.json"


def _schema() -> TableSchema:
    return TableSchema("events", [
        ColumnSpec("region", dtype="str", sensitive=True,
                   distinct_values=REGIONS),
        ColumnSpec("amount", dtype="int", sensitive=True, nbits=32),
    ])


def _columns(rows: int, seed: int = 7) -> dict:
    rng = np.random.default_rng(seed)
    return {
        "region": rng.choice(REGIONS, rows),
        "amount": rng.integers(0, 1_000, rows).astype(np.int64),
    }


def _build_store(tmp: str, rows: int) -> str:
    writer = SeabedSession(master_key=MASTER_KEY, seed=2)
    writer.create_plan(_schema(), SAMPLES)
    writer.upload(
        "events", _columns(rows), num_partitions=8, path=os.path.join(tmp, "events")
    )
    return writer.save_table("events")


def _drive(sessions: list, latencies: list) -> float:
    """Run the mixed workload over already-open sessions; return wall s.

    Worker 0 is the writer: it interleaves appends with its reads.  The
    rest are pure readers.  Per-read latencies land in ``latencies``.
    """
    barrier = threading.Barrier(len(sessions))
    lock = threading.Lock()
    errors: list = []

    def work(idx: int, session) -> None:
        barrier.wait()
        local: list = []
        try:
            for i in range(READS_PER_SESSION):
                t0 = time.perf_counter()
                session.query(READS[i % len(READS)])
                local.append(time.perf_counter() - t0)
                if idx == 0 and i % 4 == 3:
                    session.append_rows(
                        "events", _columns(APPEND_ROWS, seed=100 + i)
                    )
        except Exception as exc:  # surfaced below; never silently dropped
            errors.append(exc)
        with lock:
            latencies.extend(local)

    threads = [
        threading.Thread(target=work, args=(i, s))
        for i, s in enumerate(sessions)
    ]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - t0
    if errors:
        raise errors[0]
    return wall


def _ops(n_sessions: int) -> int:
    appends = READS_PER_SESSION // 4
    return n_sessions * READS_PER_SESSION + appends


def test_service_throughput(benchmark, scale):
    rows = scale["service_rows"]
    n_sessions = scale["service_sessions"]
    record: dict = {}

    def experiment():
        with tempfile.TemporaryDirectory(prefix="seabed-svc-") as tmp:
            remote_store = _build_store(os.path.join(tmp, "remote"), rows)
            local_store = os.path.join(tmp, "local", "events")
            os.makedirs(os.path.dirname(local_store))
            shutil.copytree(remote_store, local_store)

            # in-process baseline: same store, same concurrency, no wire
            local_sessions = []
            for _ in range(n_sessions):
                s = SeabedSession(master_key=MASTER_KEY, seed=2)
                s.open_table(local_store)
                local_sessions.append(s)
            local_lat: list = []
            local_wall = _drive(local_sessions, local_lat)
            for s in local_sessions:
                s.close()

            with repro.serve(
                stores=[remote_store],
                max_in_flight=max(n_sessions, 4),
                queue_depth=4 * n_sessions,
            ) as handle:
                token = handle.mint_token("bench")
                remote_sessions = []
                for _ in range(n_sessions):
                    s = repro.connect(
                        handle.address, token, master_key=MASTER_KEY, seed=2
                    )
                    s.open_table(remote_store)
                    remote_sessions.append(s)
                remote_lat: list = []
                remote_wall = _drive(remote_sessions, remote_lat)
                for s in remote_sessions:
                    s.close()

            ops = _ops(n_sessions)
            record.update(
                rows=rows,
                sessions=n_sessions,
                ops_per_path=ops,
                local_qps=ops / max(local_wall, 1e-12),
                remote_qps=ops / max(remote_wall, 1e-12),
                local_read_p50_ms=float(np.percentile(local_lat, 50)) * 1e3,
                local_read_p99_ms=float(np.percentile(local_lat, 99)) * 1e3,
                remote_read_p50_ms=float(np.percentile(remote_lat, 50)) * 1e3,
                remote_read_p99_ms=float(np.percentile(remote_lat, 99)) * 1e3,
                qps_floor_x=QPS_FLOOR,
            )
            record["remote_vs_local_x"] = (
                record["remote_qps"] / max(record["local_qps"], 1e-12)
            )

    benchmark.pedantic(experiment, rounds=1, iterations=1, warmup_rounds=0)

    record["host"] = {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
    }
    _JSON_PATH.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    with ResultSink("service") as sink:
        sink.emit(format_table(
            ["Path", "QPS", "read p50 (ms)", "read p99 (ms)"],
            [
                ["remote (socket + admission)",
                 round(record["remote_qps"], 1),
                 round(record["remote_read_p50_ms"], 2),
                 round(record["remote_read_p99_ms"], 2)],
                ["in-process (LocalTransport)",
                 round(record["local_qps"], 1),
                 round(record["local_read_p50_ms"], 2),
                 round(record["local_read_p99_ms"], 2)],
            ],
            title=(
                f"{record['sessions']} concurrent sessions x "
                f"{READS_PER_SESSION} reads (+appends) over "
                f"{record['rows']:,} rows: remote runs at "
                f"{record['remote_vs_local_x']:.2f}x in-process QPS "
                f"(floor >= {QPS_FLOOR}x)"
            ),
        ))

    assert record["remote_vs_local_x"] >= QPS_FLOOR, (
        f"remote sessions run at only {record['remote_vs_local_x']:.2f}x "
        f"the in-process QPS (floor {QPS_FLOOR}x)"
    )


def test_service_backpressure_gate(benchmark, scale):
    """Overload must reject typed, never hang, and never take the server
    down: after the storm, the same connections keep working."""
    rows = min(scale["service_rows"], 60_000)
    outcome: dict = {}

    def experiment():
        with tempfile.TemporaryDirectory(prefix="seabed-bp-") as tmp:
            store = _build_store(tmp, rows)
            config = ServiceConfig(max_in_flight=1, queue_depth=0)
            with repro.serve(stores=[store], config=config) as handle:
                token = handle.mint_token("bench")
                sessions = []
                for _ in range(OVERLOAD_CLIENTS):
                    s = repro.connect(
                        handle.address, token, master_key=MASTER_KEY, seed=2
                    )
                    s.open_table(store)
                    sessions.append(s)
                results: list = []
                lock = threading.Lock()
                barrier = threading.Barrier(OVERLOAD_CLIENTS)
                query = READS[0]

                def storm(session):
                    barrier.wait()
                    try:
                        session.query(query)
                        verdict = ("ok", 0.0)
                    except Backpressure as exc:
                        verdict = ("rejected", float(exc.retry_after or 0))
                    except Exception:
                        verdict = ("error", 0.0)
                    with lock:
                        results.append(verdict)

                threads = [
                    threading.Thread(target=storm, args=(s,))
                    for s in sessions
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                hung = sum(1 for t in threads if t.is_alive())

                # the server survived the storm: every connection answers
                survivors = sum(
                    1
                    for s in sessions
                    if isinstance(s.transport, RemoteTransport)
                    and s.transport.ping().get("server") == "seabed"
                )
                for s in sessions:
                    s.close()

                outcome.update(
                    attempts=OVERLOAD_CLIENTS,
                    ok=sum(1 for v, _ in results if v == "ok"),
                    rejected=sum(1 for v, _ in results if v == "rejected"),
                    errors=sum(1 for v, _ in results if v == "error"),
                    hung=hung,
                    survivors=survivors,
                    retry_after_hint_s=max(
                        (hint for _, hint in results), default=0.0
                    ),
                )

    benchmark.pedantic(experiment, rounds=1, iterations=1, warmup_rounds=0)

    record = (
        json.loads(_JSON_PATH.read_text()) if _JSON_PATH.exists() else {}
    )
    record["backpressure"] = outcome
    _JSON_PATH.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    assert outcome["ok"] >= 1, "overload starved every request"
    assert outcome["rejected"] >= 1, (
        "an 8-way storm against max_in_flight=1/queue_depth=0 produced "
        "no Backpressure rejections"
    )
    assert outcome["hung"] == 0, f"{outcome['hung']} requests hung"
    assert outcome["errors"] == 0, (
        f"{outcome['errors']} requests failed untyped"
    )
    assert outcome["retry_after_hint_s"] > 0, "rejections carried no hint"
    assert outcome["survivors"] == OVERLOAD_CLIENTS, (
        "connections died during the overload storm"
    )
