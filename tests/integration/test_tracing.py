"""End-to-end tracing: one remote sharded query must produce one
stitched trace whose spans cover client encode, the wire, the service
queue, the server's stages, and every contacted shard worker -- with
span parentage holding across at least three OS processes (client,
threaded service, fork+pipe shard workers).

Also covered: the ``metrics``/``trace`` introspection RPCs (Prometheus
text a scraper can parse, kernel counters included), failover
annotations on traces that survive a shard-worker death, version-skew
degradation (a peer that never sends trace context yields a local-only
trace, not an error), and the leakage audit over live exports.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import repro
from repro.attacks.telemetry import audit_telemetry
from repro.core.schema import ColumnSpec, TableSchema
from repro.core.session import SeabedSession
from repro.engine.cluster import ClusterConfig, SimulatedCluster
from repro.net.client import RemoteTransport
from repro.obs import trace as obs_trace
from repro.obs.trace import chrome_trace

KEY = b"w" * 32
TOKEN = "integration-token"
REGIONS = ["ber", "del", "lag", "lim", "osl", "rio", "sfo", "tok"]
N = 360

SCHEMA = TableSchema("sales", [
    ColumnSpec("region", dtype="str", sensitive=True),
    ColumnSpec("day", dtype="int", sensitive=True, nbits=16),
    ColumnSpec("amount", dtype="int", sensitive=True, nbits=32),
])
SAMPLES = [
    "SELECT sum(amount) FROM sales WHERE region = 'rio'",
    "SELECT region, sum(amount), count(*) FROM sales GROUP BY region",
    "SELECT sum(amount), var(amount) FROM sales WHERE day > 10",
    "SELECT min(amount), max(amount), median(amount) FROM sales",
]
GROUPED = "SELECT region, sum(amount), count(*) FROM sales GROUP BY region"
FILTERED = "SELECT sum(amount) FROM sales WHERE region = 'rio'"


def _data(seed=3, n=N):
    rng = np.random.default_rng(seed)
    return {
        "region": rng.choice(REGIONS, n).tolist(),
        "day": rng.integers(0, 60, n),
        "amount": rng.integers(-50, 900, n),
    }


def _plan(session):
    session.create_plan(SCHEMA, SAMPLES)
    return session


def _spawn_server(tmp_path, *args):
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    info = str(tmp_path / "info.json")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.net.service",
         "--grant", f"alice:{TOKEN}", "--info-file", info, *args],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    deadline = time.monotonic() + 60
    while not os.path.exists(info):
        if proc.poll() is not None or time.monotonic() > deadline:
            out = proc.stdout.read() if proc.stdout else ""
            proc.kill()
            raise RuntimeError(f"service process failed to start:\n{out}")
        time.sleep(0.05)
    with open(info) as fh:
        addr = json.load(fh)
    return proc, (addr["host"], addr["port"])


@pytest.fixture(autouse=True)
def _clean_tracer():
    obs_trace.set_enabled(True)
    obs_trace.get_tracer().clear()
    yield
    obs_trace.set_enabled(True)
    obs_trace.get_tracer().clear()


@pytest.fixture(scope="module")
def sharded_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("trace-sharded")
    config = ClusterConfig(storage_dir=str(root), append_partition_rows=128)
    writer = SeabedSession(master_key=KEY, seed=1, cluster=SimulatedCluster(config))
    _plan(writer)
    writer.shard_table("sales", "region", num_shards=4, replicas=1)
    writer.upload("sales", _data())
    path = writer.encrypted_table("sales").root
    writer.close()
    return path


@pytest.fixture(scope="module")
def sharded_server(sharded_root, tmp_path_factory):
    proc, address = _spawn_server(
        tmp_path_factory.mktemp("trace-srv"), "--sharded", sharded_root,
    )
    yield address, sharded_root
    proc.terminate()
    proc.wait(timeout=15)


@pytest.fixture
def remote(sharded_server):
    address, root = sharded_server
    session = repro.connect(address, TOKEN, master_key=KEY, seed=1)
    session.open_sharded(root)
    yield session
    session.close()


def _traced_query(session, sql):
    """Run ``sql`` under a root span; return (result, stitched spans)."""
    with obs_trace.span("test:root"):
        result = session.query(sql)
        ctx = obs_trace.current_context()
    spans = obs_trace.get_tracer().spans(trace_id=ctx["trace_id"])
    return result, spans


class TestStitchedTrace:
    def test_one_query_one_trace_across_three_processes(self, remote):
        result, spans = _traced_query(remote, GROUPED)
        assert result.rows  # the query itself worked

        # One trace: every span carries the same trace id.
        assert len({s.trace_id for s in spans}) == 1

        # ...across at least three OS processes: client, service, and at
        # least one forked shard worker.
        pids = {s.pid for s in spans}
        assert len(pids) >= 3, f"expected >=3 processes, saw {pids}"
        labels = {s.process for s in spans}
        assert "seabed-service" in labels
        workers = {p for p in labels if p.startswith("shard-node-")}
        assert workers, labels

        # The span set covers every layer the query crossed.
        names = {s.name for s in spans}
        for expected in ("test:root", "query:aggregate", "client:bind",
                         "wire:execute", "service:execute", "server:execute",
                         "worker:execute", "client:decrypt"):
            assert expected in names, f"missing {expected}: {sorted(names)}"

    def test_span_parentage_crosses_process_boundaries(self, remote):
        _, spans = _traced_query(remote, GROUPED)
        by_id = {s.span_id: s for s in spans}
        by_name = {}
        for s in spans:
            by_name.setdefault(s.name, []).append(s)

        def one(name):
            assert len(by_name.get(name, [])) == 1, name
            return by_name[name][0]

        # client chain: root -> aggregate -> wire
        assert one("query:aggregate").parent_id == one("test:root").span_id
        wire = one("wire:execute")
        assert wire.parent_id == one("query:aggregate").span_id

        # wire -> service (first process hop)
        service = one("service:execute")
        assert service.parent_id == wire.span_id
        assert service.pid != wire.pid

        # service -> workers (second process hop).  Every worker:execute
        # span parents under a span recorded by the service process.
        worker_spans = by_name["worker:execute"]
        assert worker_spans
        for w in worker_spans:
            assert w.trace_id == wire.trace_id
            assert by_id[w.parent_id].pid == service.pid
            assert w.pid != service.pid

        # Global stitching: every span's parent chain resolves inside the
        # trace and terminates at the client-side root -- across all
        # three processes, nothing is orphaned.
        root = one("test:root")
        for s in spans:
            hops = 0
            while s.span_id != root.span_id:
                assert s.parent_id in by_id, f"orphaned span {s.name}"
                s = by_id[s.parent_id]
                hops += 1
                assert hops < len(spans), "parent cycle"

    def test_every_contacted_shard_worker_appears(self, remote):
        # The unfiltered GROUP BY fans out to every populated shard; each
        # contacted worker process must contribute spans to the trace.
        result, spans = _traced_query(remote, GROUPED)
        contacted = sum(
            (m.shards_total - m.shards_skipped) for m in result.request_metrics
        )
        worker_nodes = {s.process for s in spans
                        if s.process.startswith("shard-node-")}
        assert contacted > 0
        assert len(worker_nodes) >= min(contacted, 2)

        # A selective filter touches fewer shards; the trace narrows too.
        pruned_result, pruned_spans = _traced_query(remote, FILTERED)
        pruned_nodes = {s.process for s in pruned_spans
                        if s.process.startswith("shard-node-")}
        assert len(pruned_nodes) <= len(worker_nodes)

    def test_chrome_trace_export_of_stitched_trace(self, remote):
        _, spans = _traced_query(remote, GROUPED)
        doc = chrome_trace(spans)
        json.dumps(doc)  # Perfetto loads files, so it must serialise
        metas = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert len(metas) >= 3  # one named process row per OS process
        names = {e["args"]["name"] for e in metas}
        assert "seabed-service" in names

    def test_queue_wait_span_when_measured(self, remote):
        # The service records its queue wait; the span appears whenever
        # the measured wait is nonzero (it is sub-millisecond here, but
        # measured nonzero in practice -- tolerate a zero-read skip).
        _, spans = _traced_query(remote, GROUPED)
        queue = [s for s in spans if s.name == "service:queue_wait"]
        for q in queue:
            assert q.process == "seabed-service"
            assert q.duration >= 0.0


class TestIntrospectionOps:
    def test_metrics_rpc_prometheus_text(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("metrics-store")
        writer = _plan(SeabedSession(master_key=KEY, seed=1))
        writer.upload("sales", _data(), num_partitions=8, path=root / "sales")
        store = writer.save_table("sales")
        proc, address = _spawn_server(
            tmp_path_factory.mktemp("metrics-srv"), "--store", store,
        )
        try:
            remote = repro.connect(address, TOKEN, master_key=KEY, seed=1)
            remote.open_table(store)
            remote.query(FILTERED)  # DET filter -> server-side kernel work
            remote.query(GROUPED)

            reply = remote.transport.server_metrics()
            assert reply["fmt"] == "prometheus"
            samples = {}
            for line in reply["text"].splitlines():
                if line and not line.startswith("#"):
                    key, value = line.rsplit(" ", 1)
                    samples[key] = float(value)

            # Query-latency histogram, labelled by op and tenant.
            count_key = 'seabed_service_request_seconds_count{op="execute",tenant="alice"}'
            assert samples[count_key] >= 2
            sum_key = 'seabed_service_request_seconds_sum{op="execute",tenant="alice"}'
            assert samples[sum_key] > 0

            # Kernel counters from the DET filter evaluated server-side.
            kernel_key = ('seabed_kernel_values_total'
                          '{scheme="det",op="compare_column"}')
            assert samples[kernel_key] >= N
            kernel_count = ('seabed_kernel_ns_per_op_count'
                            '{scheme="det",op="compare_column"}')
            assert samples[kernel_count] >= 1

            # JSON snapshot serves the same registry.
            snap = remote.transport.server_metrics(fmt="json")
            assert snap["fmt"] == "json"
            assert "seabed_service_request_seconds" in snap["metrics"]

            remote.close()
        finally:
            proc.terminate()
            proc.wait(timeout=15)

    def test_trace_rpc_serves_local_only_traces(self, remote):
        # An untraced client (kill switch off) sends no trace context, so
        # the serving process keeps its spans -- the trace RPC shows them.
        obs_trace.set_enabled(False)
        remote.query(GROUPED)
        obs_trace.set_enabled(True)

        reply = remote.transport.server_trace()
        spans = reply["spans"]
        assert spans, "service retained no spans"
        names = {s["name"] for s in spans}
        assert "service:execute" in names
        # Spans fetched this way are dicts the client can re-ingest.
        absorbed = obs_trace.get_tracer().ingest(spans)
        assert absorbed == len(spans)

    def test_metrics_and_trace_ops_require_auth(self, sharded_server):
        # The introspection ops sit behind the same bearer-token gate as
        # every other RPC: an unauthenticated transport never reaches
        # them (the handshake itself is rejected).
        from repro.errors import AuthError

        address, _ = sharded_server
        with pytest.raises(AuthError):
            RemoteTransport(address, token="wrong-token")

    def test_live_exports_pass_leakage_audit(self, remote):
        _, spans = _traced_query(remote, GROUPED)
        text = remote.transport.server_metrics()["text"]
        server_spans = remote.transport.server_trace()["spans"]
        result = audit_telemetry(list(spans) + list(server_spans), text)
        assert result.ok, result.violations
        assert result.spans_checked >= len(spans)
        assert result.labels_checked > 0


class TestFailoverTracing:
    @pytest.fixture
    def replicated(self, tmp_path):
        config = ClusterConfig(storage_dir=str(tmp_path))
        session = SeabedSession(master_key=KEY, seed=2,
                                cluster=SimulatedCluster(config))
        _plan(session)
        table = session.shard_table("sales", "region", num_shards=4, replicas=2)
        session.upload("sales", _data(seed=11, n=500))
        yield session, table
        session.close()

    def test_failover_is_annotated_on_the_trace(self, replicated):
        session, table = replicated
        populated = [s for s, n in table.shard_rows().items() if n > 0]
        primary = table.store.replica_nodes(populated[0])[0]
        table.arm_exit(primary, "execute", after=1)

        result, spans = _traced_query(session, GROUPED)
        assert result.rows
        assert sum(m.failovers for m in result.request_metrics) == 1

        # The span context survived the worker death: the trace carries a
        # failover annotation naming the dead node, plus live spans from
        # the replica that took over -- all under the same trace id.
        failovers = [s for s in spans if s.name == "shard:failover"]
        assert len(failovers) == 1
        note = failovers[0]
        assert note.attributes["dead_node"] == primary
        assert note.attributes["method"] == "execute"
        assert "shard" in note.attributes
        worker_pids = {s.pid for s in spans if s.name == "worker:execute"}
        assert worker_pids, "no worker spans survived the failover"


class TestVersionSkew:
    def test_legacy_client_gets_local_only_trace(self, remote, monkeypatch):
        # A peer built before tracing sends no trace context.  The query
        # must succeed with no error of any kind -- the trace is simply
        # local-only (no service or worker spans stitched in).
        monkeypatch.setattr(RemoteTransport, "_trace_context", lambda self: None)
        result, spans = _traced_query(remote, GROUPED)
        assert result.rows
        names = {s.name for s in spans}
        assert "wire:execute" in names  # client-side tracing still works
        assert "service:execute" not in names
        assert not any(n.startswith("worker:") for n in names)
        assert {s.pid for s in spans} == {os.getpid()}

    def test_tracing_disabled_client_still_correct(self, remote):
        baseline, _ = _traced_query(remote, GROUPED)
        obs_trace.set_enabled(True)
        obs_trace.get_tracer().clear()
        obs_trace.set_enabled(False)
        result = remote.query(GROUPED)
        assert result.rows == baseline.rows
        assert len(obs_trace.get_tracer()) == 0
