"""Production telemetry carries measurements only.

The Spark-cluster time model (``engine.cluster.model``) adds a 0.25 s job
start-up to every query under the default ``ClusterConfig``.  None of
that may reach an operator: for a millisecond-scale query, every
``seabed_query_seconds`` sample, every ``*_s`` attribute on the server's
spans and every timing field of the slow-query event must be a
measurement -- below the modelled floor and no larger than the wall-clock
the query really took."""

from __future__ import annotations

import json
import logging
import time
from dataclasses import replace

import pytest

import repro
from repro.attacks.telemetry import audit_telemetry
from repro.core.schema import ColumnSpec, TableSchema
from repro.core.session import SeabedSession
from repro.engine.cluster import ClusterConfig
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace

KEY = b"m" * 32
FLOOR = ClusterConfig().job_startup_s

SCHEMA = TableSchema("sales", [
    ColumnSpec("region", dtype="str", sensitive=True),
    ColumnSpec("amount", dtype="int", sensitive=True, nbits=32),
])
SAMPLES = ["SELECT sum(amount) FROM sales WHERE region = 'rio'"]
QUERY = "SELECT sum(amount) FROM sales"
DATA = {"region": ["rio", "ber", "rio", "tok"] * 25, "amount": list(range(100))}


@pytest.fixture(autouse=True)
def _clean_tracer():
    obs_trace.set_enabled(True)
    obs_trace.get_tracer().clear()
    yield
    obs_trace.get_tracer().clear()


def _local():
    session = SeabedSession(master_key=KEY, seed=4)
    return session, session.cluster, None


def _remote():
    handle = repro.serve(auth_required=False)
    session = repro.connect(handle.address, master_key=KEY, seed=4)
    return session, handle.service.cluster, handle


@pytest.mark.parametrize("build", [_local, _remote], ids=["local", "remote"])
def test_every_published_time_is_a_measurement(build, monkeypatch, caplog):
    session, server_cluster, handle = build()
    try:
        assert server_cluster.config.job_startup_s == FLOOR == 0.25
        server_cluster.config = replace(server_cluster.config, slow_query_s=0.0)
        session.create_plan(SCHEMA, SAMPLES)
        session.upload("sales", DATA)
        session.query(QUERY)  # warm: plan, translate, connect
        registry = obs_metrics.MetricsRegistry()  # sees the next query only
        monkeypatch.setattr(obs_metrics, "_REGISTRY", registry)

        with caplog.at_level(logging.WARNING, logger="repro.obs.slow"):
            with obs_trace.span("test:root"):
                t0 = time.perf_counter()
                result = session.query(QUERY)
                wall = time.perf_counter() - t0
                trace_id = obs_trace.current_context()["trace_id"]
        assert result.rows == [{"sum(amount)": sum(range(100))}]
        assert wall < FLOOR, "host too slow for this test to mean anything"

        samples = registry.snapshot()["seabed_query_seconds"]["values"]
        assert len({json.loads(labels)["phase"] for labels in samples}) >= 2
        for labels, sample in samples.items():
            assert sample["count"] == 1
            assert 0.0 <= sample["sum"] < FLOOR and sample["sum"] <= wall, labels

        spans = obs_trace.get_tracer().spans(trace_id=trace_id)
        served = [s for s in spans
                  if s.name == "server:execute" or s.name.startswith("stage:")]
        assert {s.name for s in served} > {"server:execute"}
        for sp in served:
            assert sp.duration <= wall
            for key, value in sp.attributes.items():
                if key.endswith("_s"):
                    assert value < FLOOR and value <= wall, (sp.name, key, value)

        event = [r for r in caplog.records
                 if getattr(r, "event", None) == "slow_query"][-1]
        timings = {k: v for k, v in event.fields.items()
                   if k.endswith("_s") and k != "threshold_s"}
        assert timings
        assert all(v < FLOOR and v <= wall for v in timings.values()), timings

        audit = audit_telemetry(spans, registry.prometheus())
        assert audit.ok, audit.violations
        assert audit.spans_checked == len(spans) and audit.labels_checked > 0
    finally:
        session.close()
        if handle is not None:
            handle.stop()
