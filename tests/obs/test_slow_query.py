"""The slow-query log: queries whose measured execution time crosses
``ClusterConfig.slow_query_s`` emit one structured ``slow_query`` event
on the ``repro.obs.slow`` logger and bump the slow-query counter."""

from __future__ import annotations

import logging

import pytest

from repro.core.schema import ColumnSpec, TableSchema
from repro.core.session import SeabedSession
from repro.engine.cluster import ClusterConfig, SimulatedCluster
from repro.errors import ExecutionError
from repro.obs import metrics as obs_metrics

KEY = b"s" * 32

SCHEMA = TableSchema("sales", [
    ColumnSpec("region", dtype="str", sensitive=True),
    ColumnSpec("amount", dtype="int", sensitive=True, nbits=32),
])
SAMPLES = ["SELECT sum(amount) FROM sales WHERE region = 'rio'"]
QUERY = "SELECT sum(amount) FROM sales"


def _session(**config):
    session = SeabedSession(
        master_key=KEY, seed=4, cluster=SimulatedCluster(ClusterConfig(**config))
    )
    session.create_plan(SCHEMA, SAMPLES)
    session.upload("sales", {
        "region": ["rio", "ber", "rio", "tok"] * 25,
        "amount": list(range(100)),
    })
    return session


class TestSlowQueryLog:
    def test_crossing_threshold_logs_and_counts(self, caplog):
        counter = obs_metrics.get_registry().counter(
            "seabed_slow_queries_total", labelnames=("table",)
        )
        before = counter.value(table="sales")
        session = _session(slow_query_s=0.0)  # everything is slow
        with caplog.at_level(logging.WARNING, logger="repro.obs.slow"):
            session.query(QUERY)
        events = [r for r in caplog.records if r.event == "slow_query"]
        assert events, "no slow_query event emitted"
        record = events[0]
        assert record.fields["table"] == "sales"
        assert record.fields["real_s"] >= 0.0
        assert record.fields["threshold_s"] == 0.0
        assert "grouped" in record.fields and "filtered" in record.fields
        # Operational fields only -- no plaintext or key material.
        assert not any(k in record.fields for k in ("rows", "values", "key"))
        assert counter.value(table="sales") > before
        session.close()

    def test_below_threshold_stays_quiet(self, caplog):
        session = _session(slow_query_s=1e9)
        with caplog.at_level(logging.WARNING, logger="repro.obs.slow"):
            session.query(QUERY)
        assert not [r for r in caplog.records
                    if getattr(r, "event", None) == "slow_query"]
        session.close()

    def test_threshold_is_measured_not_simulated_time(self, caplog):
        # The modelled server time carries a 0.25 s job start-up; the
        # measured time of this 100-row sum is milliseconds.
        # A threshold between the two must stay quiet...
        session = _session(slow_query_s=0.2)
        with caplog.at_level(logging.WARNING, logger="repro.obs.slow"):
            result = session.query(QUERY)
        metrics = result.request_metrics[0]
        assert metrics.real_time < 0.2 <= session.cluster.model([metrics]).server_s
        assert not [r for r in caplog.records
                    if getattr(r, "event", None) == "slow_query"]
        session.close()
        # ...and one the measured time does cross logs that measurement.
        session = _session(slow_query_s=1e-9)
        with caplog.at_level(logging.WARNING, logger="repro.obs.slow"):
            result = session.query(QUERY)
        record = next(r for r in caplog.records
                      if getattr(r, "event", None) == "slow_query")
        metrics = result.request_metrics[0]
        assert record.fields["real_s"] == round(metrics.real_time, 6)
        assert "server_s" not in record.fields
        session.close()

    def test_default_config_disables_the_log(self, caplog):
        session = _session()  # slow_query_s defaults to None
        with caplog.at_level(logging.WARNING, logger="repro.obs.slow"):
            session.query(QUERY)
        assert not [r for r in caplog.records
                    if getattr(r, "event", None) == "slow_query"]
        session.close()

    def test_negative_threshold_rejected(self):
        with pytest.raises(ExecutionError, match="slow_query_s"):
            ClusterConfig(slow_query_s=-0.1)
