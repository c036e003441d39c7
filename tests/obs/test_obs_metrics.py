"""Unit tests for :mod:`repro.obs.metrics`, the ``OPS`` view over it,
and the structured event logger."""

from __future__ import annotations

import json
import logging

import pytest

from repro.obs import log as obs_log
from repro.obs import metrics as obs_metrics
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.ops import OPS


@pytest.fixture
def reg():
    return MetricsRegistry()


class TestPrimitives:
    def test_counter_labels_accumulate(self, reg):
        c = reg.counter("reqs", labelnames=("op",))
        c.inc(op="query")
        c.inc(2.0, op="query")
        c.inc(op="scan")
        assert c.value(op="query") == 3.0
        assert c.value(op="scan") == 1.0
        assert c.total() == 4.0

    def test_gauge_set_and_inc(self, reg):
        g = reg.gauge("depth")
        g.set(5)
        g.inc(-2)
        assert g.value() == 3.0

    def test_histogram_buckets_and_sum(self, reg):
        h = reg.histogram("lat", buckets=(0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 5.0, 50.0):
            h.observe(v)
        assert h.count() == 4
        assert h.sum() == pytest.approx(55.55)

    def test_histogram_needs_buckets(self):
        with pytest.raises(ValueError):
            Histogram("empty", buckets=())

    def test_disabled_updates_are_dropped(self, reg):
        c = reg.counter("c")
        g = reg.gauge("g")
        h = reg.histogram("h")
        obs_metrics.set_enabled(False)
        try:
            c.inc()
            g.set(9)
            h.observe(1.0)
        finally:
            obs_metrics.set_enabled(True)
        assert c.total() == 0.0
        assert g.value() == 0.0
        assert h.count() == 0


class TestRegistry:
    def test_get_or_create_returns_same_object(self, reg):
        assert reg.counter("x", labelnames=("a",)) is reg.counter("x", labelnames=("a",))

    def test_kind_conflict_raises(self, reg):
        reg.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("x")

    def test_labelnames_conflict_raises(self, reg):
        reg.counter("x", labelnames=("a",))
        with pytest.raises(ValueError, match="already registered"):
            reg.counter("x", labelnames=("b",))

    def test_clear_drops_everything(self, reg):
        reg.counter("x").inc()
        reg.clear()
        assert reg.metrics() == []


def _parse_prometheus(text):
    """name{labels} -> float for every sample line."""
    samples = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        key, value = line.rsplit(" ", 1)
        samples[key] = float(value)
    return samples


class TestPrometheusExposition:
    def test_counter_and_gauge_lines(self, reg):
        reg.counter("hits", "Cache hits.", labelnames=("op",)).inc(3, op="plan")
        reg.gauge("depth").set(2.5)
        text = reg.prometheus()
        assert "# HELP hits Cache hits." in text
        assert "# TYPE hits counter" in text
        samples = _parse_prometheus(text)
        assert samples['hits{op="plan"}'] == 3
        assert samples["depth"] == 2.5

    def test_histogram_cumulative_buckets(self, reg):
        h = reg.histogram("lat", labelnames=("op",), buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 5.0):
            h.observe(v, op="q")
        samples = _parse_prometheus(reg.prometheus())
        assert samples['lat_bucket{op="q",le="0.1"}'] == 1
        assert samples['lat_bucket{op="q",le="1"}'] == 2
        assert samples['lat_bucket{op="q",le="+Inf"}'] == 3
        assert samples['lat_count{op="q"}'] == 3
        assert samples['lat_sum{op="q"}'] == pytest.approx(5.55)

    def test_empty_label_values_are_omitted(self, reg):
        reg.counter("c", labelnames=("table", "tenant")).inc(table="sales")
        samples = _parse_prometheus(reg.prometheus())
        assert samples['c{table="sales"}'] == 1

    def test_unlabelled_counter_exports_zero(self, reg):
        reg.counter("zero")
        assert _parse_prometheus(reg.prometheus())["zero"] == 0

    def test_snapshot_is_json_roundtrippable(self, reg):
        reg.counter("c", labelnames=("op",)).inc(op="a")
        reg.histogram("h", buckets=(1.0,)).observe(0.5)
        snap = json.loads(json.dumps(reg.snapshot()))
        assert snap["c"]["values"]['{"op": "a"}'] == 1.0
        assert snap["h"]["values"]["{}"]["count"] == 1


class _FakeJob:
    """Duck-typed stand-in for JobMetrics."""

    real_time = 0.3
    client_time = 0.1
    queue_wait = 0.01
    wire_time = 0.02
    partitions_total = 8
    partitions_skipped = 5
    shards_total = 4
    shards_skipped = 1
    failovers = 1
    result_bytes = 1024


class TestObserveJob:
    def test_phases_and_counters_land(self, monkeypatch):
        reg = MetricsRegistry()
        monkeypatch.setattr(obs_metrics, "_REGISTRY", reg)
        obs_metrics.observe_job(_FakeJob(), table="sales", transport="Local")
        samples = _parse_prometheus(reg.prometheus())
        for phase in ("execute", "client", "queue_wait", "wire"):
            key = (f'seabed_query_seconds_count{{phase="{phase}",table="sales",'
                   f'transport="Local"}}')
            assert samples[key] == 1, key
        assert not any('phase="total"' in k or 'phase="server"' in k
                       or 'phase="network"' in k for k in samples)
        assert samples['seabed_partitions_skipped_total{table="sales"}'] == 5
        assert samples['seabed_failovers_total{table="sales"}'] == 1
        assert samples['seabed_result_bytes_total{table="sales"}'] == 1024

    def test_none_job_and_disabled_are_noops(self, monkeypatch):
        reg = MetricsRegistry()
        monkeypatch.setattr(obs_metrics, "_REGISTRY", reg)
        obs_metrics.observe_job(None)
        obs_metrics.set_enabled(False)
        try:
            obs_metrics.observe_job(_FakeJob())
        finally:
            obs_metrics.set_enabled(True)
        assert reg.metrics() == []


class TestOpsView:
    """``OPS`` holds no counts of its own: it reads and writes
    ``seabed_client_ops_total`` in the process-wide registry."""

    def _counter(self):
        return obs_metrics.get_registry().counter(
            "seabed_client_ops_total", labelnames=("op",))

    def test_bump_lands_in_the_registry_counter(self):
        before = self._counter().value(op="view-test")
        OPS.bump("view-test")
        OPS.bump("view-test", 2)
        assert self._counter().value(op="view-test") == before + 3

    def test_reads_come_from_the_registry_counter(self):
        before = OPS.snapshot()
        self._counter().inc(4.0, op="view-test-read")
        assert OPS.get("view-test-read") == before.get("view-test-read", 0) + 4
        assert OPS.delta(before) == {"view-test-read": 4}
        assert isinstance(OPS.snapshot()["view-test-read"], int)

    def test_delta_omits_unchanged_ops(self):
        OPS.bump("view-test-still")
        before = OPS.snapshot()
        OPS.bump("view-test-moved", 2)
        assert OPS.delta(before) == {"view-test-moved": 2}


class TestLogEvent:
    def test_event_renders_sorted_fields(self, caplog):
        with caplog.at_level(logging.WARNING, logger="repro.obs"):
            obs_log.log_event("slow_query", level=logging.WARNING,
                              table="sales", server_s=1.23456789, rows=10)
        (record,) = caplog.records
        assert record.message == "slow_query rows=10 server_s=1.23457 table=sales"
        assert record.event == "slow_query"
        assert record.fields["table"] == "sales"

    def test_disabled_level_skips_formatting(self, caplog):
        logger = obs_log.get_logger("quiet")
        logger.setLevel(logging.ERROR)
        with caplog.at_level(logging.ERROR, logger="repro.obs.quiet"):
            obs_log.log_event("noise", level=logging.DEBUG, logger=logger)
        assert caplog.records == []

    def test_child_logger_name(self):
        assert obs_log.get_logger("slow").name == "repro.obs.slow"
        assert obs_log.get_logger().name == "repro.obs"
