"""Unit tests for :mod:`repro.obs.trace`: span nesting, the ambient
contextvars parent, cross-process context helpers, the kill switch, and
both exporters."""

from __future__ import annotations

import contextvars
import json
import threading

import pytest

from repro.obs import trace as obs_trace
from repro.obs.trace import (
    Span,
    Tracer,
    chrome_trace,
    continue_context,
    current_context,
    record_span,
    render_tree,
    span,
)


@pytest.fixture(autouse=True)
def _clean_tracer():
    obs_trace.set_enabled(True)
    obs_trace.get_tracer().clear()
    yield
    obs_trace.set_enabled(True)
    obs_trace.get_tracer().clear()


class TestSpanNesting:
    def test_root_span_has_no_parent(self):
        with span("root") as sp:
            assert sp is not None
            assert sp.parent_id is None
            assert sp.trace_id

    def test_child_parents_under_ambient(self):
        with span("root") as root:
            with span("child") as child:
                assert child.trace_id == root.trace_id
                assert child.parent_id == root.span_id

    def test_siblings_share_parent_not_ids(self):
        with span("root") as root:
            with span("a") as a:
                pass
            with span("b") as b:
                pass
        assert a.parent_id == b.parent_id == root.span_id
        assert a.span_id != b.span_id

    def test_ambient_restored_after_exit(self):
        assert current_context() is None
        with span("root"):
            assert current_context() is not None
        assert current_context() is None

    def test_span_recorded_with_monotonic_bounds(self):
        with span("timed"):
            pass
        (sp,) = obs_trace.get_tracer().spans()
        assert sp.end >= sp.start
        assert sp.duration >= 0.0

    def test_exception_marks_error_and_records(self):
        with pytest.raises(ValueError):
            with span("boom"):
                raise ValueError("no")
        (sp,) = obs_trace.get_tracer().spans()
        assert sp.attributes["error"] is True

    def test_attributes_filtered_to_scalars(self):
        with span("attrs", rows=3, table="sales", secret=b"\x00", blob=[1, 2]) as sp:
            pass
        assert sp.attributes == {"rows": 3, "table": "sales"}

    def test_record_span_children_ambient(self):
        with span("root") as root:
            sp = record_span("measured", 1.0, 2.0, tasks=4)
        assert sp.parent_id == root.span_id
        assert sp.duration == 1.0
        assert sp.attributes == {"tasks": 4}

    def test_record_span_without_ambient_is_fresh_root(self):
        sp = record_span("orphan", 0.0, 1.0)
        assert sp.parent_id is None
        assert sp.trace_id


class TestKillSwitch:
    def test_disabled_span_yields_none_and_records_nothing(self):
        obs_trace.set_enabled(False)
        with span("off") as sp:
            assert sp is None
        assert record_span("off", 0.0, 1.0) is None
        assert len(obs_trace.get_tracer()) == 0

    def test_package_switch_toggles_trace_and_metrics(self):
        import repro.obs
        from repro.obs import metrics as obs_metrics

        repro.obs.set_enabled(False)
        try:
            assert not obs_trace.enabled()
            assert not obs_metrics.enabled()
        finally:
            repro.obs.set_enabled(True)
        assert obs_trace.enabled() and obs_metrics.enabled()


class TestContextPropagation:
    def test_current_context_roundtrip(self):
        with span("root") as root:
            ctx = current_context()
        assert ctx == {"trace_id": root.trace_id, "span_id": root.span_id}

    def test_continue_context_adopts_remote_parent(self):
        ctx = {"trace_id": "t" * 16, "span_id": "abc.1"}
        with continue_context(ctx):
            with span("remote-child") as sp:
                assert sp.trace_id == ctx["trace_id"]
                assert sp.parent_id == ctx["span_id"]
        assert current_context() is None

    @pytest.mark.parametrize("ctx", [None, {}, {"trace_id": 7}, "bogus", {"span_id": "x"}])
    def test_continue_context_tolerates_garbage(self, ctx):
        with continue_context(ctx):
            with span("local") as sp:
                assert sp.parent_id is None  # degraded to a local root

    def test_context_crosses_copied_threads_only(self):
        seen = {}

        def worker(label):
            seen[label] = current_context()

        with span("root") as root:
            ctx = contextvars.copy_context()
            t1 = threading.Thread(target=ctx.run, args=(worker, "copied"))
            t2 = threading.Thread(target=worker, args=("plain",))
            t1.start(), t2.start()
            t1.join(), t2.join()
        assert seen["copied"]["span_id"] == root.span_id
        assert seen["plain"] is None


class TestTracer:
    def test_bounded_capacity(self):
        tr = Tracer(capacity=4)
        for i in range(10):
            tr.record(Span(name=f"s{i}", trace_id="t", span_id=str(i)))
        assert len(tr) == 4
        assert [s.name for s in tr.spans()] == ["s6", "s7", "s8", "s9"]

    def test_spans_filter_and_limit(self):
        tr = Tracer()
        for i in range(6):
            tr.record(Span(name=f"s{i}", trace_id="a" if i % 2 else "b", span_id=str(i)))
        assert len(tr.spans(trace_id="a")) == 3
        assert [s.name for s in tr.spans(trace_id="a", limit=2)] == ["s3", "s5"]

    def test_take_drains_only_matching(self):
        tr = Tracer()
        tr.record(Span(name="mine", trace_id="a", span_id="1"))
        tr.record(Span(name="other", trace_id="b", span_id="2"))
        out = tr.take("a")
        assert [s.name for s in out] == ["mine"]
        assert [s.name for s in tr.spans()] == ["other"]
        assert tr.take("a") == []

    def test_take_keeps_record_order_of_the_rest(self):
        tr = Tracer()
        for i, trace in enumerate("abacbca"):
            tr.record(Span(name=f"{trace}{i}", trace_id=trace, span_id=str(i)))
        assert [s.name for s in tr.take("a")] == ["a0", "a2", "a6"]
        assert [s.name for s in tr.spans()] == ["b1", "c3", "b4", "c5"]
        tr.record(Span(name="a7", trace_id="a", span_id="7"))
        assert [s.name for s in tr.spans()] == ["b1", "c3", "b4", "c5", "a7"]
        assert [s.name for s in tr.spans(trace_id="b")] == ["b1", "b4"]

    def test_ingest_skips_malformed(self):
        tr = Tracer()
        good = Span(name="ok", trace_id="t", span_id="1").to_dict()
        assert tr.ingest([good, {"name": "no-ids"}, "junk", None]) == 1
        assert [s.name for s in tr.spans()] == ["ok"]

    def test_ingest_tolerates_none_payload(self):
        assert Tracer().ingest(None) == 0

    def test_span_dict_roundtrip(self):
        sp = Span(name="n", trace_id="t", span_id="s", parent_id="p",
                  start=1.5, end=2.0, attributes={"rows": 2}, process="svc", pid=42)
        assert Span.from_dict(json.loads(json.dumps(sp.to_dict()))) == sp


class TestExporters:
    def _trace(self):
        with span("root", table="sales"):
            with span("child", rows=7):
                pass
        return obs_trace.get_tracer().spans()

    def test_chrome_trace_shape(self):
        doc = chrome_trace(self._trace())
        events = doc["traceEvents"]
        metas = [e for e in events if e["ph"] == "M"]
        xs = [e for e in events if e["ph"] == "X"]
        assert len(metas) == 1 and metas[0]["name"] == "process_name"
        assert {e["name"] for e in xs} == {"root", "child"}
        child = next(e for e in xs if e["name"] == "child")
        assert child["args"]["rows"] == 7
        assert child["args"]["parent_id"]
        assert child["dur"] >= 0
        json.dumps(doc)  # must be serialisable as-is

    def test_render_tree_indents_children(self):
        text = render_tree(self._trace())
        lines = text.splitlines()
        assert lines[0].startswith("root")
        assert lines[1].startswith("  child")
        assert "rows=7" in lines[1]

    def test_render_tree_orphan_parent_renders_as_root(self):
        spans = [Span(name="child", trace_id="t", span_id="c", parent_id="never-arrived",
                      start=0.0, end=1.0)]
        assert render_tree(spans).startswith("child")


class TestProcessLabel:
    def test_default_label_is_pid(self, monkeypatch):
        monkeypatch.setattr(obs_trace, "_PROCESS_LABEL", None)
        assert obs_trace.process_label().startswith("pid-")

    def test_set_label_applies_to_new_spans(self, monkeypatch):
        monkeypatch.setattr(obs_trace, "_PROCESS_LABEL", None)
        obs_trace.set_process_label("shard-node-9")
        try:
            with span("labelled") as sp:
                pass
            assert sp.process == "shard-node-9"
        finally:
            monkeypatch.setattr(obs_trace, "_PROCESS_LABEL", None)
