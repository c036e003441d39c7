"""Lightweight distributed tracing for the Seabed reproduction.

One client query crosses up to three kinds of OS process -- the client,
the threaded service, and the fork+pipe shard workers -- and the paper's
whole argument is about *where* the time goes (Figures 6-10).  This
module gives every layer the same primitive: a :class:`Span` with a
monotonic start/end, free-form attributes, and a parent id, held in an
ambient ``contextvars`` slot so nested layers parent themselves without
any plumbing.

Cross-process stitching works by value, not by magic:

- :func:`current_context` exports the ambient ``{"trace_id", "span_id"}``
  pair; both RPC hops carry it as the ``trace`` key of the one
  :mod:`repro.net.rpc` request envelope.
- :func:`continue_context` installs a received context as the ambient
  parent on the remote side; a peer that never sends one (version skew)
  simply produces a local-only trace -- no error, typed or otherwise.
- Remote spans ride back under the reply's ``spans`` key and are
  :meth:`Tracer.ingest`-ed into the caller's tracer, so the client ends
  up holding one stitched trace.

All spans use ``time.perf_counter()`` -- CLOCK_MONOTONIC on Linux, which
is shared across processes on the same host, so child-process spans nest
correctly inside their parents without clock translation.

Exports: :func:`chrome_trace` renders Chrome trace-event JSON (load the
file at ``ui.perfetto.dev``); :func:`render_tree` renders an indented
plain-text tree.

Security: span attributes must only ever carry sizes, counts, timings,
and operator/table names -- never plaintexts, key material, or auth
tokens.  ``repro.attacks.telemetry.audit_telemetry`` enforces this.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from collections import deque
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Iterable, Iterator

__all__ = [
    "Span",
    "Tracer",
    "chrome_trace",
    "continue_context",
    "current_context",
    "enabled",
    "get_tracer",
    "new_trace_id",
    "process_label",
    "record_span",
    "render_tree",
    "set_enabled",
    "set_process_label",
    "span",
]

#: Default retention: the tracer keeps this many most-recent spans.
DEFAULT_CAPACITY = 4096

_ATTR_TYPES = (str, int, float, bool, type(None))


@dataclass
class Span:
    """One timed operation inside a trace.

    ``start``/``end`` are ``time.perf_counter()`` readings; ``pid`` and
    ``process`` identify the producing OS process so exporters can group
    spans per process even after they are stitched into one trace.
    """

    name: str
    trace_id: str
    span_id: str
    parent_id: str | None = None
    start: float = 0.0
    end: float = 0.0
    attributes: dict = field(default_factory=dict)
    process: str = ""
    pid: int = 0

    @property
    def duration(self) -> float:
        return max(0.0, self.end - self.start)

    def set(self, **attrs) -> None:
        """Attach attributes (sizes, counts, timings -- never secrets)."""
        self.attributes.update(attrs)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "end": self.end,
            "attributes": dict(self.attributes),
            "process": self.process,
            "pid": self.pid,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Span":
        """Rebuild a span from a wire dict; raises on malformed input."""
        return cls(
            name=str(data["name"]),
            trace_id=str(data["trace_id"]),
            span_id=str(data["span_id"]),
            parent_id=data.get("parent_id"),
            start=float(data.get("start", 0.0)),
            end=float(data.get("end", 0.0)),
            attributes=dict(data.get("attributes") or {}),
            process=str(data.get("process", "")),
            pid=int(data.get("pid", 0)),
        )


class Tracer:
    """A bounded, thread-safe buffer of finished spans."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        self._lock = threading.Lock()
        self._spans: deque[Span] = deque(maxlen=capacity)

    def record(self, sp: Span) -> None:
        with self._lock:
            self._spans.append(sp)

    def ingest(self, dicts: Iterable[dict]) -> int:
        """Absorb remote span dicts; malformed entries are skipped, not
        raised -- a skewed peer must never break the caller."""
        absorbed = 0
        for d in dicts or ():
            try:
                sp = Span.from_dict(d)
            except Exception:
                continue
            self.record(sp)
            absorbed += 1
        return absorbed

    def spans(self, trace_id: str | None = None, limit: int | None = None) -> list[Span]:
        with self._lock:
            out = [s for s in self._spans if trace_id is None or s.trace_id == trace_id]
        if limit is not None:
            out = out[-int(limit):]
        return out

    def take(self, trace_id: str) -> list[Span]:
        """Drain and return every span belonging to ``trace_id`` --
        the piggyback path that ships remote spans home exactly once."""
        with self._lock:
            keep, out = deque(maxlen=self._spans.maxlen), []
            for s in self._spans:
                (out if s.trace_id == trace_id else keep).append(s)
            self._spans = keep
        return out

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)


_TRACER = Tracer()
_ENABLED = True
_PROCESS_LABEL: str | None = None
_IDS = itertools.count(1)
#: Ambient (trace_id, span_id) the next child span parents itself under.
_CURRENT: ContextVar[tuple[str, str] | None] = ContextVar("repro_obs_span", default=None)


def get_tracer() -> Tracer:
    return _TRACER


def set_enabled(flag: bool) -> None:
    """Globally enable/disable span recording (the overhead kill switch)."""
    global _ENABLED
    _ENABLED = bool(flag)


def enabled() -> bool:
    return _ENABLED


def set_process_label(label: str) -> None:
    """Name this OS process in exported traces (e.g. ``shard-node-2``)."""
    global _PROCESS_LABEL
    _PROCESS_LABEL = str(label)


def process_label() -> str:
    return _PROCESS_LABEL or f"pid-{os.getpid()}"


def new_trace_id() -> str:
    return os.urandom(8).hex()


def _new_span_id() -> str:
    # pid-qualified so ids stay unique after fork without coordination.
    return f"{os.getpid():x}.{next(_IDS)}"


def current_context() -> dict | None:
    """The ambient span as a wire-safe ``{"trace_id", "span_id"}`` dict,
    or ``None`` when no span is open (then nothing is propagated)."""
    cur = _CURRENT.get()
    if cur is None:
        return None
    return {"trace_id": cur[0], "span_id": cur[1]}


@contextmanager
def continue_context(ctx: dict | None) -> Iterator[None]:
    """Adopt a received trace context as the ambient parent.

    Tolerates ``None`` and malformed payloads by design: a version-skewed
    peer that sends nothing usable gets local-only spans, never an error.
    """
    token = None
    if isinstance(ctx, dict):
        trace_id, span_id = ctx.get("trace_id"), ctx.get("span_id")
        if isinstance(trace_id, str) and isinstance(span_id, str):
            token = _CURRENT.set((trace_id, span_id))
    try:
        yield
    finally:
        if token is not None:
            _CURRENT.reset(token)


@contextmanager
def span(name: str, **attributes) -> Iterator[Span | None]:
    """Open a child of the ambient span (or a new root) around a block.

    Yields the in-progress :class:`Span` so callers may :meth:`Span.set`
    attributes; yields ``None`` when tracing is disabled (callers must
    guard with ``if sp is not None``).  The span is recorded on exit,
    exceptions included.
    """
    if not _ENABLED:
        yield None
        return
    parent = _CURRENT.get()
    trace_id = parent[0] if parent else new_trace_id()
    sp = Span(
        name=name,
        trace_id=trace_id,
        span_id=_new_span_id(),
        parent_id=parent[1] if parent else None,
        attributes={k: v for k, v in attributes.items() if isinstance(v, _ATTR_TYPES)},
        process=process_label(),
        pid=os.getpid(),
    )
    token = _CURRENT.set((trace_id, sp.span_id))
    sp.start = time.perf_counter()
    try:
        yield sp
    except BaseException:
        sp.attributes.setdefault("error", True)
        raise
    finally:
        sp.end = time.perf_counter()
        _CURRENT.reset(token)
        _TRACER.record(sp)


def record_span(name: str, start: float, end: float, **attributes) -> Span | None:
    """Record an already-measured interval as a child of the ambient span.

    For code that measures with its own ``perf_counter()`` pairs (stage
    timers, bind/decrypt accounting) rather than wrapping a block.
    """
    if not _ENABLED:
        return None
    parent = _CURRENT.get()
    trace_id = parent[0] if parent else new_trace_id()
    sp = Span(
        name=name,
        trace_id=trace_id,
        span_id=_new_span_id(),
        parent_id=parent[1] if parent else None,
        start=float(start),
        end=float(end),
        attributes={k: v for k, v in attributes.items() if isinstance(v, _ATTR_TYPES)},
        process=process_label(),
        pid=os.getpid(),
    )
    _TRACER.record(sp)
    return sp


# -- exporters ---------------------------------------------------------------


def chrome_trace(spans: Iterable[Span]) -> dict:
    """Render spans as Chrome trace-event JSON (Perfetto-loadable).

    Complete ("X") events with microsecond timestamps, one trace-viewer
    process row per producing OS process.
    """
    spans = list(spans)
    events: list[dict] = []
    seen_pids: dict[int, str] = {}
    for s in spans:
        if s.pid not in seen_pids:
            seen_pids[s.pid] = s.process or f"pid-{s.pid}"
            events.append({
                "ph": "M", "name": "process_name", "pid": s.pid, "tid": 0,
                "args": {"name": seen_pids[s.pid]},
            })
        events.append({
            "ph": "X",
            "name": s.name,
            "pid": s.pid,
            "tid": 0,
            "ts": s.start * 1e6,
            "dur": s.duration * 1e6,
            "args": dict(s.attributes) | {
                "trace_id": s.trace_id,
                "span_id": s.span_id,
                "parent_id": s.parent_id or "",
            },
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def render_tree(spans: Iterable[Span]) -> str:
    """Indented plain-text dump of one or more traces, parentage-ordered."""
    spans = sorted(spans, key=lambda s: s.start)
    by_parent: dict[str | None, list[Span]] = {}
    ids = {s.span_id for s in spans}
    for s in spans:
        # A parent recorded by a peer we never heard back from renders
        # the child as a root rather than dropping it.
        key = s.parent_id if s.parent_id in ids else None
        by_parent.setdefault(key, []).append(s)

    lines: list[str] = []

    def walk(parent: str | None, depth: int) -> None:
        for s in by_parent.get(parent, ()):
            attrs = " ".join(f"{k}={v}" for k, v in sorted(s.attributes.items()))
            lines.append(
                f"{'  ' * depth}{s.name}  {s.duration * 1e3:.3f} ms"
                f"  [{s.process or s.pid}]" + (f"  {attrs}" if attrs else "")
            )
            walk(s.span_id, depth + 1)

    walk(None, 0)
    return "\n".join(lines)
