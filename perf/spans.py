"""Outside-in span recorder for the traced pass.

The program is not edited to be measured.  :func:`install` replaces the
public entry point of each layer (``parse_query``, ``SeabedServer.execute``,
``encode_frame`` ...) with a wrapper that records one span -- name, start,
end, parent, and the benchmark op it belongs to -- and :func:`uninstall`
puts the originals back.  Spans stay in memory; :meth:`Recorder.chrome_trace`
renders them for Perfetto when the pass ends.

Parentage follows a ``contextvars`` slot, which the shard coordinator's
scatter threads inherit.  Service threads (asyncio loop, request executor)
do not inherit it; the traced pass runs one client at a time, so a span
that starts with no ambient parent on such a thread is adopted by the
client's open ``client.rtt`` span (``RemoteTransport.execute``).
"""

from __future__ import annotations

import contextvars
import functools
import os
import threading
import time
from dataclasses import dataclass, field

#: Spans whose own (self) time is glue between layers, not a layer's
#: work; their self time over op wall is ``session.unattributed_ratio``.
CONTAINERS = frozenset({
    "session.query", "session.prepare", "session.append_rows",
    "session.compact_table", "client.rtt", "transport.execute",
    "transport.append_batch", "transport.compact", "server.execute",
    "coordinator.execute",
})


@dataclass
class Span:
    id: int
    parent: int | None
    op: int | None
    name: str
    start: float
    end: float = 0.0
    tid: int = 0
    args: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._current: contextvars.ContextVar[Span | None] = (
            contextvars.ContextVar("perf_span", default=None)
        )
        self._adopter: Span | None = None  # the open client.rtt span
        self._op: int | None = None  # the op in flight (one at a time)
        self._ops = -1  # ops begun so far

    def open(self, name: str, adopts: bool = False, **args) -> tuple[Span, object]:
        parent = self._current.get() or self._adopter
        with self._lock:
            span = Span(
                id=len(self.spans), parent=parent.id if parent else None,
                op=self._op, name=name, start=time.perf_counter(),
                tid=threading.get_ident(), args=args,
            )
            self.spans.append(span)
        if adopts:
            self._adopter = span
        return span, self._current.set(span)

    def close(self, span: Span, token: object) -> None:
        span.end = time.perf_counter()
        self._current.reset(token)
        if self._adopter is span:
            self._adopter = None

    def point(self, name: str, start: float, end: float, **args) -> None:
        """Record an already-measured interval under the ambient parent."""
        parent = self._current.get() or self._adopter
        with self._lock:
            self.spans.append(Span(
                id=len(self.spans), parent=parent.id if parent else None,
                op=self._op, name=name, start=start, end=end,
                tid=threading.get_ident(), args=args,
            ))

    def begin_op(self, label: str) -> tuple[Span, object]:
        self._op = self._ops = self._ops + 1
        return self.open("op", label=label)

    def end_op(self, span: Span, token: object) -> None:
        self.close(span, token)
        self._op = None

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the part its children cover (the
        union of their intervals, clipped: scatter children overlap)."""
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        out = {}
        for s in self.spans:
            covered, edge = 0.0, s.start
            for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
                lo, hi = max(c.start, edge), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    edge = hi
            out[s.id] = s.duration - covered
        return out

    def chrome_trace(self) -> dict:
        """Chrome-trace JSON (``ph: X`` complete events, microseconds)."""
        pid = os.getpid()
        events = [
            {
                "name": s.name, "ph": "X", "pid": pid, "tid": s.tid,
                "ts": s.start * 1e6, "dur": s.duration * 1e6,
                "args": {"span": s.id, "parent": s.parent, "op": s.op, **s.args},
            }
            for s in self.spans
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms"}


# -- installation ------------------------------------------------------------


def _wrap(recorder: Recorder, name: str, fn, adopts: bool = False,
          args_of=None, result_of=None):
    """``args_of(*args, **kwargs)`` / ``result_of(result)`` return span
    attributes (counts and sizes measured at the boundary)."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        extra = args_of(*args, **kwargs) if args_of else {}
        span, token = recorder.open(name, adopts=adopts, **extra)
        try:
            result = fn(*args, **kwargs)
            if result_of:
                span.args.update(result_of(result))
            return result
        finally:
            recorder.close(span, token)
    return wrapper


def _targets() -> list[tuple]:
    """(owner, attribute, span name[, options]) for every layer boundary.

    Functions imported by name are patched where they are *used* (the
    importing module's namespace), methods on their class.
    """
    import os as os_mod

    from repro.core import decryptor, encryptor, server, session, translator
    from repro.core import transport as core_transport
    from repro.engine import cluster, store
    from repro.index import prune
    from repro.net import client, codec
    from repro.shard import coordinator

    def frame_kind(kind, body):
        return {"kind": kind}

    def frame_bytes(frame):
        return {"bytes": len(frame)}

    def stage_args(self, name, *a, **k):
        return {"stage": name}

    def shard_args(self, shard, method, **k):
        return {"shard": shard, "method": method}

    def worker_time(outcome):
        # (response, failovers); the worker reports its own stage wall time
        metrics = getattr(outcome[0], "metrics", None)
        return {"worker_ms": metrics.real_time * 1e3} if metrics else {}

    def batch_rows(self, state, columns, *a, **k):
        return {"rows": len(next(iter(columns.values())))}

    return [
        (session, "parse_query", "query.parse"),
        (session.SeabedSession, "query", "session.query"),
        (session.SeabedSession, "prepare", "session.prepare"),
        (session.SeabedSession, "append_rows", "session.append_rows"),
        (session.SeabedSession, "compact_table", "session.compact_table"),
        (translator.QueryTranslator, "translate", "translator.translate"),
        (session, "bind_requests", "translator.bind"),
        (core_transport.LocalTransport, "execute", "transport.execute"),
        (core_transport.LocalTransport, "append_batch", "transport.append_batch"),
        (core_transport.LocalTransport, "compact", "transport.compact"),
        (client.RemoteTransport, "execute", "client.rtt", {"adopts": True}),
        (codec, "encode_frame", "codec.encode",
         {"args_of": frame_kind, "result_of": frame_bytes}),
        (codec, "decode_payload", "codec.decode"),
        (server.SeabedServer, "execute", "server.execute"),
        (cluster.SimulatedCluster, "map_stage", "engine.map_stage",
         {"args_of": stage_args}),
        (cluster.SimulatedCluster, "run_driver", "engine.run_driver",
         {"args_of": stage_args}),
        (prune, "survivors", "index.prune"),
        (store, "build_partition_stats", "index.stats_build"),
        (coordinator.ShardCoordinator, "execute", "coordinator.execute"),
        (coordinator.ShardedStore, "call_shard", "shard.call",
         {"args_of": shard_args, "result_of": worker_time}),
        (decryptor.DecryptionModule, "decrypt", "decryptor.decrypt"),
        (encryptor.EncryptionModule, "encrypt_batch", "encryptor.encrypt_batch",
         {"args_of": batch_rows}),
        (core_transport, "append_store", "store.append"),
        (core_transport, "compact_store", "store.compact"),
        (core_transport, "open_store", "store.open"),
        (os_mod, "fsync", "store.fsync"),
    ]


class Wrappers:
    """The installed timing wrappers; ``install``/``uninstall`` are
    idempotent so traced and untraced rounds can alternate."""

    def __init__(self, recorder: Recorder) -> None:
        self._recorder = recorder
        self._undo: list[tuple] = []

    def install(self) -> None:
        if self._undo:
            return
        from repro.core import server
        from repro.crypto import kernel

        recorder = self._recorder
        for owner, attr, name, *rest in _targets():
            original = getattr(owner, attr)
            setattr(owner, attr, _wrap(recorder, name, original, **(rest[0] if rest else {})))
            self._undo.append((owner, attr, original))

        # Kernel work reaches the metrics registry through one public
        # function that already carries the measured seconds and value
        # count, client- and server-side alike; turn each call into a span.
        observe = kernel.observe_kernel_op

        @functools.wraps(observe)
        def observed(scheme, op, seconds, values):
            end = time.perf_counter()
            recorder.point(f"crypto.{scheme}.{op}", end - seconds, end, values=values)
            return observe(scheme, op, seconds, values)

        for owner in (kernel, server):
            setattr(owner, "observe_kernel_op", observed)
            self._undo.append((owner, "observe_kernel_op", observe))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo = []
