"""A unified metrics registry: counters, gauges, histograms with labels.

Pure stdlib (no numpy) so leaf modules like :mod:`repro.ops` can import
it without dragging in the heavy dependency tree.  One process-wide
:class:`MetricsRegistry` absorbs

- the pipeline counters (``seabed_client_ops_total``; ``repro.ops.OPS``
  is a view over it, not a second store),
- every executed :class:`~repro.engine.metrics.JobMetrics` via
  :func:`observe_job` (per-phase histograms of measured seconds,
  pruning/shard/failover counters) -- measurements only: the
  Spark-cluster time model (:func:`repro.engine.cluster.model`) is
  never published here,
- crypto-kernel timings via ``repro.crypto.kernel.observe_kernel_op``
  (per-scheme, per-op seconds histograms and value counters),
- service-layer accounting (request latency per op/tenant, backpressure
  rejections, slow queries).

Two export formats: :meth:`MetricsRegistry.prometheus` (text exposition
suitable for a scrape endpoint -- served by the ``metrics`` RPC op) and
:meth:`MetricsRegistry.snapshot` (JSON-friendly nested dict).

Labels are plain ``key=value`` strings; values must never contain
plaintexts, keys, or tokens (``repro.attacks.telemetry`` audits this).
"""

from __future__ import annotations

import json
import threading
from bisect import bisect_left
from typing import Iterable

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "enabled",
    "get_registry",
    "observe_job",
    "set_enabled",
]

#: Default latency buckets (seconds): 50us .. 30s, roughly x3 apart.
DEFAULT_BUCKETS = (
    5e-5, 2e-4, 5e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0,
)

_ENABLED = True


def set_enabled(flag: bool) -> None:
    """Globally enable/disable metric updates (the overhead kill switch)."""
    global _ENABLED
    _ENABLED = bool(flag)


def enabled() -> bool:
    return _ENABLED


def _label_key(labelnames: tuple[str, ...], labels: dict) -> tuple[str, ...]:
    return tuple(str(labels.get(name, "")) for name in labelnames)


class _Metric:
    """Shared shape: a name, help text, declared label names, a lock."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "", labelnames: Iterable[str] = ()) -> None:
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()

    def _key(self, labels: dict) -> tuple[str, ...]:
        return _label_key(self.labelnames, labels)


class Counter(_Metric):
    """Monotonic counter, optionally per label combination."""

    kind = "counter"

    def __init__(self, name: str, help: str = "", labelnames: Iterable[str] = ()) -> None:
        super().__init__(name, help, labelnames)
        self._values: dict[tuple[str, ...], float] = {}

    def inc(self, amount: float = 1.0, **labels) -> None:
        if not _ENABLED:
            return
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels) -> float:
        with self._lock:
            return self._values.get(self._key(labels), 0.0)

    def total(self) -> float:
        with self._lock:
            return sum(self._values.values())

    def values(self) -> dict[tuple[str, ...], float]:
        """Every label combination's value, keyed in ``labelnames`` order."""
        with self._lock:
            return dict(self._values)


class Gauge(_Metric):
    """Last-write-wins instantaneous value, optionally per labels."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "", labelnames: Iterable[str] = ()) -> None:
        super().__init__(name, help, labelnames)
        self._values: dict[tuple[str, ...], float] = {}

    def set(self, value: float, **labels) -> None:
        if not _ENABLED:
            return
        with self._lock:
            self._values[self._key(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels) -> None:
        if not _ENABLED:
            return
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels) -> float:
        with self._lock:
            return self._values.get(self._key(labels), 0.0)


class Histogram(_Metric):
    """Cumulative-bucket histogram in the Prometheus style."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        labelnames: Iterable[str] = (),
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help, labelnames)
        self.buckets = tuple(sorted(float(b) for b in buckets))
        if not self.buckets:
            raise ValueError(f"histogram {name!r} needs at least one bucket")
        # per label-key: [per-bucket counts..., +Inf count], sum
        self._counts: dict[tuple[str, ...], list[int]] = {}
        self._sums: dict[tuple[str, ...], float] = {}

    def observe(self, value: float, **labels) -> None:
        if not _ENABLED:
            return
        value = float(value)
        idx = bisect_left(self.buckets, value)
        key = self._key(labels)
        with self._lock:
            counts = self._counts.get(key)
            if counts is None:
                counts = self._counts[key] = [0] * (len(self.buckets) + 1)
            counts[idx] += 1
            self._sums[key] = self._sums.get(key, 0.0) + value

    def count(self, **labels) -> int:
        with self._lock:
            return sum(self._counts.get(self._key(labels), ()))

    def sum(self, **labels) -> float:
        with self._lock:
            return self._sums.get(self._key(labels), 0.0)


def _fmt_value(v: float) -> str:
    return repr(int(v)) if float(v).is_integer() else repr(float(v))


def _fmt_labels(labelnames: tuple[str, ...], key: tuple[str, ...], extra: str = "") -> str:
    parts = [
        f'{name}="{value}"'
        for name, value in zip(labelnames, key)
        if value != ""
    ]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


class MetricsRegistry:
    """Named metrics, created once and shared process-wide.

    ``counter``/``gauge``/``histogram`` are get-or-create: the first call
    fixes the kind and label names; later calls must agree or raise.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, _Metric] = {}

    def _get_or_create(self, cls, name: str, help: str, labelnames, **kwargs) -> _Metric:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls) or (
                    labelnames and tuple(labelnames) != existing.labelnames
                ):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}{existing.labelnames}"
                    )
                return existing
            metric = cls(name, help, labelnames, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "", labelnames: Iterable[str] = ()) -> Counter:
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "", labelnames: Iterable[str] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Iterable[str] = (),
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help, labelnames, buckets=buckets)

    def metrics(self) -> list[_Metric]:
        with self._lock:
            return [self._metrics[name] for name in sorted(self._metrics)]

    def clear(self) -> None:
        """Drop every registered metric (test isolation helper)."""
        with self._lock:
            self._metrics.clear()

    # -- exports -------------------------------------------------------------

    def prometheus(self) -> str:
        """Prometheus text exposition format, version 0.0.4."""
        lines: list[str] = []
        for m in self.metrics():
            if m.help:
                lines.append(f"# HELP {m.name} {m.help}")
            lines.append(f"# TYPE {m.name} {m.kind}")
            if isinstance(m, (Counter, Gauge)):
                with m._lock:
                    items = sorted(m._values.items())
                if not items and not m.labelnames:
                    items = [((), 0.0)]
                for key, value in items:
                    lines.append(
                        f"{m.name}{_fmt_labels(m.labelnames, key)} {_fmt_value(value)}"
                    )
            elif isinstance(m, Histogram):
                with m._lock:
                    items = sorted(m._counts.items())
                    sums = dict(m._sums)
                for key, counts in items:
                    cumulative = 0
                    for bucket, n in zip(m.buckets, counts):
                        cumulative += n
                        le = f'le="{_fmt_value(bucket)}"'
                        lines.append(
                            f"{m.name}_bucket{_fmt_labels(m.labelnames, key, le)} "
                            f"{cumulative}"
                        )
                    cumulative += counts[-1]
                    inf = 'le="+Inf"'
                    lines.append(
                        f"{m.name}_bucket{_fmt_labels(m.labelnames, key, inf)} "
                        f"{cumulative}"
                    )
                    lines.append(
                        f"{m.name}_sum{_fmt_labels(m.labelnames, key)} "
                        f"{_fmt_value(sums.get(key, 0.0))}"
                    )
                    lines.append(
                        f"{m.name}_count{_fmt_labels(m.labelnames, key)} {cumulative}"
                    )
        return "\n".join(lines) + "\n"

    def snapshot(self) -> dict:
        """JSON-friendly nested dict: name -> {kind, labels -> value}."""
        out: dict = {}
        for m in self.metrics():
            entry: dict = {"kind": m.kind, "labelnames": list(m.labelnames)}
            if isinstance(m, (Counter, Gauge)):
                with m._lock:
                    entry["values"] = {
                        json.dumps(dict(zip(m.labelnames, key))): value
                        for key, value in sorted(m._values.items())
                    }
            elif isinstance(m, Histogram):
                with m._lock:
                    entry["buckets"] = list(m.buckets)
                    entry["values"] = {
                        json.dumps(dict(zip(m.labelnames, key))): {
                            "counts": list(counts),
                            "sum": m._sums.get(key, 0.0),
                            "count": sum(counts),
                        }
                        for key, counts in sorted(m._counts.items())
                    }
            out[m.name] = entry
        return out


_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    return _REGISTRY


def observe_job(job, *, table: str = "", transport: str = "", tenant: str = "") -> None:
    """Fold one finished :class:`~repro.engine.metrics.JobMetrics` into
    the registry (duck-typed -- no import of the engine package).

    Emits per-phase histograms of *measured* seconds
    (``seabed_query_seconds``: ``execute`` is the stages' wall-clock)
    plus pruning, shard, failover, and wire counters, labelled by table
    and transport so the multi-tenant service keeps workloads apart.
    """
    if not _ENABLED or job is None:
        return
    reg = _REGISTRY
    hist = reg.histogram(
        "seabed_query_seconds",
        "Measured per-phase query seconds from JobMetrics.",
        labelnames=("phase", "table", "transport", "tenant"),
    )
    labels = {"table": table, "transport": transport, "tenant": tenant}
    for phase, attr in (
        ("execute", "real_time"),
        ("client", "client_time"),
        ("queue_wait", "queue_wait"),
        ("wire", "wire_time"),
    ):
        value = getattr(job, attr, 0.0) or 0.0
        if value or phase == "execute":
            hist.observe(float(value), phase=phase, **labels)
    counters = (
        ("seabed_partitions_total", "partitions_total",
         "Partitions the job's map stages would touch without pruning."),
        ("seabed_partitions_skipped_total", "partitions_skipped",
         "Partitions the zone-map index let jobs skip."),
        ("seabed_shards_total", "shards_total",
         "Shards in scope for scatter-gathered jobs."),
        ("seabed_shards_skipped_total", "shards_skipped",
         "Shards the ring router / rollups proved irrelevant."),
        ("seabed_failovers_total", "failovers",
         "Shard stages retried on a replica after a worker death."),
        ("seabed_result_bytes_total", "result_bytes",
         "Encrypted result bytes returned to clients."),
    )
    for name, attr, help_text in counters:
        value = getattr(job, attr, 0) or 0
        if value:
            reg.counter(name, help_text, labelnames=("table", "tenant")).inc(
                float(value), table=table, tenant=tenant
            )
