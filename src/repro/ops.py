"""Client-side operation counters: a view over the metrics registry.

The proxy pipeline bumps ``OPS`` at its expensive choke points
(``parse``, ``plan``, ``translate``) and at the session layer
(``prepare``, ``execute``, cache hits/misses).  Tests and benchmarks use
snapshots to *prove* claims like "re-executing a
:class:`~repro.core.session.PreparedQuery` performs zero planner and
translator work" instead of inferring them from timings.

There is one store: the :mod:`repro.obs.metrics` counter
``seabed_client_ops_total{op=...}``.  ``OPS.bump`` increments it and
``get``/``snapshot``/``delta`` read it, so a metrics scrape sees exactly
the counts the tests assert on (and the registry's kill switch stops
both).

Lives at the package top level (not ``repro.core``) so leaf modules like
the parser can bump counters without importing the core package, whose
``__init__`` pulls in the whole proxy pipeline.
"""

from __future__ import annotations

from repro.obs import metrics as _obs_metrics

_OPS_TOTAL = _obs_metrics.get_registry().counter(
    "seabed_client_ops_total",
    "Client pipeline operations (parse/plan/translate/execute/cache).",
    labelnames=("op",),
)


class _Ops:
    def bump(self, op: str, n: int = 1) -> None:
        _OPS_TOTAL.inc(float(n), op=op)

    def get(self, op: str) -> int:
        return int(_OPS_TOTAL.value(op=op))

    def snapshot(self) -> dict[str, int]:
        return {op: int(v) for (op,), v in _OPS_TOTAL.values().items()}

    def delta(self, before: dict[str, int]) -> dict[str, int]:
        """Per-op increments since ``before`` (a prior :meth:`snapshot`)."""
        now = self.snapshot()
        return {op: n - before.get(op, 0) for op, n in now.items()
                if n != before.get(op, 0)}


#: The handle the pipeline modules bump.
OPS = _Ops()
