"""Instrumentation for the schemes' batch crypto operations.

Seabed's performance story (Table 1, Figures 6-7) only holds when the
crypto primitives are *batch* operations over whole columns -- the same
lesson the "Computing on Masked Data" line of work draws for masked-data
analytics.  Each scheme has exactly the array-in / array-out operations
the planner's choice of it implies (paper Sections 3 and 4.2):

=========  ==========================================================
Scheme     Batch operations
=========  ==========================================================
ASHE       ``encrypt_column`` / ``decrypt_column`` (rows get IDs from
           ``start_id``) and ``pad_range(start_id, count)``, the
           telescoping pad stream of a contiguous ID range
DET        ``encrypt_column`` / ``decrypt_column`` and
           ``compare_column(cipher, token)``, equality as int8
ORE        ``encrypt_column`` and ``compare_column(cipher, token)``,
           the order sign as int8; CLWW ciphertexts are not invertible
Paillier   ``encrypt_column`` / ``decrypt_column`` over object arrays
=========  ==========================================================

An operation a scheme cannot run is simply absent.  The per-value entry
points (``encrypt_one`` / ``decrypt_one`` / ``encrypt(m, i)``) serve
query constants through the same AES-NI pass as the batch operations.
``benchmarks/bench_kernels.py`` measures each batch operation against
calling them once per value.

This module times those batch calls: :func:`observe_kernel_op` folds one
call into the metrics registry, and :class:`InstrumentedKernel` wraps a
scheme so each of its batch calls is observed.
"""

from __future__ import annotations

import time

from repro.obs import metrics as _obs_metrics

#: ns/op buckets for per-scheme kernel timings: 1 ns .. 100 us per value.
KERNEL_NS_BUCKETS = (
    1.0, 3.0, 10.0, 30.0, 100.0, 300.0, 1e3, 3e3, 1e4, 3e4, 1e5,
)


def observe_kernel_op(scheme: str, op: str, seconds: float, values: int) -> None:
    """Fold one batch kernel call into the metrics registry.

    Records a per-scheme/per-op ns-per-value histogram
    (``seabed_kernel_ns_per_op``) and a processed-value counter
    (``seabed_kernel_values_total``) -- the live counterpart of the
    Table 1 numbers ``benchmarks/bench_kernels.py`` measures offline.
    """
    if not _obs_metrics.enabled() or values <= 0:
        return
    reg = _obs_metrics.get_registry()
    reg.histogram(
        "seabed_kernel_ns_per_op",
        "Batch crypto-kernel cost per value, by scheme and operation.",
        labelnames=("scheme", "op"),
        buckets=KERNEL_NS_BUCKETS,
    ).observe(seconds * 1e9 / values, scheme=scheme, op=op)
    reg.counter(
        "seabed_kernel_values_total",
        "Values processed by batch crypto kernels.",
        labelnames=("scheme", "op"),
    ).inc(float(values), scheme=scheme, op=op)


class InstrumentedKernel:
    """Transparent timing wrapper around one scheme instance.

    Times the batch operations into :func:`observe_kernel_op` and forwards
    everything else (``token``, ``prf_evals``, the per-value entry
    points) to the wrapped instance, so callers that duck-type against
    scheme attributes keep working unchanged.  Calling a batch operation
    the wrapped scheme lacks raises ``AttributeError``.
    """

    __slots__ = ("_kernel", "_scheme")

    def __init__(self, kernel, scheme: str) -> None:
        self._kernel = kernel
        self._scheme = scheme

    @property
    def wrapped(self):
        return self._kernel

    def _timed(self, op: str, fn, values: int, *args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        observe_kernel_op(self._scheme, op, time.perf_counter() - t0, values)
        return out

    def encrypt_column(self, values, start_id: int = 0):
        n = len(values) if hasattr(values, "__len__") else 0
        return self._timed(
            "encrypt_column", self._kernel.encrypt_column, n, values, start_id
        )

    def decrypt_column(self, cipher, start_id: int = 0):
        n = len(cipher) if hasattr(cipher, "__len__") else 0
        return self._timed(
            "decrypt_column", self._kernel.decrypt_column, n, cipher, start_id
        )

    def compare_column(self, cipher, token):
        n = len(cipher) if hasattr(cipher, "__len__") else 0
        return self._timed(
            "compare_column", self._kernel.compare_column, n, cipher, token
        )

    def pad_range(self, start_id: int, count: int):
        return self._timed(
            "pad_range", self._kernel.pad_range, count, start_id, count
        )

    def __getattr__(self, name: str):
        return getattr(self._kernel, name)

    def __reduce__(self):
        # Explicit so copying or pickling never routes through
        # __getattr__ forwarding (which recurses before _kernel is set).
        return (InstrumentedKernel, (self._kernel, self._scheme))

    def __repr__(self) -> str:
        return f"InstrumentedKernel({self._scheme}, {self._kernel!r})"


__all__ = ["InstrumentedKernel", "observe_kernel_op"]
