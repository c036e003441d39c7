"""The batch crypto-kernel protocol: array-in / array-out primitives.

Seabed's performance story (Table 1, Figures 6-7) only holds when the
crypto primitives are *batch* operations over whole columns -- the same
lesson the "Computing on Masked Data" line of work draws for masked-data
analytics.  Every scheme in this package therefore implements one uniform
:class:`Kernel` protocol:

- ``encrypt_column(values, start_id=0)`` -- encrypt a whole column.
  ``start_id`` is the first row identifier; schemes whose ciphertexts do
  not depend on row identity (DET, ORE, Paillier, plain) accept and
  ignore it.
- ``decrypt_column(cipher, start_id=0)`` -- the inverse.
- ``compare_column(cipher, token)`` -- server-side predicate evaluation
  of a whole ciphertext column against one query token, with no key
  material.
- ``pad_range(start_id, count)`` -- the per-row pad stream for a
  contiguous identifier range (ASHE's telescoping masks; zeros for
  plaintext).

Operations that are cryptographically meaningless for a scheme (ORE
cannot be decrypted, Paillier reveals no order) raise
:class:`~repro.errors.KernelUnsupported`; each scheme declares them in
``KERNEL_UNSUPPORTED`` so capability checks need no trial calls.

The per-value entry points (``encrypt_one`` / ``decrypt_one`` /
``encrypt(m, i)``) are the *reference path* the property tests and
``benchmarks/bench_kernels.py`` measure the batch kernels against.
"""

from __future__ import annotations

import time
from typing import Protocol, runtime_checkable

import numpy as np

from repro.errors import CryptoError, KernelUnsupported
from repro.obs import metrics as _obs_metrics

_U64 = np.uint64

#: The four batch-kernel operations, in protocol order.
KERNEL_OPS = ("encrypt_column", "decrypt_column", "compare_column", "pad_range")


@runtime_checkable
class Kernel(Protocol):
    """Structural type for a batch crypto kernel (see module docstring)."""

    def encrypt_column(self, values: np.ndarray, start_id: int = 0) -> np.ndarray:
        ...

    def decrypt_column(self, cipher: np.ndarray, start_id: int = 0) -> np.ndarray:
        ...

    def compare_column(self, cipher: np.ndarray, token) -> np.ndarray:
        ...

    def pad_range(self, start_id: int, count: int) -> np.ndarray:
        ...


def kernel_ops(kernel: object) -> dict[str, bool]:
    """Which of the four kernel ops ``kernel`` actually supports.

    Uses the scheme's declared ``KERNEL_UNSUPPORTED`` set -- no trial
    calls, so probing a capability never costs an exception.
    """
    unsupported = frozenset(getattr(kernel, "KERNEL_UNSUPPORTED", ()))
    return {op: op not in unsupported for op in KERNEL_OPS}


def validate_kernel(kernel: object) -> None:
    """Raise :class:`CryptoError` unless ``kernel`` satisfies the protocol."""
    if not isinstance(kernel, Kernel):
        missing = [op for op in KERNEL_OPS if not callable(getattr(kernel, op, None))]
        raise CryptoError(
            f"{type(kernel).__name__} does not implement the Kernel protocol "
            f"(missing: {', '.join(missing) or 'nothing?'})"
        )


# -- kernel instrumentation --------------------------------------------------

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
    """Transparent timing wrapper around any :class:`Kernel`.

    Times the four batch operations into :func:`observe_kernel_op` and
    forwards everything else (``token_for``, ``KERNEL_UNSUPPORTED``,
    scheme-specific helpers) to the wrapped instance, so callers that
    duck-type against scheme attributes keep working unchanged.
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


# -- the trivial kernel ------------------------------------------------------


class PlainKernel:
    """The identity "scheme": plaintext columns behind the Kernel protocol.

    The NoEnc baseline flows through the same batch interface as the
    encrypted schemes, so the execution tier has exactly one calling
    convention regardless of mode.
    """

    KERNEL_UNSUPPORTED: frozenset[str] = frozenset()

    def encrypt_column(self, values: np.ndarray, start_id: int = 0) -> np.ndarray:
        v = np.asarray(values)
        if v.ndim != 1:
            raise CryptoError("encrypt_column expects a 1-D array")
        return v.astype(np.int64, copy=False)

    def decrypt_column(self, cipher: np.ndarray, start_id: int = 0) -> np.ndarray:
        c = np.asarray(cipher)
        if c.ndim != 1:
            raise CryptoError("decrypt_column expects a 1-D array")
        return c.astype(np.int64, copy=False)

    def compare_column(self, cipher: np.ndarray, token) -> np.ndarray:
        """Sign of ``cipher - token`` as int8 (-1 / 0 / +1) per row."""
        c = np.asarray(cipher, dtype=np.int64)
        t = np.int64(int(token))
        return np.sign(c - t).astype(np.int8)

    def pad_range(self, start_id: int, count: int) -> np.ndarray:
        """Plaintext needs no masking: the pad stream is all zeros."""
        if count < 0:
            raise CryptoError(f"negative pad range count: {count}")
        return np.zeros(count, dtype=_U64)


__all__ = [
    "KERNEL_OPS",
    "InstrumentedKernel",
    "Kernel",
    "KernelUnsupported",
    "PlainKernel",
    "kernel_ops",
    "observe_kernel_op",
    "validate_kernel",
]
