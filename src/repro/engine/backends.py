"""Pluggable parallel execution backends for the simulated cluster.

The paper's prototype gets its throughput from Spark running map tasks
concurrently on real cores (Figures 6-7 report near-linear scaling of
encrypted aggregation).  Historically this repository executed every task
serially in a Python loop and only *simulated* the parallel schedule.
The backends here make the execution itself parallel while the placement
model stays exactly as before: per-task wall times are still measured
inside the worker and still feed the FIFO least-loaded-core schedule
(:func:`repro.engine.cluster.model`), so modelled time is
backend-independent (modulo timing noise).

Three backends are provided:

- ``serial`` -- the original behaviour and the default; tasks run one
  after another on the calling thread.  Deterministic, zero overhead,
  and what every figure benchmark expects.
- ``threads`` -- a :class:`~concurrent.futures.ThreadPoolExecutor`.
  The hot kernels (numpy reductions, ``reduceat``, packed-ORE compares)
  release the GIL, so stages with several partitions genuinely overlap
  on multi-core hosts.
- ``processes`` -- a :class:`~concurrent.futures.ProcessPoolExecutor`
  for CPU-bound pure-Python work (Paillier big-int products, PRF loops)
  that the GIL would otherwise serialise.  Task functions must be
  top-level (picklable) and take picklable arguments; the server's stage
  bodies are written that way (see :mod:`repro.core.server`).

Pools are created lazily on first use and kept alive for the lifetime of
the backend object -- warm across every query the session runs -- and
stages dispatch in *chunks*: tasks are grouped into at most
``2 x workers`` contiguous chunks per stage, so dispatch overhead is a
handful of ``submit`` calls (and, for processes, pickle round-trips) per
stage instead of one per task.  Per-task times are still measured
individually inside the chunk, so the modelled schedule is unchanged.
"""

from __future__ import annotations

import os
import pickle
import threading
import time
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from typing import Any, Callable, Sequence, Tuple, TypeVar

from repro.errors import ExecutionError

T = TypeVar("T")

#: (task result, measured task seconds) -- what every backend returns
#: per task.  The measurement happens *inside* the worker so it captures
#: task compute only, never queueing or pickling overhead; that is the
#: quantity the cluster time model schedules.
TimedResult = Tuple[Any, float]


def default_workers() -> int:
    """One worker per host CPU (the Spark executor default)."""
    return os.cpu_count() or 1


def pickled_nbytes(obj: Any) -> int:
    """Bytes ``obj`` costs to ship across a process boundary.

    Benchmarks and the dispatch tracker use this to quantify stage
    dispatch volume -- the payload a real cluster would serialise to its
    executors (store-backed partitions ship as tiny refs instead of
    column data, see :mod:`repro.engine.store`).
    """
    return len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))


def timed_call(
    fn: Callable[..., T], args: tuple, timer: Callable[[], float] = time.perf_counter
) -> TimedResult:
    """Run ``fn(*args)`` and measure it.  Top-level so process pools can
    pickle it as the common task entry point.

    ``timer`` is the clock the measurement uses.  The serial backend
    keeps ``perf_counter`` (bit-for-bit the seed behaviour); the pooled
    backends use ``thread_time`` so that on an oversubscribed host a
    task descheduled in favour of its siblings is not charged for the
    wait -- the simulated schedule wants task *compute*, and under
    serial execution the two clocks agree.
    """
    t0 = timer()
    result = fn(*args)
    return result, timer() - t0


def _call_thunk(thunk: Callable[[], T]) -> T:
    """Adapter turning the legacy zero-arg-callable API into a call."""
    return thunk()


def run_call_chunk(
    fn: Callable[..., T],
    chunk: Sequence[tuple],
    timer: Callable[[], float] = time.perf_counter,
) -> list[TimedResult]:
    """Run a contiguous chunk of calls inside one pool task.

    Top-level so process pools can pickle it.  Each call is still timed
    individually -- the cluster time model schedules per-task compute,
    not per-chunk -- but the pool pays one submit/pickle round-trip for
    the whole chunk.
    """
    return [timed_call(fn, call, timer) for call in chunk]


#: Chunks per unit of *host* parallelism when splitting a stage for pooled
#: dispatch.  2x gives the pool slack to rebalance when task durations are
#: uneven while still collapsing an N-task stage into a handful of
#: submits.  Chunking follows the host CPU count, not the configured
#: worker count: a pool of 8 workers on a 1-core host can still only run
#: one chunk at a time, and extra chunks are pure dispatch overhead.
CHUNKS_PER_WORKER = 2


class ExecutionBackend:
    """Runs one stage's tasks and reports per-task wall time.

    Subclasses implement :meth:`map_calls`; :meth:`run_tasks` adapts the
    legacy closure-based stage API on top of it.
    """

    name: str = "?"
    #: whether :meth:`run_tasks` may hand closures to :meth:`map_calls`
    #: (process pools cannot pickle closures, so they fall back to
    #: in-process execution for that API).
    supports_closures: bool = True
    #: per-task clock; see :func:`timed_call`.
    timer: Callable[[], float] = staticmethod(time.perf_counter)

    def __init__(self, workers: int | None = None):
        self.workers = int(workers) if workers else default_workers()
        if self.workers < 1:
            raise ExecutionError(
                f"execution backend needs at least one worker, got {self.workers}"
            )

    # -- core dispatch -------------------------------------------------------

    def map_calls(
        self, fn: Callable[..., T], calls: Sequence[tuple]
    ) -> list[TimedResult]:
        """Run ``fn(*call)`` for every call, in order.

        ``fn`` must be a top-level function and every call tuple must be
        picklable for the ``processes`` backend; ``serial`` and
        ``threads`` accept anything callable.
        """
        raise NotImplementedError

    def run_tasks(self, thunks: Sequence[Callable[[], T]]) -> list[TimedResult]:
        """Legacy API: run zero-arg callables (closures allowed)."""
        if not self.supports_closures:
            return [timed_call(_call_thunk, (t,), self.timer) for t in thunks]
        return self.map_calls(_call_thunk, [(t,) for t in thunks])

    def close(self) -> None:
        """Release pooled resources (idempotent)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} name={self.name!r} workers={self.workers}>"


class SerialBackend(ExecutionBackend):
    """The original loop: every task on the calling thread, in order."""

    name = "serial"

    def __init__(self, workers: int | None = None):
        super().__init__(workers or 1)

    def map_calls(
        self, fn: Callable[..., T], calls: Sequence[tuple]
    ) -> list[TimedResult]:
        return [timed_call(fn, call, self.timer) for call in calls]


class _PoolBackend(ExecutionBackend):
    """Shared lazy-pool plumbing for the two executor-based backends."""

    def __init__(self, workers: int | None = None):
        super().__init__(workers)
        self._executor: Executor | None = None
        # query_many() can drive stages from several threads at once; the
        # lock keeps a cold pool from being created twice (the loser's
        # executor would leak beyond close()'s reach).
        self._pool_lock = threading.Lock()

    def _make_pool(self) -> Executor:
        raise NotImplementedError

    @property
    def pool(self) -> Executor:
        if self._executor is None:
            with self._pool_lock:
                if self._executor is None:
                    self._executor = self._make_pool()
        return self._executor

    def map_calls(
        self, fn: Callable[..., T], calls: Sequence[tuple]
    ) -> list[TimedResult]:
        calls = list(calls)
        if len(calls) <= 1:
            # A one-task stage gains nothing from the pool; skip the
            # dispatch overhead (and, for processes, the pickling).
            return [timed_call(fn, call, self.timer) for call in calls]
        futures = [
            self.pool.submit(run_call_chunk, fn, chunk, self.timer)
            for chunk in self._chunk(calls)
        ]
        out: list[TimedResult] = []
        for f in futures:
            out.extend(f.result())
        return out

    def _chunk(self, calls: list[tuple]) -> list[list[tuple]]:
        """Split a stage into contiguous, near-equal chunks
        (order-preserving); see :data:`CHUNKS_PER_WORKER`.

        A stage no larger than the pool keeps one call per chunk: every
        task gets its own worker immediately (tasks that block on each
        other -- barriers, pipes -- rely on that), and a handful of
        submits costs nothing.  Only stages that outnumber the workers
        are packed down to amortise dispatch.
        """
        if len(calls) <= self.workers:
            return [[call] for call in calls]
        parallelism = min(self.workers, os.cpu_count() or 1)
        # With one usable CPU there is nothing to rebalance between
        # chunks, so the whole stage ships as a single pool task and the
        # dispatch cost collapses to one submit + one wakeup.
        n_chunks = 1 if parallelism == 1 else min(
            len(calls), parallelism * CHUNKS_PER_WORKER
        )
        base, extra = divmod(len(calls), n_chunks)
        chunks: list[list[tuple]] = []
        start = 0
        for c in range(n_chunks):
            size = base + (1 if c < extra else 0)
            chunks.append(calls[start : start + size])
            start += size
        return chunks

    def close(self) -> None:
        with self._pool_lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)


class ThreadBackend(_PoolBackend):
    """Thread pool; effective because the numpy kernels release the GIL."""

    name = "threads"
    timer = staticmethod(time.thread_time)

    def _make_pool(self) -> Executor:
        return ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="seabed-worker"
        )


class ProcessBackend(_PoolBackend):
    """Process pool for CPU-bound pure-Python stages (PRF, Paillier).

    Task functions and arguments cross a pickle boundary, which is the
    same constraint a real Spark deployment puts on its closures; the
    server's stage bodies are top-level functions for exactly this
    reason.  Closure-based stages (:meth:`run_tasks`) transparently fall
    back to in-process execution.
    """

    name = "processes"
    supports_closures = False
    timer = staticmethod(time.thread_time)

    def __init__(self, workers: int | None = None):
        super().__init__(workers)
        #: when True, every pooled stage adds its pickled call-tuple sizes
        #: to ``dispatched_bytes`` -- the benchmark hook quantifying what
        #: this backend actually ships to workers per stage.
        self.track_dispatch = False
        self.dispatched_bytes = 0
        # query_many() drives stages from several threads; `+=` on the
        # counter is not atomic, so bumps go through a lock (one
        # acquisition per stage, not per task).
        self._dispatch_lock = threading.Lock()

    def map_calls(
        self, fn: Callable[..., T], calls: Sequence[tuple]
    ) -> list[TimedResult]:
        calls = list(calls)
        if self.track_dispatch and len(calls) > 1:
            stage_bytes = sum(pickled_nbytes(call) for call in calls)
            with self._dispatch_lock:
                self.dispatched_bytes += stage_bytes
        return super().map_calls(fn, calls)

    def _make_pool(self) -> Executor:
        return ProcessPoolExecutor(max_workers=self.workers)


BACKENDS: dict[str, type[ExecutionBackend]] = {
    SerialBackend.name: SerialBackend,
    ThreadBackend.name: ThreadBackend,
    ProcessBackend.name: ProcessBackend,
}


def make_backend(name: str, workers: int | None = None) -> ExecutionBackend:
    """Instantiate a backend by name (``serial`` | ``threads`` | ``processes``)."""
    try:
        cls = BACKENDS[name]
    except KeyError:
        raise ExecutionError(
            f"unknown execution backend {name!r}; choose from {sorted(BACKENDS)}"
        ) from None
    return cls(workers)
