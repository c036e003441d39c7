"""The simulated cluster: real task execution, and the Spark time model.

Substitution note: the paper measures a Spark deployment on up to 100
Azure cores; one host stands in for it.  Here every task body executes
for real and :class:`SimulatedCluster` only *measures* it -- per-task
seconds, stage wall-clock, bytes moved -- into a
:class:`~repro.engine.metrics.JobMetrics`.  Nothing modelled is stored,
shipped or published.

The paper-scale time model lives in one pure function, :func:`model`,
that the figure benchmarks call on finished jobs: it adds the per-task
and per-job start-up floors, *schedules* the measured task durations
onto ``config.cores`` simulated cores (:func:`makespan`: FIFO onto the
least-loaded core, which is how Spark's standalone scheduler behaves for
a single stage), and charges shuffles and the result transfer to a
bandwidth + latency link, configurable separately for the intra-cluster
shuffle path and the server-to-client path -- Section 6.6 of the paper
varies the client link from 2 Gbps/0ms to 10 Mbps/100ms.

Stragglers: the paper observes occasional straggler tasks caused by GC
pauses (Section 6.2).  ``straggler_prob``/``straggler_factor`` inject that
behaviour deterministically (seeded) into the modelled schedule so its
effect on job latency can be studied without waiting for a real GC.
"""

from __future__ import annotations

# Imported for its effect on the process heap, not for its names -- and it
# is not a fix.  ingest-mixed's perf/ calibration kernel lands in one of
# two malloc states, and which one is chosen by the heap layout, not by
# this code: on a 2-vCPU host the same tree read 18 ms calibration /
# 139 MB peak RSS from one checkout directory and 24 ms / 117 MB from a
# directory with a longer name; without this import it read 26-28 ms, and
# with MALLOC_MMAP_THRESHOLD_ pinned 31-32 ms, both at ~116 MB.
# Uncalibrated latency moved in none of these.  The cure belongs in perf/
# (ROADMAP item 1(b)); delete this import with it.
import concurrent.futures.process  # noqa: F401
import heapq
import os
import time
from dataclasses import dataclass
from random import Random
from typing import Callable, Iterable, NamedTuple, Sequence, TypeVar

from repro.engine.metrics import JobMetrics, StageMetrics
from repro.errors import ExecutionError
from repro.obs import trace as obs_trace

T = TypeVar("T")

GBPS = 1e9 / 8  # bytes per second per Gbit/s
MBPS = 1e6 / 8


@dataclass(frozen=True)
class ClusterConfig:
    """Knobs for the deployment, and the parameters of the time model
    (read only by :func:`model`).

    Model defaults approximate the paper's testbed: 100-core jobs see a
    ~0.6 s floor from job/task creation (Figure 6a), a 2 Gbps client
    link, and a fast intra-cluster network.  Stages always run in the
    calling thread; ``cores`` is how many cores :func:`model` schedules
    their measured task times onto, which is this repository's only
    account of multi-core scaling (Figures 6-7).

    ``storage_dir`` is the deployment's durable storage root: relative
    store names passed to ``EncryptedTable.save`` / ``SeabedSession.
    open_table`` resolve under it (the "cloud bucket" the paper uploads
    encrypted datasets into once and attaches to repeatedly).

    ``append_partition_rows`` is how incoming batches are routed into
    partitions: ``SeabedSession.append_rows`` slices each streamed batch
    into partitions of roughly this many rows (one partition for smaller
    batches); store compaction then merges runs of small append
    generations back into full-size partitions (sized, by default, like
    the store's own largest generation).
    """

    cores: int = 16
    task_startup_s: float = 0.002  # per-task scheduling/deserialisation cost
    job_startup_s: float = 0.25  # driver-side job submission floor
    shuffle_link_bytes_s: float = 250 * MBPS  # each node's shuffle link
    shuffle_latency_s: float = 0.001
    client_bandwidth_bytes_s: float = 2 * GBPS
    client_latency_s: float = 0.0005
    straggler_prob: float = 0.0
    straggler_factor: float = 8.0
    seed: int = 0
    storage_dir: str | None = None  # root for persistent partition stores
    append_partition_rows: int = 65_536  # target rows per appended partition
    #: Slow-query threshold (seconds of measured execution time).  When
    #: set, queries whose ``JobMetrics.real_time`` crosses it emit a
    #: structured ``slow_query`` event on the ``repro.obs`` logger and
    #: bump ``seabed_slow_queries_total``.  ``None`` disables the log.
    slow_query_s: float | None = None

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise ExecutionError(
                f"cluster must have at least one core, got {self.cores}"
            )
        if self.append_partition_rows < 1:
            raise ExecutionError(
                f"append_partition_rows must be positive, "
                f"got {self.append_partition_rows}"
            )
        if self.slow_query_s is not None and self.slow_query_s < 0:
            raise ExecutionError(
                f"slow_query_s must be None or non-negative, "
                f"got {self.slow_query_s}"
            )

    def resolve_store_path(self, name_or_path: str) -> str:
        """Resolve a store name against ``storage_dir`` (absolute paths and
        explicitly relative ``./``-style paths pass through)."""
        if self.storage_dir is None or os.path.isabs(name_or_path):
            return name_or_path
        head = name_or_path.split(os.sep, 1)[0]
        if head in (".", ".."):
            return name_or_path
        return os.path.join(self.storage_dir, name_or_path)


def makespan(durations: Sequence[float], cores: int) -> float:
    """FIFO placement of task durations onto the least-loaded core."""
    if cores < 1:
        raise ExecutionError(f"cluster must have at least one core, got {cores}")
    if not durations:
        return 0.0
    loads = [0.0] * min(cores, len(durations))
    heapq.heapify(loads)
    for d in durations:
        heapq.heappush(loads, heapq.heappop(loads) + d)
    return max(loads)


class ModelledTime(NamedTuple):
    """What :func:`model` returns, in seconds."""

    server_s: float
    network_s: float
    client_s: float
    total_s: float


def model(jobs: Iterable[JobMetrics], config: ClusterConfig) -> ModelledTime:
    """Latency of ``jobs`` on the paper's cluster, from their measurements.

    The whole time model, and its only copy.  Per job, the server pays
    ``job_startup_s``, then each stage in turn: a task stage is its
    measured task times plus ``task_startup_s`` each (times
    ``straggler_factor`` for the tasks the ``seed``-ed RNG picks with
    ``straggler_prob``), placed by :func:`makespan` on ``cores``; a driver
    stage is serial.  Each shuffle costs ``shuffle_latency_s`` plus its
    bytes split over the receiving nodes, each pulling through its own
    ``shuffle_link_bytes_s`` link, so a shuffle into fewer reducers than
    cores is bottlenecked on the few active links -- the paper's
    bottleneck when a few groups' dense ID lists cross the shuffle
    (Section 4.5); 0 receivers means every core's link.  A node's link
    rate is fixed, not a 1/cores share of a fixed fabric: under a share,
    a shuffle into fewer reducers than cores grew slower with every core
    added, so more cores could model a slower job.  With fixed links more
    cores never model slower (the default link, 250 Mbps, is what each
    node got of the former 4 Gbps fabric at the default 16 cores).  The
    network pays the result's trip over the client link; the client's
    time is the measured ``client_time``.

    Pure: reads ``jobs`` and ``config``, mutates neither, and is
    deterministic in ``config.seed`` (stragglers are drawn job by job,
    stage by stage, task by task from a fresh RNG).  A scatter-gathered
    job arrives with its shards' stages already merged by name, and is
    treated as one cluster's job.
    """
    rng = Random(config.seed)
    server = network = client = 0.0
    for job in jobs:
        server += config.job_startup_s
        for stage in job.stages:
            if stage.driver:
                server += sum(stage.task_times)
                continue
            times = [t + config.task_startup_s for t in stage.task_times]
            if config.straggler_prob > 0.0:
                times = [
                    t * config.straggler_factor
                    if rng.random() < config.straggler_prob else t
                    for t in times
                ]
            server += makespan(times, config.cores)
        for nbytes, receivers in job.shuffles:
            active = min(receivers, config.cores) or config.cores
            server += config.shuffle_latency_s + nbytes / active / config.shuffle_link_bytes_s
        network += (
            config.client_latency_s
            + job.result_bytes / config.client_bandwidth_bytes_s
        )
        client += job.client_time
    return ModelledTime(server, network, client, server + network + client)


class SimulatedCluster:
    """Executes stages of tasks and measures them.

    Every task body runs in the calling thread, one after another; each
    task's seconds and the stage's wall-clock are recorded.
    :meth:`model` turns finished jobs into paper-scale latency under this
    cluster's config, scheduling those task times onto ``cores``.
    """

    def __init__(self, config: ClusterConfig | None = None):
        self.config = config or ClusterConfig()

    # -- stage execution -----------------------------------------------------

    def map_stage(
        self,
        name: str,
        fn: Callable[..., T],
        calls: Sequence[tuple],
        metrics: JobMetrics | None = None,
    ) -> tuple[list[T], StageMetrics]:
        """Run ``fn(*call)`` per call, in order, timing each call."""
        wall0 = time.perf_counter()
        results: list[T] = []
        task_times: list[float] = []
        for call in calls:
            t0 = time.perf_counter()
            results.append(fn(*call))
            task_times.append(time.perf_counter() - t0)
        end = time.perf_counter()
        stage = StageMetrics(name=name, task_times=task_times, wall_time=end - wall0)
        if metrics is not None:
            metrics.add_stage(stage)
        obs_trace.record_span(f"stage:{name}", wall0, end, tasks=stage.num_tasks)
        return results, stage

    def run_driver(
        self, name: str, fn: Callable[[], T], metrics: JobMetrics | None = None
    ) -> T:
        """Run single-threaded driver-side work (merge, re-encode...)."""
        t0 = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - t0
        stage = StageMetrics(
            name=name, task_times=[elapsed], wall_time=elapsed, driver=True
        )
        if metrics is not None:
            metrics.add_stage(stage)
        obs_trace.record_span(f"stage:{name}", t0, t0 + elapsed, tasks=1)
        return result

    # -- the model -------------------------------------------------------------

    def model(self, jobs: Iterable[JobMetrics]) -> ModelledTime:
        """:func:`model` under this cluster's config."""
        return model(jobs, self.config)
