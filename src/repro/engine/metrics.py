"""Measurements of executed jobs -- and nothing else.

A job is a sequence of stages (map, reduce, driver work) plus the bytes
it moved.  Everything recorded here was *measured* on this host: per-task
seconds, per-stage wall-clock, byte volumes, counters.  These records
travel over both RPC hops and feed the metrics registry, the spans and
the slow-query log.  Paper-scale numbers (Figures 6-9's latency on a
100-core Spark cluster) are not stored anywhere: whoever wants them
calls :func:`repro.engine.cluster.model` on finished jobs.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class StageMetrics:
    """One executed stage.

    ``task_times`` are the measured seconds of each task body;
    ``wall_time`` is the real elapsed time the stage took on this host,
    its tasks run one after another in the calling thread.  ``driver`` marks
    single-threaded driver-side work (merge, re-encode...), which ran as
    one serial piece rather than as schedulable tasks.

    ``partitions_total``/``partitions_skipped`` record zone-map pruning
    on partition-mapping stages: of the table's ``partitions_total``
    partitions, how many the index proved irrelevant and never
    dispatched.  Reduce and driver stages leave both at 0; a map stage
    with pruning disabled (or nothing prunable) reports its full
    partition count with 0 skipped.
    """

    name: str
    task_times: list[float]
    wall_time: float = 0.0
    partitions_total: int = 0
    partitions_skipped: int = 0
    driver: bool = False

    @property
    def num_tasks(self) -> int:
        return len(self.task_times)

    @property
    def total_cpu(self) -> float:
        return sum(self.task_times)


@dataclass
class JobMetrics:
    """Accumulated measurements for one query execution."""

    stages: list[StageMetrics] = field(default_factory=list)
    # Shuffle volume, one ``(bytes, receivers)`` entry per shuffle;
    # ``receivers`` is the number of reduce tasks pulling it (0 for a
    # broadcast / gather that is not spread over reducers).
    shuffles: list[tuple[int, int]] = field(default_factory=list)
    result_bytes: int = 0  # driver -> client
    client_time: float = 0.0  # decryption + post-processing at the proxy
    # Sharded scatter-gather accounting (repro.shard): of the table's
    # ``shards_total`` shards, how many the ring router / zone-map rollups
    # proved irrelevant and never contacted, and how many shard stages had
    # to be retried on a replica after their primary worker died.
    shards_total: int = 0
    shards_skipped: int = 0
    failovers: int = 0
    # Service-layer accounting (repro.net): time the request sat in the
    # server's admission queue before a slot opened, and the client-side
    # round trip spent on the wire (encode + socket + decode) beyond the
    # executed job itself.  Both stay 0.0 for in-process transports.
    queue_wait: float = 0.0
    wire_time: float = 0.0

    def add_stage(self, stage: StageMetrics) -> None:
        self.stages.append(stage)

    @property
    def real_time(self) -> float:
        """Wall-clock spent executing stages on this host."""
        return sum(s.wall_time for s in self.stages)

    @property
    def shuffle_bytes(self) -> int:
        return sum(nbytes for nbytes, _ in self.shuffles)

    @property
    def partitions_total(self) -> int:
        """Partitions the job's map stages would touch without pruning."""
        return sum(s.partitions_total for s in self.stages)

    @property
    def partitions_skipped(self) -> int:
        """Partitions the zone-map index let the job skip entirely."""
        return sum(s.partitions_skipped for s in self.stages)

    def stage(self, name: str) -> StageMetrics:
        for s in self.stages:
            if s.name == name:
                return s
        raise KeyError(f"no stage named {name!r}")
