"""A minimal RDD-style API over the simulated cluster.

The Seabed query translator targets the Spark API (paper Table 2):
``table.filter(...).map(...).reduce(...)`` and ``reduceByKey``.  This
module provides exactly that surface over row-oriented partitions, so the
translation examples from the paper run verbatim in tests and examples.
The vectorised physical operators in :mod:`repro.core.server` remain the
hot path for benchmarks; the RDD layer trades speed for fidelity.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, TypeVar

from repro.engine.cluster import SimulatedCluster
from repro.engine.metrics import JobMetrics
from repro.engine.table import Table
from repro.errors import ExecutionError

T = TypeVar("T")
U = TypeVar("U")
K = TypeVar("K")
V = TypeVar("V")


class RDD:
    """An eager, partitioned collection with Spark-like operations."""

    def __init__(self, cluster: SimulatedCluster, partitions: list[list[Any]],
                 metrics: JobMetrics | None = None):
        self._cluster = cluster
        self._partitions = partitions
        self.metrics = metrics if metrics is not None else JobMetrics()

    # -- constructors ----------------------------------------------------------

    @classmethod
    def from_table(cls, cluster: SimulatedCluster, table: Table,
                   columns: list[str] | None = None) -> "RDD":
        """Rows become tuples ``(row_id, col0, col1, ...)``.

        The leading row ID mirrors Seabed's "ID preservation" rewrite
        (Table 2): the translator keeps the identifier column in every
        projection so ASHE aggregation stays decryptable.
        """
        columns = columns or [c for c in table.column_names]
        partitions = []
        for part in table.partitions:
            arrays = [part.column(c) for c in columns]
            rows = [
                (part.start_id + j, *(a[j] for a in arrays))
                for j in range(part.nrows)
            ]
            partitions.append(rows)
        return cls(cluster, partitions)

    @classmethod
    def parallelize(cls, cluster: SimulatedCluster, data: Iterable[Any],
                    num_partitions: int = 4) -> "RDD":
        items = list(data)
        if not items:
            return cls(cluster, [[]])
        num_partitions = max(1, min(num_partitions, len(items)))
        size = -(-len(items) // num_partitions)
        parts = [items[i : i + size] for i in range(0, len(items), size)]
        return cls(cluster, parts)

    # -- transformations -------------------------------------------------------

    def map(self, fn: Callable[[Any], U]) -> "RDD":
        return self._stage("map", lambda rows: [fn(r) for r in rows])

    def filter(self, fn: Callable[[Any], bool]) -> "RDD":
        return self._stage("filter", lambda rows: [r for r in rows if fn(r)])

    def flat_map(self, fn: Callable[[Any], Iterable[U]]) -> "RDD":
        return self._stage("flatMap", lambda rows: [x for r in rows for x in fn(r)])

    def map_partitions(self, fn: Callable[[list[Any]], list[U]]) -> "RDD":
        return self._stage("mapPartitions", fn)

    def _stage(self, name: str, fn: Callable[[list[Any]], list[Any]]) -> "RDD":
        results, _ = self._cluster.map_stage(name, fn, self._calls(), self.metrics)
        return RDD(self._cluster, results, self.metrics)

    def _calls(self) -> list[tuple[list[Any]]]:
        return [(rows,) for rows in self._partitions]

    # -- actions ---------------------------------------------------------------

    def collect(self) -> list[Any]:
        return [r for rows in self._partitions for r in rows]

    def count(self) -> int:
        results, _ = self._cluster.map_stage("count", len, self._calls(), self.metrics)
        return sum(results)

    def reduce(self, fn: Callable[[Any, Any], Any]) -> Any:
        """Two-level reduce: per-partition, then at the driver."""

        def reduce_partition(rows: list[Any]) -> list[Any]:
            if not rows:
                return []
            acc = rows[0]
            for r in rows[1:]:
                acc = fn(acc, r)
            return [acc]

        partials, _ = self._cluster.map_stage(
            "reduce", reduce_partition, self._calls(), self.metrics
        )
        flat = [p[0] for p in partials if p]
        if not flat:
            raise ExecutionError("reduce of an empty RDD")

        def driver_merge() -> Any:
            acc = flat[0]
            for x in flat[1:]:
                acc = fn(acc, x)
            return acc

        return self._cluster.run_driver("reduce-merge", driver_merge, self.metrics)

    def reduce_by_key(self, fn: Callable[[Any, Any], Any],
                      num_reducers: int | None = None) -> "RDD":
        """Hash-partitioned shuffle followed by per-reducer merges."""
        reducers = num_reducers or max(1, self._cluster.config.cores)

        def combine(rows: list[Any]) -> list[dict[Any, Any]]:
            buckets: list[dict[Any, Any]] = [dict() for _ in range(reducers)]
            for key, value in rows:
                bucket = buckets[hash(key) % reducers]
                bucket[key] = fn(bucket[key], value) if key in bucket else value
            return buckets

        map_out, _ = self._cluster.map_stage(
            "shuffle-map", combine, self._calls(), self.metrics
        )
        # Model shuffle volume: every (key, value) pair crossing the wire.
        shuffle_bytes = sum(
            32 * len(bucket) for buckets in map_out for bucket in buckets
        )
        self.metrics.shuffles.append((shuffle_bytes, 0))

        def merge_reducer(idx: int) -> list[tuple[Any, Any]]:
            merged: dict[Any, Any] = {}
            for buckets in map_out:
                for key, value in buckets[idx].items():
                    merged[key] = fn(merged[key], value) if key in merged else value
            return list(merged.items())

        reduced, _ = self._cluster.map_stage(
            "shuffle-reduce", merge_reducer, [(i,) for i in range(reducers)],
            self.metrics,
        )
        return RDD(self._cluster, reduced, self.metrics)

    @property
    def num_partitions(self) -> int:
        return len(self._partitions)
