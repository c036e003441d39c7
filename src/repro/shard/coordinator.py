"""Scatter-gather coordination over process-isolated shard workers.

Two layers live here:

- :class:`ShardedStore` -- the topology half.  It owns the directory
  tree (``<root>/node-<n>/shard-<s>/``), the consistent-hash ring that
  places shards on nodes (R-way replica chains), and one
  :class:`~repro.engine.transport.WorkerHandle` per node.  Storage
  operations (append / truncate / compact, :class:`ShardReplicas`)
  address *all live replicas* of a shard, in the same order with the
  same batches, so replica stores stay bit-identical and failover needs
  no reconciliation.
- :class:`ShardCoordinator` -- the query half.  It routes a
  :class:`~repro.core.server.ServerQuery` to the shards that could hold
  matching rows (DET point/IN predicates on the shard key resolve to
  owners through the ring; per-shard zone-map rollups prune ORE ranges
  and everything else), scatters the survivors across worker processes,
  retries a shard's stage on the next replica when its worker dies
  mid-call, and merges the encrypted partial aggregates exactly once --
  so results are bit-identical to single-store execution.

``JobMetrics.shards_total`` / ``shards_skipped`` / ``failovers`` record
the routing and the recoveries; per-stage metrics from the workers are
folded together (task times concatenated, wall times combined as a max,
since shard nodes run in parallel).

Leakage: routing consults only DET tokens and the zone-map rollups --
both already part of the DET/ORE leakage baseline the single-store
pruning index exposes.  Which shards a query touches is exactly the
partition-access pattern the paper's server already sees.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Any, Sequence

import numpy as np

from repro.core import server as srv
from repro.engine.cluster import ClusterConfig, SimulatedCluster
from repro.engine.metrics import JobMetrics, StageMetrics
from repro.engine.table import Table
from repro.engine.transport import WorkerDied, WorkerHandle
from repro.errors import ExecutionError, ShardUnavailable
from repro.index import prune
from repro.net import codec
from repro.obs import trace as obs_trace
from repro.shard.ring import HashRing
from repro.shard.worker import shard_worker_main

#: Row-ID stride between shards: shard ``s``'s IDs start at ``s << 44``.
#: Each shard's store keeps the contiguous-ID invariant (ASHE pads
#: telescope, ID lists range-compress) while shard ID spaces stay
#: disjoint, so gathered scan rows and ID lists never collide.
SHARD_ID_STRIDE = 1 << 44


@dataclass(frozen=True)
class ShardTopology:
    """The durable description of one sharded table's layout.

    ``shard_key`` is the logical column whose DET tokens place rows;
    ``key_column`` is its physical ciphertext column (what filters and
    stored rows actually carry).  Shards and nodes are both numbered
    ``0..num_shards-1``: shard ``s``'s primary is node ``s`` under the
    identity placement of :meth:`HashRing.replica_chain`.
    """

    table: str
    shard_key: str
    key_column: str
    num_shards: int
    replicas: int = 1
    vnodes: int = 64

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ExecutionError(
                f"a sharded table needs at least one shard, got {self.num_shards}"
            )
        if not 1 <= self.replicas <= self.num_shards:
            raise ExecutionError(
                f"replicas must be in [1, {self.num_shards}], got {self.replicas}"
            )

    @cached_property
    def ring(self) -> HashRing:
        """The placement ring; rebuilt bit-identically in any process
        (the session routes append rows with it, the fleet its queries)."""
        return HashRing(
            list(range(self.num_shards)), vnodes=self.vnodes, replicas=self.replicas
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "table": self.table,
            "shard_key": self.shard_key,
            "key_column": self.key_column,
            "num_shards": self.num_shards,
            "replicas": self.replicas,
            "vnodes": self.vnodes,
        }

    @staticmethod
    def from_dict(data: dict[str, Any]) -> "ShardTopology":
        return ShardTopology(
            table=str(data["table"]),
            shard_key=str(data["shard_key"]),
            key_column=str(data["key_column"]),
            num_shards=int(data["num_shards"]),
            replicas=int(data["replicas"]),
            vnodes=int(data["vnodes"]),
        )


class ShardedStore:
    """Worker processes plus the ring that places shards on them."""

    def __init__(
        self,
        root: str,
        topology: ShardTopology,
        config: ClusterConfig | None = None,
    ):
        self.root = os.path.abspath(root)
        self.topology = topology
        self.config = config or ClusterConfig()
        self.ring = topology.ring
        self.dead: set[int] = set()
        self._lock = threading.Lock()
        self._rollups: dict[int, tuple[int, prune.PartitionStats | None]] = {}
        self.workers: dict[int, WorkerHandle] = {}
        worker_config = replace(self.config, storage_dir=None)
        for node in range(topology.num_shards):
            node_dir = self.node_dir(node)
            os.makedirs(node_dir, exist_ok=True)
            self.workers[node] = WorkerHandle(
                f"{topology.table}-node-{node}",
                shard_worker_main,
                node_id=node,
                node_dir=node_dir,
                config=worker_config,
            )

    # -- topology ----------------------------------------------------------

    def node_dir(self, node: int) -> str:
        return os.path.join(self.root, f"node-{node}")

    @property
    def shards(self) -> range:
        return range(self.topology.num_shards)

    def replica_nodes(self, shard: int) -> tuple[int, ...]:
        """The nodes hosting ``shard``, primary first (failover order)."""
        return self.ring.replica_chain(shard)  # type: ignore[return-value]

    def mark_dead(self, node: int) -> bool:
        """Note ``node`` as dead; False if it already was."""
        with self._lock:
            fresh = node not in self.dead
            self.dead.add(node)
        return fresh

    def forget_rollup(self, shard: int) -> None:
        """Drop the cached zone-map rollup of a shard that just mutated."""
        with self._lock:
            self._rollups.pop(shard, None)

    # -- fault injection ---------------------------------------------------

    def kill_node(self, node: int) -> None:
        """Hard-kill one worker process (the store notes it as dead)."""
        self.workers[node].kill()
        self.mark_dead(node)

    def arm_exit(self, node: int, method: str, after: int = 1) -> None:
        """Arm a fail point: the node dies mid-``method`` (reply unsent)."""
        self.workers[node].arm_exit(method, after)

    # -- replicated storage operations -------------------------------------

    def host(self, shard: int) -> "ShardReplicas":
        """The store host of ``shard``: its whole replica chain."""
        return ShardReplicas(self, shard)

    def rollup(self, shard: int) -> prune.PartitionStats | None:
        """The shard's zone-map rollup, compiled once and cached until the
        shard mutates."""
        with self._lock:
            cached = self._rollups.get(shard)
        if cached is not None:
            return cached[1]
        try:
            (generation, stats), _ = self.call_shard(
                shard, "rollup", table=self.topology.table, shard_id=shard
            )
        except ShardUnavailable:
            return None  # no live replica answered in time; cannot prune
        compiled = prune.compile_partition(stats)
        with self._lock:
            self._rollups[shard] = (int(generation), compiled)
        return compiled

    # -- failover-aware calls ----------------------------------------------

    def call_shard(self, shard: int, method: str, **kwargs: Any) -> tuple[Any, int]:
        """Call ``method`` on the first replica of ``shard`` that answers.

        Walks the replica chain; a worker dying *during* the call (or
        killed for overrunning the request's deadline) marks its node dead
        and retries the stage on the next replica.  Returns
        ``(result, failovers)`` where ``failovers`` counts mid-call
        deaths (pre-marked dead nodes are skipped without counting).
        """
        failovers = 0
        last: WorkerDied | None = None
        for node in self.replica_nodes(shard):
            if node in self.dead:
                continue
            try:
                return self.workers[node].call(method, **kwargs), failovers
            except WorkerDied as exc:
                failovers += self.failed_over(shard, node, method)
                last = exc
        raise ShardUnavailable(
            f"all {self.topology.replicas} replica(s) of shard {shard} "
            f"are dead; cannot execute {method!r}"
        ) from last

    def failed_over(self, shard: int, node: int, method: str) -> int:
        """Mark ``node`` dead after it died mid-``method``: the failovers
        to count (0 if a concurrent call counted this death).  The span
        shows a stitched trace which replica died, and nothing sensitive."""
        now = time.perf_counter()
        obs_trace.record_span(
            "shard:failover", now, now, shard=shard, dead_node=node, method=method
        )
        return int(self.mark_dead(node))

    def close(self) -> None:
        """Shut every worker down (idempotent)."""
        for node, handle in self.workers.items():
            if node in self.dead:
                handle.kill()
            else:
                handle.shutdown()
        self.dead.update(self.workers)


class ShardReplicas:
    """One shard's replica chain as a single store host.

    The same ``append`` / ``rows`` / ``truncate`` / ``compact`` surface
    as :class:`~repro.core.transport.StoreHost`, applied over the worker
    RPC to every replica of the shard, in chain order with identical
    arguments -- which is what keeps replica stores bit-identical.
    """

    def __init__(self, fleet: ShardedStore, shard: int):
        self.fleet = fleet
        self.shard = shard

    def _call(self, node: int, method: str, **kwargs: Any) -> Any:
        return self.fleet.workers[node].call(
            method, table=self.fleet.topology.table, shard_id=self.shard, **kwargs
        )

    def _on_live_replicas(self, method: str, **kwargs: Any) -> Any:
        """Run ``method`` on every live replica (one that dies mid-call
        is marked dead, like on the query path); the served view may have
        changed, so the shard's cached rollup is dropped."""
        result = None
        for node in self.fleet.replica_nodes(self.shard):
            if node in self.fleet.dead:
                continue
            try:
                result = self._call(node, method, **kwargs)
            except WorkerDied:
                self.fleet.mark_dead(node)
        self.fleet.forget_rollup(self.shard)
        return result

    def append(self, batch: Table, column_meta: dict[str, str] | None) -> int:
        """Append one encrypted batch to every replica: one request frame,
        encoded once and sent to each replica in chain order.

        Appends require the full replica chain alive: a write acked by
        only part of the chain would fork the replicas.  (Queries, by
        contrast, need just one live replica.)
        """
        frame = WorkerHandle.request_frame(
            "append", table=self.fleet.topology.table, shard_id=self.shard,
            batch=codec.pack_table(batch), column_meta=column_meta,
        )
        generation = 0
        for node in self.fleet.replica_nodes(self.shard):
            if node in self.fleet.dead:
                raise ExecutionError(
                    f"cannot append to shard {self.shard}: replica node "
                    f"{node} is dead and appends require the full replica chain"
                )
            try:
                self.fleet.workers[node].begin("append", frame)
                generation = self.fleet.workers[node].finish("append")
            except WorkerDied as exc:
                self.fleet.mark_dead(node)
                raise ExecutionError(
                    f"replica node {node} died while appending to shard "
                    f"{self.shard}; appends require the full replica chain"
                ) from exc
        return generation

    def _on_first_live(self, method: str) -> Any:
        return self.fleet.call_shard(
            self.shard, method, table=self.fleet.topology.table, shard_id=self.shard
        )[0]

    def rows(self) -> int:
        """Rows on the first live replica (committed or not)."""
        return int(self._on_first_live("rows"))

    def truncate(self, committed: int) -> None:
        """Roll back uncommitted generations on every live replica."""
        self._on_live_replicas("truncate", num_rows=committed)

    def compact(self, target_rows: int | None = None) -> dict | None:
        return self._on_live_replicas("compact", target_rows=target_rows)

    def rebuild_index(self) -> dict:
        return self._on_live_replicas("rebuild_index")

    def stats(self) -> dict:
        """The index summary of the first live replica's store."""
        return self._on_first_live("stats")

    def generations(self) -> list[dict]:
        return self._on_first_live("generations")

    def reopen(self) -> None:
        self._on_live_replicas("reopen")


class ShardCoordinator:
    """Routes, scatters, fails over, and merges -- the query half."""

    def __init__(
        self,
        store: ShardedStore,
        cluster: SimulatedCluster | None = None,
        pruning: bool = True,
    ):
        self.store = store
        self.cluster = cluster or SimulatedCluster(store.config)
        self.pruning = pruning

    # -- routing and pruning -----------------------------------------------

    def route_filter(self, filt: Any) -> set[int] | None:
        """Shards that could hold matching rows, or ``None`` for all.

        Only predicates on the shard-key ciphertext column route: rows
        are placed by that column's DET token, so an equality on any
        other column says nothing about shard membership.
        """
        key_column = self.store.topology.key_column
        if isinstance(filt, srv.DetEq):
            if filt.column != key_column or filt.negate:
                return None
            return {int(self.store.ring.owner(filt.token))}
        if isinstance(filt, srv.DetIn):
            if filt.column != key_column:
                return None
            tokens = np.array(filt.tokens, dtype=np.uint64)
            return set(self.store.ring.owners(tokens).tolist())
        if isinstance(filt, srv.FilterAnd):
            out: set[int] | None = None
            for child in filt.children:
                sub = self.route_filter(child)
                if sub is not None:
                    out = sub if out is None else out & sub
            return out
        if isinstance(filt, srv.FilterOr):
            union: set[int] = set()
            for child in filt.children:
                sub = self.route_filter(child)
                if sub is None:
                    return None  # one unroutable branch widens to all
                union |= sub
            return union
        return None  # ORE/plain/NOT predicates do not restrict placement

    def _empty(self, shard: int) -> bool:
        """True when the shard's rollup proves it holds zero rows (the
        ring never routed a row there, or every row was truncated)."""
        rollup = self.store.rollup(shard)
        return rollup is not None and rollup.rows == 0

    def _surviving_shards(self, q: srv.ServerQuery) -> list[int]:
        """Ring routing plus rollup pruning (both conservative)."""
        survivors = self.route_filter(q.filter) if q.filter is not None else None
        shards = sorted(survivors) if survivors is not None else list(self.store.shards)
        if not self.pruning:
            return shards
        shards = [s for s in shards if not self._empty(s)]
        if q.filter is not None:
            shards = [
                s
                for s in shards
                if (rollup := self.store.rollup(s)) is None
                or prune.may_match(rollup, q.filter)
            ]
        elif q.group_by is None and q.aggs and all(
            isinstance(a, srv.OreExtreme) for a in q.aggs
        ):
            # Unfiltered min/max: only shards whose rollup bound ties the
            # global winner can host it (same judgement as partitions).
            keep = prune.extreme_candidates(
                [self.store.rollup(s) for s in shards], q.aggs
            )
            if keep is not None:
                shards = [s for s, k in zip(shards, keep) if k]
        return shards

    # -- metrics folding ---------------------------------------------------

    def _absorb(self, metrics: JobMetrics, responses: Sequence[srv.ServerResponse]) -> None:
        """Fold worker-side metrics into the coordinator's job.

        Shard nodes run concurrently: same-named stages' wall times
        combine as a max, task times and partition counts as sums.  The
        workers' result transfers become the coordinator's gather volume
        (shuffle).
        """
        by_name: dict[str, StageMetrics] = {s.name: s for s in metrics.stages}
        for resp in responses:
            wm = resp.metrics
            for s in wm.stages:
                have = by_name.get(s.name)
                if have is None:
                    have = StageMetrics(name=s.name, task_times=[], driver=s.driver)
                    by_name[s.name] = have
                    metrics.add_stage(have)
                have.task_times.extend(s.task_times)
                have.wall_time = max(have.wall_time, s.wall_time)
                have.partitions_total += s.partitions_total
                have.partitions_skipped += s.partitions_skipped
            metrics.shuffles += wm.shuffles + [(wm.result_bytes, 0)]

    # -- scatter-gather execution ------------------------------------------

    def _scatter(
        self,
        shards: Sequence[int],
        metrics: JobMetrics,
        method: str,
        kwargs_for: Any,
    ) -> list[srv.ServerResponse]:
        """Run one RPC per shard with replica failover, on this thread:
        send every shard's request to its first live replica, taking
        workers in node order (concurrent scatters cannot deadlock on the
        handles' locks) and each once (a shard whose node is taken goes
        through ``call_shard`` later); then read every sent reply, on
        every exit path, so no stale one is left on a pipe (an interrupt
        mid-read kills and marks dead the workers still unread); then fail
        over, through ``call_shard`` too."""
        store = self.store
        first: dict[int, int] = {}  # node -> the shard this scatter sends it
        for shard in shards:
            node = next((n for n in store.replica_nodes(shard) if n not in store.dead), None)
            if node is not None:
                first.setdefault(node, shard)
        outcomes: dict[int, Any] = {}  # shard -> reply, or the error it raised
        died: dict[int, int] = {}  # shard -> the node that died under it
        sent: list[tuple[int, int]] = []
        try:
            for node, shard in sorted(first.items()):
                try:
                    store.workers[node].begin(
                        method, WorkerHandle.request_frame(method, **kwargs_for(shard))
                    )
                except WorkerDied:
                    died[shard] = node
                else:
                    sent.append((node, shard))
        finally:
            for i, (node, shard) in enumerate(sent):
                try:
                    outcomes[shard] = store.workers[node].finish(method)
                except WorkerDied:
                    died[shard] = node
                except Exception as exc:  # noqa: BLE001 -- raised after the reads
                    outcomes[shard] = exc
                except BaseException:  # the unread workers stay taken: retire them
                    for n, _ in sent[i:]:
                        store.kill_node(n)
                    raise
            for shard, node in died.items():
                metrics.failovers += store.failed_over(shard, node, method)
        responses = []
        for shard in shards:
            if shard not in outcomes:
                outcomes[shard], failovers = store.call_shard(
                    shard, method, **kwargs_for(shard)
                )
                metrics.failovers += failovers
            if isinstance(outcomes[shard], Exception):
                raise outcomes[shard]
            responses.append(outcomes[shard])
        return responses

    def execute(self, q: srv.ServerQuery) -> srv.ServerResponse:
        if q.join is not None:
            raise ExecutionError(
                "joins are not supported on sharded tables: the build side "
                "would have to be broadcast across shard processes"
            )
        metrics = JobMetrics()
        shards = self._surviving_shards(q)
        metrics.shards_total = self.store.topology.num_shards
        metrics.shards_skipped = metrics.shards_total - len(shards)
        responses = self._scatter(
            shards, metrics, "execute", lambda s: {"shard_id": s, "q": q}
        )
        self._absorb(metrics, responses)
        groups = self.cluster.run_driver(
            "gather-merge",  # shard-id order: each row set's IDs stay in row-id order
            lambda: srv.merge_groups([resp.groups for resp in responses], q),
            metrics,
        )
        return srv.grouped_reply(groups, metrics)

    def scan(
        self,
        table_name: str,
        columns: Sequence[str],
        filt: Any = None,
    ) -> srv.ServerResponse:
        metrics = JobMetrics()
        columns = tuple(columns)
        survivors = self.route_filter(filt) if filt is not None else None
        shards = sorted(survivors) if survivors is not None else list(self.store.shards)
        populated = [s for s in self.store.shards if not self._empty(s)]
        if not populated:
            raise ExecutionError(
                f"sharded table {self.store.topology.table!r} holds no rows; "
                "nothing to scan"
            )
        shards = [s for s in shards if s in set(populated)]
        if self.pruning and filt is not None:
            shards = [
                s
                for s in shards
                if (rollup := self.store.rollup(s)) is None
                or prune.may_match(rollup, filt)
            ]
        if not shards:
            # Keep one populated shard so the reply carries correctly
            # typed empty columns (its zone maps prune everything locally).
            shards = [populated[0]]
        metrics.shards_total = self.store.topology.num_shards
        metrics.shards_skipped = metrics.shards_total - len(shards)
        responses = self._scatter(
            shards,
            metrics,
            "scan",
            lambda s: {
                "table": self.store.topology.table,
                "shard_id": s,
                "columns": columns,
                "filt": filt,
            },
        )
        responses = [r for r in responses if r is not None]
        self._absorb(metrics, responses)

        def merge() -> tuple[dict[str, np.ndarray], np.ndarray]:
            # Shard-id order: shard row-ID ranges are strided by shard
            # index, so this concatenation is also global row-ID order.
            cols = {
                c: np.concatenate([r.projection["columns"][c] for r in responses])
                for c in columns
            }
            ids = np.concatenate([r.projection["ids"] for r in responses])
            return cols, ids

        cols, ids = self.cluster.run_driver("gather-merge", merge, metrics)
        payload_bytes = sum(resp.payload_bytes for resp in responses)
        response = srv.ServerResponse(payload_bytes=payload_bytes)
        response.projection = {"columns": cols, "ids": ids}
        response.metrics = metrics
        metrics.result_bytes += payload_bytes
        return response
