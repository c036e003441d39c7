"""The shard worker: one process, one node directory, N hosted shards.

A worker is a full (if small) Seabed server in its own OS process: it
owns a node directory containing one generation-logged partition store
per hosted shard -- the shards whose replica chain includes this node --
and serves the coordinator's RPCs over the :mod:`repro.engine.transport`
pipe, in the same :mod:`repro.net.codec` frames and :mod:`repro.net.rpc`
envelope the service speaks.  Process isolation is the point: a crash
(injected or real) kills exactly one node's stores out of the table, and
the coordinator observes a dead pipe, not a corrupted in-process state.

Every store is hosted through the shared
:class:`~repro.core.transport.StoreHost` -- the same publish / roll back
/ compact / re-register protocol the in-process transport uses -- and
registered on the worker's local :class:`SeabedServer` under the alias
``{table}::shard{sid}`` because one node hosts several shards of the
*same* table (its primaries plus replicas) and the server
registry is keyed by name.  The alias is also the name written into each
shard store's manifest, so re-attaching after a restart needs no
rename.  Incoming :class:`ServerQuery` objects reference the base table
name; the worker rewrites them to the alias before executing.

Everything data-bearing that crosses the pipe is ciphertext: append
batches arrive as ``codec.pack_table`` ciphertext columns, queries carry
DET/ORE tokens, and replies carry encrypted partial aggregates -- the
worker holds no keys, exactly like the paper's untrusted cluster nodes.
"""

from __future__ import annotations

import dataclasses
import os
from multiprocessing import connection
from typing import Any, Sequence

from repro.core import server as srv
from repro.core.transport import StoreHost
from repro.engine import transport
from repro.engine.cluster import ClusterConfig, SimulatedCluster
from repro.engine.table import Table
from repro.index.rollup import rollup_zone_maps
from repro.net import codec
from repro.obs import trace as obs_trace


def shard_alias(table: str, shard_id: int) -> str:
    """Registry/manifest name of one shard's slice of ``table``."""
    return f"{table}::shard{shard_id}"


class _ShardWorker:
    """Handler object behind one worker process's serve loop."""

    def __init__(self, node_id: int, node_dir: str, config: ClusterConfig):
        self.node_id = node_id
        self.node_dir = node_dir
        self.cluster = SimulatedCluster(config)
        self.server = srv.SeabedServer(self.cluster, pruning=True)

    # -- store plumbing ----------------------------------------------------

    def _host(self, table: str, shard_id: int) -> StoreHost:
        """The store host of one shard's slice.  The store need not exist:
        a shard the ring never routed a row to has none and serves
        nothing -- an *empty shard*, not an error (four distinct
        shard-key values can land on three of four shards)."""
        return StoreHost(
            self.server,
            os.path.join(self.node_dir, f"shard-{shard_id}"),
            shard_alias(table, shard_id),
        )

    # -- RPC handlers ------------------------------------------------------

    def ping(self) -> int:
        return self.node_id

    def append(
        self,
        table: str,
        shard_id: int,
        batch: dict[str, Any],
        column_meta: dict[str, str] | None,
    ) -> int:
        """Write or append one encrypted batch into the shard's store.

        The batch arrives in ``codec.pack_table`` form under the base
        table name and is re-badged to the shard alias so the store's own
        name check (and any later re-attach) stays coherent per shard.
        """
        host = self._host(table, shard_id)
        return host.append(
            Table(host.name, codec.unpack_table(batch).partitions), column_meta
        )

    def rows(self, table: str, shard_id: int) -> int:
        return self._host(table, shard_id).rows()

    def truncate(self, table: str, shard_id: int, num_rows: int) -> int:
        """Roll back uncommitted append generations (crash recovery)."""
        return self._host(table, shard_id).truncate(num_rows)

    def compact(
        self, table: str, shard_id: int, target_rows: int | None = None
    ) -> dict | None:
        return self._host(table, shard_id).compact(target_rows)

    def stats(self, table: str, shard_id: int) -> dict:
        return self._host(table, shard_id).stats()

    def generations(self, table: str, shard_id: int) -> list[dict]:
        return self._host(table, shard_id).generations()

    def rebuild_index(self, table: str, shard_id: int) -> dict:
        return self._host(table, shard_id).rebuild_index()

    def reopen(self, table: str, shard_id: int) -> None:
        """Serve the shard store's latest snapshot: the coordinator asks
        once the generation it appended is committed."""
        self._host(table, shard_id).reopen()

    def rollup(self, table: str, shard_id: int) -> tuple[int, dict | None]:
        """(generation, shard-level zone-map rollup) for coordinator
        pruning; the generation keys the coordinator's rollup cache.
        An empty shard reports a zero-row rollup: the strongest prune."""
        served = self.server.get(shard_alias(table, shard_id))
        if served is None:
            return 0, {"rows": 0, "nulls": 0, "columns": {}}
        return served.store_generation, rollup_zone_maps(served.zone_maps)

    def execute(self, shard_id: int, q: srv.ServerQuery) -> srv.ServerResponse:
        """Partial aggregates over this node's copy of one shard."""
        alias = shard_alias(q.table, shard_id)
        if self.server.get(alias) is None:
            # Empty shard: nothing to aggregate, the partial has no row set.
            return srv.ServerResponse(groups=srv.empty_groups(q))
        return self.server.execute_partial(dataclasses.replace(q, table=alias))

    def scan(
        self,
        table: str,
        shard_id: int,
        columns: Sequence[str],
        filt: Any,
    ) -> srv.ServerResponse | None:
        """``None`` for an empty shard: with no store there is no dtype
        to shape even a zero-row reply, so the coordinator drops it."""
        alias = shard_alias(table, shard_id)
        if self.server.get(alias) is None:
            return None
        return self.server.scan(alias, columns, filt)

    def handlers(self) -> dict[str, Any]:
        return {
            "ping": self.ping,
            "append": self.append,
            "rows": self.rows,
            "truncate": self.truncate,
            "compact": self.compact,
            "reopen": self.reopen,
            "stats": self.stats,
            "generations": self.generations,
            "rebuild_index": self.rebuild_index,
            "rollup": self.rollup,
            "execute": self.execute,
            "scan": self.scan,
        }


def shard_worker_main(
    conn: connection.Connection,
    node_id: int,
    node_dir: str,
    config: ClusterConfig,
) -> None:
    """Process entry point: build the worker and serve until shutdown."""
    obs_trace.set_process_label(f"shard-node-{node_id}")
    worker = _ShardWorker(node_id, node_dir, config)
    transport.serve(conn, worker.handlers())
