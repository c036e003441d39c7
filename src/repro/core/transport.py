"""The session's pluggable execution boundary.

:class:`~repro.core.session.SeabedSession` never talks to a
:class:`~repro.core.server.SeabedServer` (or its partition stores)
directly any more -- every server-side effect goes through a
:class:`Transport`:

- :class:`LocalTransport` (the default) wraps an in-process server plus
  direct filesystem store access: exactly the single-process behavior
  the repo always had, with zero serialization.
- :class:`~repro.net.client.RemoteTransport` speaks the
  :mod:`repro.net.codec` wire protocol to a
  :mod:`repro.net.service` process, which may live on another host.

The method set is deliberately the *untrusted* half of the paper's
split (Section 3): ciphertext batches in, encrypted responses and
key-free client-state payloads out.  Every table the server side holds
is a partition store (or a sharded root of them) from the moment it is
created: there is no in-memory tier.  Nothing a transport carries ever
contains key material -- the sidecar payloads it ships are the same
``client_state.json`` documents :mod:`repro.core.persistence` already
proves key-free, and :mod:`repro.net.audit` re-checks the invariant on
the serving side.
"""

from __future__ import annotations

import abc
import os
import shutil
import tempfile
import threading
import weakref
from typing import TYPE_CHECKING, Any, Sequence

from repro.core import persistence as ps
from repro.engine.store import (
    FIRST_GENERATION,
    MANIFEST_NAME,
    append_store,
    compact_store,
    open_store,
    rebuild_stats,
    remove_store,
    snapshot_generation,
    store_generations,
    store_num_rows,
    store_stats,
    truncate_store,
    write_store,
)
from repro.errors import ExecutionError, StorageError
from repro.index.zonemap import stats_summary

if TYPE_CHECKING:  # pragma: no cover -- type-only imports
    from repro.core.server import (
        FilterExpr,
        SeabedServer,
        ServerQuery,
        ServerResponse,
    )
    from repro.engine.cluster import SimulatedCluster
    from repro.engine.table import Table


class Transport(abc.ABC):
    """What a session needs from the server side, local or remote.

    ``timeout`` on the read paths is a per-call budget in seconds; the
    in-process transport executes synchronously and ignores it, remote
    transports enforce it on the wire and raise
    :class:`~repro.errors.TransportError` on expiry.
    """

    #: True when the server shares this process (no wire, no auth).
    local: bool = False

    # -- query path --------------------------------------------------------

    @abc.abstractmethod
    def execute(
        self, request: "ServerQuery", *, timeout: float | None = None
    ) -> "ServerResponse":
        """Run one translated aggregation request."""

    @abc.abstractmethod
    def scan(
        self,
        table: str,
        columns: Sequence[str],
        filt: "FilterExpr | None",
        *,
        timeout: float | None = None,
    ) -> "ServerResponse":
        """Filter and project encrypted rows."""

    # -- ingestion ---------------------------------------------------------

    @abc.abstractmethod
    def append_batch(
        self,
        table: str,
        shard: int,
        encrypted: "Table",
        column_meta: dict[str, str],
    ) -> int:
        """Publish one ciphertext batch as a new generation of the store
        holding ``shard`` of ``table`` (a single-store table is shard 0),
        on every replica of that shard.

        Does *not* commit: the session follows up with
        :meth:`commit_state` (the sidecar watermark is the commit
        record) and :meth:`reopen`.
        """

    # -- table metadata ----------------------------------------------------

    @abc.abstractmethod
    def table_meta(self, table: str) -> dict[str, Any] | None:
        """``{"store_path"}`` of the served ``table`` (``None`` when it is
        not served): its store, or a sharded table's root."""

    # -- persistence -------------------------------------------------------

    @abc.abstractmethod
    def create_store(self, path: str | None, payload: dict[str, Any]) -> str:
        """Commit ``payload``, the key-free sidecar of a table holding no
        rows yet, at ``path`` (resolved server-side; ``None`` is the
        table's name under the storage root) and return the resolved
        absolute path.  A path already holding a store manifest or a
        sidecar raises :class:`~repro.errors.StorageError` untouched."""

    @abc.abstractmethod
    def commit_state(self, table: str, payload: dict[str, Any]) -> None:
        """Write the table's key-free client-state sidecar -- the commit
        point of every ingest."""

    @abc.abstractmethod
    def read_store_state(self, path: str) -> dict[str, Any]:
        """The raw sidecar payload of the store (or sharded root) at
        ``path``."""

    @abc.abstractmethod
    def store_rows(self, table: str, shard: int) -> int:
        """Rows in the newest published generation of the store holding
        ``shard`` of ``table`` (committed or not)."""

    @abc.abstractmethod
    def truncate_store(self, table: str, shard: int, committed: int) -> None:
        """Roll the store holding ``shard`` of ``table`` back to
        ``committed`` rows on every live replica;
        :class:`~repro.errors.StorageError` if it holds fewer."""

    @abc.abstractmethod
    def reopen(self, table: str) -> None:
        """Re-register the latest committed view of the table's store(s)."""

    @abc.abstractmethod
    def compact(self, table: str, target_rows: int | None = None) -> Any:
        """Compact every store of the table, reopening what changed.
        Returns the compaction stats (``None`` when the store was already
        healthy); a sharded table returns one such entry per shard."""

    @abc.abstractmethod
    def store_stats(self, table: str) -> dict:
        """Zone-map index summary of the table's store."""

    @abc.abstractmethod
    def generations(self, table: str) -> list[dict]:
        """The store's generation log."""

    @abc.abstractmethod
    def rebuild_index(self, table: str) -> dict:
        """Recompute zone maps and refresh the pinned server view."""

    @abc.abstractmethod
    def attach(self, path: str) -> dict[str, Any]:
        """Serve the persisted table at ``path`` from its committed
        state: a store is opened at its committed snapshot, a sharded
        root gets its worker fleet (spawned once, uncommitted shard tails
        rolled back).  Returns ``{"name", "path"}``, ``path`` resolved."""

    def close(self) -> None:
        """Release transport resources (sockets, worker fleets, mapped
        stores, a scratch storage root); idempotent."""


class StoreHost:
    """One partition-store directory served through one
    :class:`SeabedServer` under ``name``.

    This is the per-store half of the ingestion protocol -- publish,
    count, roll back, compact, re-register -- shared by every place a
    store is hosted: the in-process transport (and therefore the
    service) and each shard worker.  ``append`` does not touch the served
    view: a published generation becomes visible only when the session,
    having committed it, asks for :meth:`reopen` -- so rows a dead writer
    never committed are never served.
    """

    def __init__(self, server: "SeabedServer", path: str, name: str):
        self.server = server
        self.path = path
        self.name = name

    def exists(self) -> bool:
        """A shard the ring never routed a row to has no store at all."""
        return os.path.exists(os.path.join(self.path, MANIFEST_NAME))

    def rows(self) -> int:
        return store_num_rows(self.path) if self.exists() else 0

    def append(self, batch: "Table", column_meta: dict[str, str] | None) -> int:
        """Publish ``batch`` as the store's next generation (its first,
        when the store does not exist yet); returns the generation id."""
        if self.exists():
            return append_store(batch, self.path, column_meta=column_meta)
        write_store(batch, self.path, column_meta=column_meta)
        return FIRST_GENERATION

    def truncate(self, committed: int) -> int:
        """Drop uncommitted generations; returns how many.

        Rolling back to zero rows -- a writer died during the store's
        very first append -- removes the store (a sidecar beside it
        stays): a generation log cannot be truncated below its first
        generation, and an empty store is exactly "no store yet".
        """
        if not self.exists():
            return 0
        if committed == 0:
            dropped = len(store_generations(self.path))
            remove_store(self.path)
        else:
            dropped = truncate_store(self.path, committed)
        if dropped:
            self.reopen()
        return dropped

    def compact(self, target_rows: int | None = None) -> dict | None:
        if not self.exists():
            return None
        stats = compact_store(self.path, target_rows=target_rows)
        if stats is not None:
            self.reopen()
        return stats

    def reopen(self) -> None:
        """Serve the store's latest snapshot (nothing, while the store
        does not exist).  Partitions the served view already maps are
        kept, so an append or compaction maps only what it wrote."""
        if self.exists():
            self.server.register(open_store(self.path, served=self.server.get(self.name)))
        else:
            self.server.unregister(self.name)


def roll_back(host: Any, committed: int, what: str) -> None:
    """Bring a hosted store back to the ``committed`` rows its sidecar
    acknowledges: generations a dead writer published but never committed
    are dropped; a store *behind* its sidecar is refused."""
    on_disk = host.rows()
    if on_disk < committed:
        raise StorageError(
            f"{what} holds {on_disk} rows but its sidecar committed "
            f"{committed}; the store is stale or corrupt"
        )
    if on_disk > committed:
        host.truncate(committed)


class LocalTransport(Transport):
    """In-process transport: a :class:`SeabedServer` handle plus direct
    store filesystem access.  This is the repo's historical single-
    process mode, now behind the same interface the wire speaks -- and
    the object the service hosts its stores and shard fleets through.

    Without a cluster ``storage_dir``, tables created under their default
    path live in one scratch root of this transport's own (``seabed-*``
    under the system temporary directory), removed by :meth:`close` or,
    failing that, when the transport is garbage-collected or the
    interpreter exits.  Stores under a configured ``storage_dir`` are
    never removed.
    """

    local = True

    #: Serialises fleet start: two threads attaching one not-yet-hosted
    #: sharded root must spawn one fleet, not two (the loser's workers
    #: would outlive close()).  Process-wide, since fleet starts are rare.
    _fleet_lock = threading.Lock()

    def __init__(self, server: "SeabedServer", cluster: "SimulatedCluster"):
        self.server = server
        self.cluster = cluster
        # Sharded tables: name -> ShardedStore (the worker fleet).
        self._fleets: dict[str, Any] = {}
        # Single-store tables this transport created or attached (name ->
        # path); close() unmaps them.
        self._stores: dict[str, str] = {}
        self._scratch: str | None = None
        self._remove_scratch: weakref.finalize | None = None

    # -- query path --------------------------------------------------------

    def execute(
        self, request: "ServerQuery", *, timeout: float | None = None
    ) -> "ServerResponse":
        return self.server.execute(request)

    def scan(
        self,
        table: str,
        columns: Sequence[str],
        filt: "FilterExpr | None",
        *,
        timeout: float | None = None,
    ) -> "ServerResponse":
        return self.server.scan(table, list(columns), filt)

    # -- ingestion ---------------------------------------------------------

    def append_batch(
        self,
        table: str,
        shard: int,
        encrypted: "Table",
        column_meta: dict[str, str],
    ) -> int:
        return self._host(table, shard).append(encrypted, column_meta)

    # -- table metadata ----------------------------------------------------

    def table_meta(self, table: str) -> dict[str, Any] | None:
        fleet = self._fleets.get(table)
        path = fleet.root if fleet is not None else self._stores.get(table)
        return None if path is None else {"store_path": path}

    # -- persistence -------------------------------------------------------

    def _store_path(self, table: str) -> str:
        meta = self.table_meta(table)
        if meta is None:
            raise ExecutionError(f"no table {table!r} registered on the server")
        return meta["store_path"]

    def _hosts(self, table: str) -> dict[int, Any]:
        """What hosts each shard of ``table``: the shards' replica chains
        in a worker fleet, or the one local store (handed the
        :class:`Table` itself -- nothing is serialised in-process)."""
        fleet = self._fleets.get(table)
        if fleet is not None:
            return {shard: fleet.host(shard) for shard in fleet.shards}
        return {0: StoreHost(self.server, self._store_path(table), table)}

    def _host(self, table: str, shard: int) -> Any:
        try:
            return self._hosts(table)[shard]
        except KeyError:
            raise StorageError(f"table {table!r} has no shard {shard}") from None

    def _resolve(self, path: str) -> str:
        return os.path.abspath(self.cluster.config.resolve_store_path(path))

    def _default_path(self, name: str) -> str:
        """``name`` under ``storage_dir``, or under the scratch root."""
        if self.cluster.config.storage_dir is not None:
            return name
        if self._scratch is None:
            self._scratch = tempfile.mkdtemp(prefix="seabed-")
            self._remove_scratch = weakref.finalize(
                self, shutil.rmtree, self._scratch, ignore_errors=True
            )
        return os.path.join(self._scratch, name)

    def _claim(self, name: str, path: str) -> None:
        """A served name is one table: refuse serving ``name`` from
        ``path`` while another path holds it (another tenant's table)."""
        held = self.table_meta(name)
        if held is not None and held["store_path"] != path:
            raise StorageError(
                f"a table named {name!r} is already served from "
                f"{held['store_path']!r}"
            )

    def create_store(self, path: str | None, payload: dict[str, Any]) -> str:
        name = payload["schema"]["name"]
        resolved = self._resolve(path or self._default_path(name))
        self._claim(name, resolved)
        if any(
            os.path.exists(os.path.join(resolved, held))
            for held in (MANIFEST_NAME, ps.SIDECAR_NAME, ps.SHARDED_SIDECAR_NAME)
        ):
            raise StorageError(
                f"{resolved!r} already holds a store; attach it with "
                "open_table, or remove it first"
            )
        os.makedirs(resolved, exist_ok=True)
        ps.write_state_payload(resolved, payload)
        return resolved

    def commit_state(self, table: str, payload: dict[str, Any]) -> None:
        ps.write_state_payload(self._store_path(table), payload)

    def read_store_state(self, path: str) -> dict[str, Any]:
        return ps.read_state_payload(self._resolve(path))

    def store_rows(self, table: str, shard: int) -> int:
        return self._host(table, shard).rows()

    def truncate_store(self, table: str, shard: int, committed: int) -> None:
        roll_back(
            self._host(table, shard), committed, f"shard {shard} of {table!r}"
        )

    def reopen(self, table: str) -> None:
        for host in self._hosts(table).values():
            host.reopen()

    def compact(self, table: str, target_rows: int | None = None) -> Any:
        stats = {s: h.compact(target_rows) for s, h in self._hosts(table).items()}
        return stats if table in self._fleets else stats[0]

    def _published_store(self, table: str) -> str | None:
        """``table``'s store path, or ``None`` while the table its first
        upload created has no generation published yet."""
        path = self._store_path(table)
        if table in self._fleets or os.path.exists(os.path.join(path, MANIFEST_NAME)):
            return path
        return None

    def store_stats(self, table: str) -> dict:
        path = self._published_store(table)
        if path is None:
            return {**stats_summary([]), "generation": 0}
        return store_stats(path)

    def generations(self, table: str) -> list[dict]:
        path = self._published_store(table)
        return [] if path is None else store_generations(path)

    def rebuild_index(self, table: str) -> dict:
        path = self._published_store(table)
        if path is None:
            return self.store_stats(table)
        summary = rebuild_stats(path)
        registered = self.server.get(table)
        if registered is not None:  # nothing is served before a commit
            # The refreshed view keeps its maps and stays pinned to this
            # session's snapshot, so an uncommitted generation stays invisible.
            self.server.register(open_store(
                path, registered.store_generation, registered
            ))
        return summary

    def attach(self, path: str) -> dict[str, Any]:
        resolved = self._resolve(path)
        payload = ps.read_state_payload(resolved)
        name = payload["schema"]["name"]
        self._claim(name, resolved)
        sharding = payload.get("sharding")
        if sharding is None:
            self._stores[name] = resolved
            if int(payload["num_rows"]):
                self.server.register(open_committed_store(resolved, payload))
            else:  # created, nothing committed yet: nothing to serve
                self.server.unregister(name)
        else:
            with self._fleet_lock:
                if name not in self._fleets:
                    self._host_fleet(resolved, name, sharding)
        return {"name": name, "path": resolved}

    def _host_fleet(self, root: str, name: str, sharding: dict[str, Any]) -> None:
        """Spawn the worker fleet over ``root``'s node directories and
        have it serve every shard's committed state (tails a dead writer
        never committed are rolled back first)."""
        # Imported lazily: repro.shard imports the server module, which
        # imports this one through the core package.
        from repro.shard.coordinator import (
            ShardCoordinator,
            ShardedStore,
            ShardTopology,
        )

        fleet = ShardedStore(
            root, ShardTopology.from_dict(sharding["topology"]), self.cluster.config
        )
        try:
            for shard, cursor in sharding["shards"].items():
                host = fleet.host(int(shard))
                roll_back(host, int(cursor["num_rows"]), f"shard {shard} of {name!r}")
                host.reopen()
        except BaseException:
            fleet.close()
            raise
        self._fleets[name] = fleet
        self.server.register_sharded(name, ShardCoordinator(fleet, self.cluster))

    def close(self) -> None:
        """Shut down hosted worker fleets, unmap the stores this
        transport created or attached -- the server stops serving them,
        which drops their tables and with them their maps -- and remove
        the scratch root, if one was made."""
        for fleet in self._fleets.values():
            fleet.close()
        for name in self._stores:
            self.server.unregister(name)
        self._stores.clear()
        if self._remove_scratch is not None:
            self._remove_scratch()
            self._scratch = self._remove_scratch = None


def open_committed_store(resolved: str, payload: dict[str, Any]) -> "Table":
    """Open the store at ``resolved`` pinned to the snapshot its sidecar
    ``payload`` committed, verifying the manifest and sidecar agree.

    A writer may have died between publishing an append generation and
    committing the sidecar watermark, in which case the committed
    snapshot is attached instead (the next append rolls the uncommitted
    tail back).
    """
    name = payload["schema"]["name"]
    committed = int(payload["num_rows"])
    table = open_store(resolved)
    if table.name != name:
        raise StorageError(
            f"store manifest names table {table.name!r} but the sidecar "
            f"describes {name!r}"
        )
    if table.num_rows != committed:
        snap = snapshot_generation(resolved, committed)
        if snap is None:
            raise StorageError(
                f"store holds {table.num_rows} rows but the client state "
                f"recorded {committed}; the store is stale or corrupt"
            )
        table = open_store(resolved, generation=snap)
    return table
