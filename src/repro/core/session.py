"""The session-centric client API: facade, prepared queries, translation cache.

:class:`SeabedSession` replaces the monolithic proxy object with a facade
that owns the long-lived client state -- keychain, planner, per-table
registry (schemas, crypto factories, dictionaries), cluster and server
handles -- and routes *every* read path (``query``, ``scan``,
``linear_regression``) through one shared execution object:

- :class:`PreparedQuery` -- ``session.prepare(q)`` runs parsing, predicate
  splitting, planning lookups and request wiring exactly once; literals
  may be :class:`~repro.query.ast.Param` placeholders (``:name`` in SQL),
  and ``.execute(**values)`` re-binds encryption tokens into the cached
  request template without touching the planner or translator again.
  This is the statement/session shape production encrypted-query clients
  expose (the paper's proxy plans a schema once but re-translated every
  query; repeat-query traffic -- Section 6.6's ad-analytics log -- makes
  translation pure overhead).
- a **translation cache** -- plain ``query()`` calls are parameterised by
  query *shape* (literals lifted out) and served from an LRU of prepared
  queries, so the same query template pays for translation once per
  session no matter how its constants vary.

Tables have one lifecycle whatever their placement: create, attach,
append.  The first ``upload`` of a planned table (or ``shard_table``)
creates its store, every ingest after that is an append, and
``append_rows`` / ``compact_table`` / ``open_table`` drive a single
store and a sharded worker fleet through the same code, because a
single-store table is the one-shard case (:class:`EncryptedTable`).
"""

from __future__ import annotations

import os
import time
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from threading import Lock
from typing import Any, Hashable, Mapping

import numpy as np

from repro.core import persistence as ps
from repro.core import schema as sc
from repro.core import server as srv
from repro.core.access import AccessController
from repro.core.crypto_factory import CryptoFactory
from repro.core.decryptor import DecryptionModule
from repro.core.encryptor import ClientTableState, EncryptionModule, check_headroom
from repro.core.planner import Planner, PlannerReport
from repro.core.translator import (
    QueryTranslator,
    TranslatedQuery,
    bind_filter,
    bind_requests,
)
from repro.crypto.det import DictionaryEncoder
from repro.crypto.keys import KeyChain
from repro.crypto.paillier import PaillierKeyPair, PaillierScheme
from repro.core.transport import LocalTransport, Transport
from repro.engine.cluster import SimulatedCluster
from repro.engine.metrics import JobMetrics
from repro.errors import (
    CryptoError,
    ExecutionError,
    PlanningError,
    StorageError,
    TranslationError,
    TransportError,
)
from repro.obs import metrics as _obs_metrics
from repro.obs import trace as obs_trace
from repro.ops import OPS
from repro.query.ast import (
    And,
    Between,
    Comparison,
    InList,
    Not,
    Or,
    Param,
    Predicate,
    Query,
    query_params,
)
from repro.query.parser import parse_query


@dataclass
class QueryResult:
    """Plaintext rows plus the measurements of one query; for paper-scale
    latency pass ``request_metrics`` to ``SimulatedCluster.model``."""

    rows: list[dict[str, Any]]
    request_metrics: list[JobMetrics] = field(default_factory=list)
    client_time: float = 0.0
    translation: TranslatedQuery | None = None

    @property
    def real_time(self) -> float:
        """Measured wall-clock the server spent executing stages."""
        return sum(m.real_time for m in self.request_metrics)

    @property
    def result_bytes(self) -> int:
        return sum(m.result_bytes for m in self.request_metrics)

    @property
    def queue_wait(self) -> float:
        """Time spent in the service's admission queue (0 in-process)."""
        return sum(m.queue_wait for m in self.request_metrics)

    @property
    def wire_time(self) -> float:
        """Measured client round-trip time on the wire (0 in-process)."""
        return sum(m.wire_time for m in self.request_metrics)

    @property
    def category(self) -> str:
        return self.translation.category if self.translation else "S"


@dataclass
class AppendStats:
    """Outcome of one upload or append: a new generation of the table's
    store(s)."""

    table: str
    rows: int
    generation: int
    encrypt_seconds: float
    write_seconds: float
    physical_columns: int


@dataclass
class LinRegResult:
    """Output of the two-round-trip linear regression (category 2R)."""

    slope: float
    intercept: float
    r_squared: float
    n: int
    round_trips: int
    request_metrics: list[JobMetrics] = field(default_factory=list)

    @property
    def real_time(self) -> float:
        return sum(m.real_time for m in self.request_metrics)


class TranslationCache:
    """A small thread-safe LRU of :class:`PreparedQuery` keyed by query
    shape; ``SeabedSession.query``/``scan`` consult it so repeat traffic
    skips translation transparently."""

    def __init__(self, maxsize: int = 128):
        self._maxsize = max(maxsize, 0)
        self._entries: OrderedDict[Hashable, "PreparedQuery"] = OrderedDict()
        self._lock = Lock()
        self.hits = 0
        self.misses = 0

    def get(self, key: Hashable) -> "PreparedQuery | None":
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def put(self, key: Hashable, value: "PreparedQuery") -> None:
        if self._maxsize == 0:
            return
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self._maxsize:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "size": len(self._entries),
                "maxsize": self._maxsize,
                "hits": self.hits,
                "misses": self.misses,
            }


class PreparedQuery:
    """A query translated once, executable many times.

    Created by :meth:`SeabedSession.prepare`.  Holds the translated
    request template (aggregation) or the resolved physical projection
    (scan) plus the decryption module; :meth:`execute` only binds
    parameter tokens, ships requests, and decrypts -- an op-counter
    verifiable zero-translation path.
    """

    def __init__(
        self,
        session: "SeabedSession",
        query: Query,
        *,
        translated: TranslatedQuery | None = None,
        decryptor: DecryptionModule,
        scan_filter: Any = None,
        scan_physical: dict[str, tuple[str, str]] | None = None,
    ):
        self._session = session
        self.query = query
        self.kind = "agg" if translated is not None else "scan"
        self.param_names = query_params(query)
        self._translated = translated
        self._decryptor = decryptor
        self._scan_filter = scan_filter
        self._scan_physical = scan_physical or {}
        self._tables = (query.table,) + (
            (query.join.table,) if query.join is not None else ()
        )

    # -- introspection -------------------------------------------------------

    @property
    def translation(self) -> TranslatedQuery | None:
        return self._translated

    @property
    def category(self) -> str:
        return self._translated.category if self._translated else "S"

    def __repr__(self) -> str:
        return (
            f"PreparedQuery(kind={self.kind!r}, table={self.query.table!r}, "
            f"params={list(self.param_names)!r})"
        )

    # -- execution -----------------------------------------------------------

    def execute(
        self,
        *args: Any,
        user: str | None = None,
        timeout: float | None = None,
        **params: Any,
    ) -> QueryResult:
        """Bind parameter values (positionally in declaration order or by
        name) and run.  Performs zero parse/plan/translate work.

        ``timeout`` is a per-request budget in seconds enforced by the
        session's transport (remote transports raise
        :class:`~repro.errors.TransportError` on expiry; the in-process
        transport executes synchronously and ignores it).
        """
        OPS.bump("prepared_execute")
        values = self._bind_values(args, params)
        self._session._check_access(user, self._tables)
        if self.kind == "scan":
            return self._execute_scan(values, timeout)
        return self._execute_agg(values, timeout)

    def _bind_values(
        self, args: tuple[Any, ...], params: dict[str, Any]
    ) -> dict[str, Any]:
        names = self.param_names
        if len(args) > len(names):
            raise TranslationError(
                f"{len(args)} positional values for {len(names)} "
                f"parameter(s) {list(names)!r}"
            )
        values: dict[str, Any] = dict(zip(names, args))
        for reserved in ("user", "timeout"):
            if reserved in names and reserved not in values:
                # The keyword would be swallowed by the reserved argument.
                raise TranslationError(
                    f"this query declares a parameter named {reserved!r}, "
                    f"which collides with the reserved {reserved}= argument "
                    "of execute(); bind it positionally or rename the "
                    "placeholder"
                )
        for name, value in params.items():
            if name not in names:
                raise TranslationError(
                    f"unknown parameter {name!r}; this query declares "
                    f"{list(names)!r}"
                )
            if name in values:
                raise TranslationError(
                    f"parameter {name!r} bound both positionally and by name"
                )
            values[name] = value
        missing = [n for n in names if n not in values]
        if missing:
            raise TranslationError(f"missing values for parameters {missing!r}")
        return values

    def _execute_agg(
        self, values: dict[str, Any], timeout: float | None = None
    ) -> QueryResult:
        assert self._translated is not None
        session = self._session
        with obs_trace.span(
            "query:aggregate", table=self.query.table, category=self.category
        ):
            t0 = time.perf_counter()
            requests = (
                bind_requests(self._translated.requests, values)
                if values
                else self._translated.requests
            )
            bind_time = time.perf_counter() - t0
            obs_trace.record_span("client:bind", t0, t0 + bind_time,
                                  requests=len(requests))

            responses = [
                session.transport.execute(r, timeout=timeout) for r in requests
            ]

            t1 = time.perf_counter()
            rows = self._decryptor.decrypt(self._translated, responses)
            t2 = time.perf_counter()
            client_time = bind_time + (t2 - t1)
            obs_trace.record_span("client:decrypt", t1, t2, rows=len(rows))

        metrics = [r.metrics for r in responses]
        transport_kind = type(session.transport).__name__
        for m in metrics:
            m.client_time = client_time / max(len(metrics), 1)
            _obs_metrics.observe_job(
                m, table=self.query.table, transport=transport_kind
            )
        return QueryResult(
            rows=rows,
            request_metrics=metrics,
            client_time=client_time,
            translation=self._translated,
        )

    def _execute_scan(
        self, values: dict[str, Any], timeout: float | None = None
    ) -> QueryResult:
        session = self._session
        with obs_trace.span("query:scan", table=self.query.table):
            t0 = time.perf_counter()
            scan_filter = (
                bind_filter(self._scan_filter, values) if values else self._scan_filter
            )
            bind_time = time.perf_counter() - t0
            obs_trace.record_span("client:bind", t0, t0 + bind_time)
            response = session.transport.scan(
                self.query.table,
                [column for column, _ in self._scan_physical.values()],
                scan_filter,
                timeout=timeout,
            )
            t1 = time.perf_counter()
            rows = self._decryptor.decrypt_scan(
                self.query, self._scan_physical, response
            )
            t2 = time.perf_counter()
            client_time = bind_time + (t2 - t1)
            obs_trace.record_span("client:decrypt", t1, t2, rows=len(rows))
        response.metrics.client_time = client_time
        _obs_metrics.observe_job(
            response.metrics,
            table=self.query.table,
            transport=type(session.transport).__name__,
        )
        return QueryResult(
            rows=rows,
            request_metrics=[response.metrics],
            client_time=client_time,
        )


class EncryptedTable:
    """Handle to one encrypted table registered in a session.

    Returned by :meth:`SeabedSession.encrypted_table`,
    :meth:`~SeabedSession.open_table`, :meth:`~SeabedSession.open_sharded`
    and :meth:`~SeabedSession.shard_table` -- one handle whatever the
    placement, because a single-store table is the one-shard case.  Its
    job is the persistence loop of the paper's deployment model: the
    table's ciphertexts live in a partition store
    (:mod:`repro.engine.store`) beside the client-state sidecar from its
    first upload on, and a *fresh* session (same master key) attaches
    with ``open_table`` -- zero re-encryption, columns memory-mapped.
    Queries go through the ordinary session surface; the handle adds the
    distribution levers (:meth:`shard_rows`, :attr:`topology`, and the
    fault injection the failover tests and demos use).
    """

    def __init__(self, session: "SeabedSession", name: str):
        self._session = session
        self.name = name

    @property
    def schema(self) -> sc.TableSchema:
        return self._session.table_state(self.name).schema

    @property
    def enc_schema(self) -> sc.EncryptedSchema:
        return self._session.table_state(self.name).enc_schema

    @property
    def num_rows(self) -> int:
        return self._session.table_state(self.name).num_rows

    @property
    def store_path(self) -> str | None:
        """Where the server-side table lives on disk, if anywhere: the
        store it is memory-mapped from, or a sharded table's root.

        Over a remote transport this names a path *on the serving host*.
        """
        meta = self._session.transport.table_meta(self.name)
        if meta is None:
            raise ExecutionError(
                f"no table {self.name!r} registered on the server"
            )
        return meta["store_path"]

    root = store_path

    @property
    def topology(self) -> Any:
        """The :class:`~repro.shard.coordinator.ShardTopology` placing
        this table's rows, or ``None`` for a single store."""
        return self._session._entry(self.name).topology

    def append(
        self, columns: Mapping[str, Any], num_partitions: int | None = None
    ) -> AppendStats:
        """Encrypt one plaintext batch and append it to this table's
        store(s) as a new generation; see :meth:`SeabedSession.append_rows`."""
        return self._session.append_rows(
            self.name, columns, num_partitions=num_partitions
        )

    def compact(self, target_rows: int | None = None) -> Any:
        """Merge small append generations back into full-size partitions;
        see :meth:`SeabedSession.compact_table`."""
        return self._session.compact_table(self.name, target_rows=target_rows)

    @property
    def generations(self) -> Any:
        """The store's generation log, the first upload's included (a
        sharded table: ``{shard: log}``)."""
        return self._session.transport.generations(self.name)

    def stats(self) -> Any:
        """Zone-map index summary: partition/row coverage and per-column
        artifact counts (:func:`repro.engine.store.store_stats`).  Every
        generation carries its zone maps, the first upload's included.  A
        sharded table answers ``{shard: summary}``."""
        return self._session.transport.store_stats(self.name)

    def rebuild_index(self) -> Any:
        """Recompute the store's zone-map statistics and refresh the
        server-side view; see :meth:`SeabedSession.rebuild_index`."""
        return self._session.rebuild_index(self.name)

    # -- distribution levers ------------------------------------------------

    def shard_rows(self) -> dict[int, int]:
        """Stored rows per shard (a single store is shard 0)."""
        return {
            shard: self._session.transport.store_rows(self.name, shard)
            for shard in self._session._entry(self.name).cursors
        }

    @property
    def store(self) -> Any:
        """The :class:`~repro.shard.coordinator.ShardedStore` (worker
        fleet) behind a sharded table hosted in this process."""
        coordinator = self._session.server.sharded(self.name)
        if coordinator is None:
            raise StorageError(f"table {self.name!r} is not sharded")
        return coordinator.store

    def kill_node(self, node: int) -> None:
        """Hard-kill one shard worker process (fault injection)."""
        self.store.kill_node(node)

    def arm_exit(self, node: int, method: str, after: int = 1) -> None:
        """Arm a fail point: ``node`` dies mid-``method``, reply unsent."""
        self.store.arm_exit(node, method, after)

    def __repr__(self) -> str:
        shards = len(self._session._entry(self.name).cursors)
        return f"EncryptedTable({self.name!r}, rows={self.num_rows}, shards={shards})"


@dataclass
class _TableEntry:
    """Everything the session remembers about one table: the schema
    state (plans, dictionaries, total rows), its crypto factory, and the
    placement -- one row-ID cursor per shard plus the ring topology that
    routes rows to them, and where the server side keeps the table's
    store (or sharded root), ``None`` until the first upload creates it.
    A single-store table is the entry with one cursor (shard 0) and no
    topology."""

    state: ClientTableState
    factory: CryptoFactory
    cursors: dict[int, ClientTableState]
    topology: Any = None  # ShardTopology
    path: str | None = None

    def recount(self) -> None:
        """The table holds what its cursors hold."""
        self.state.num_rows = sum(c.num_rows for c in self.cursors.values())


class SeabedSession:
    """The trusted client session: planner + encryptor + prepared-query
    execution over one keychain and cluster.

    ``mode`` selects the paper's three compared systems over one pipeline:
    ``seabed`` (ASHE/SPLASHE/DET/ORE), ``paillier`` (the CryptDB/Monomi-
    style baseline), and ``plain`` (NoEnc).  Cross-table join keys and
    shared dictionaries are resolved here, which is why join queries must
    go through the session.

    ASHE runs on one PRF, AES-128-CTR on AES-NI
    (:class:`~repro.crypto.prf.AesNiCtrPrf`).  ``prf_backend`` accepts
    only its name, ``"aes-ni"``; any other value is a
    :class:`~repro.errors.CryptoError`.  The parameter stays only because
    the benchmark's deployment (``perf/deploy.py``) passes it, and the
    benchmark change of ROADMAP item 1 can delete it.
    """

    def __init__(
        self,
        master_key: bytes | None = None,
        mode: str = "seabed",
        cluster: SimulatedCluster | None = None,
        prf_backend: str = "aes-ni",
        paillier_bits: int = 1024,
        paillier_keys: PaillierKeyPair | None = None,
        paillier_blinding_pool: int | None = None,
        access_control: bool = False,
        seed: int | None = 0,
        cache_size: int = 128,
        transport: Transport | None = None,
    ):
        if mode not in ("seabed", "paillier", "plain"):
            raise PlanningError(f"unknown client mode {mode!r}")
        if prf_backend != "aes-ni":
            raise CryptoError(f"ASHE runs on the 'aes-ni' PRF only, not {prf_backend!r}")
        self.mode = mode
        # Even a remote session keeps a cluster handle: its config drives
        # client-side work (translation core counts, append batch slicing);
        # the *serving* side executes with its own.
        self.cluster = cluster or SimulatedCluster()
        if transport is None:
            transport = LocalTransport(srv.SeabedServer(self.cluster), self.cluster)
        self._transport = transport
        self._keychain = (
            KeyChain(master_key) if master_key is not None else KeyChain.generate()
        )
        self._planner = Planner(mode=mode)
        self._tables: dict[str, _TableEntry] = {}
        self._sample_queries: dict[str, list[Query]] = {}
        self._join_dictionaries: dict[str, DictionaryEncoder] = {}
        self._seed = seed
        self._paillier: PaillierScheme | None = None
        if mode == "paillier":
            keys = paillier_keys or PaillierKeyPair.generate(
                bits=paillier_bits, seed=seed
            )
            self._paillier = PaillierScheme(
                keys, seed=seed, blinding_pool=paillier_blinding_pool
            )
        self.reports: dict[str, PlannerReport] = {}
        self.access: AccessController | None = (
            AccessController() if access_control else None
        )
        self._cache = TranslationCache(maxsize=cache_size)

    # -- the execution boundary --------------------------------------------------

    @property
    def transport(self) -> Transport:
        """The session's execution boundary (see :mod:`repro.core.transport`)."""
        return self._transport

    @property
    def server(self) -> srv.SeabedServer:
        """The in-process server behind a local transport.

        Only meaningful in single-process mode; a session connected to a
        remote service has no server object to poke (that is the point
        of the boundary), so this raises
        :class:`~repro.errors.TransportError`.
        """
        if isinstance(self._transport, LocalTransport):
            return self._transport.server
        raise TransportError(
            "this session runs over a remote transport; the server lives "
            "in the service process and cannot be reached in-process"
        )

    # -- planning ---------------------------------------------------------------

    def create_plan(
        self,
        schema: sc.TableSchema,
        sample_queries: list[str | Query],
        storage_budget: float | None = None,
    ) -> PlannerReport:
        queries = [
            parse_query(q) if isinstance(q, str) else q for q in sample_queries
        ]
        enc_schema, report = self._planner.plan(
            schema, queries, storage_budget=storage_budget
        )
        state = ClientTableState(schema=schema, enc_schema=enc_schema)
        self._tables[schema.name] = _TableEntry(
            state=state,
            factory=CryptoFactory(
                self._keychain, schema.name, ashe_bits=enc_schema.ashe_bits(),
            ),
            cursors={0: replace(state)},
        )
        self._sample_queries[schema.name] = queries
        self.reports[schema.name] = report
        self._link_join_groups()
        # Plans (and join-group links) changed: every cached translation
        # that touches this schema is stale.
        self._cache.clear()
        return report

    def _link_join_groups(self) -> None:
        """Give equi-joined DET columns a shared key and dictionary so
        their ciphertexts match across tables."""
        for queries in self._sample_queries.values():
            for q in queries:
                if q.join is None:
                    continue
                left_table = q.table
                right_table = q.join.table
                if left_table not in self._tables or right_table not in self._tables:
                    continue
                left_state = self._tables[left_table].state
                right_state = self._tables[right_table].state
                group = "&".join(sorted([
                    f"{left_table}.{q.join.left_column}",
                    f"{right_table}.{q.join.right_column}",
                ]))
                shared = self._join_dictionaries.setdefault(group, DictionaryEncoder())
                for state, column in (
                    (left_state, q.join.left_column),
                    (right_state, q.join.right_column),
                ):
                    plan = state.enc_schema.plans.get(column)
                    if plan is None or plan.kind not in ("det", "plain"):
                        raise PlanningError(
                            f"join column {column!r} must be DET-planned (or "
                            "plain in NoEnc mode); got "
                            f"{plan.kind if plan else 'missing'}"
                        )
                    if plan.kind == "det":
                        plan.join_group = group
                    # Join keys must share one dictionary so codes (and
                    # hence ciphertexts) match across the two tables.
                    if state.schema.column(column).dtype == "str":
                        state.dictionaries[column] = shared

    # -- upload -----------------------------------------------------------------

    def upload(
        self,
        table: str,
        columns: Mapping[str, Any],
        num_partitions: int | None = None,
        path: str | os.PathLike | None = None,
    ) -> AppendStats:
        """Encrypt one plaintext batch into ``table``'s store(s).

        The first upload of a planned table creates its store at
        ``path`` -- resolved on the server side, defaulting to the table
        name under ``storage_dir`` (or under the transport's scratch root
        without one) -- by committing an empty key-free sidecar there and
        attaching it, exactly as :meth:`shard_table` creates a sharded
        table.  A path that already holds a store raises
        :class:`~repro.errors.StorageError` and is left untouched.  The
        batch itself, and every later upload, is :meth:`append_rows`.
        """
        entry = self._entry(table)
        if entry.path is None:
            self._create(table, path)
        elif path is not None:
            raise StorageError(
                f"table {table!r} already lives at {entry.path!r}; a store's "
                "path is named at its first upload"
            )
        return self.append_rows(table, columns, num_partitions=num_partitions)

    def _create(self, table: str, path: str | os.PathLike | None) -> None:
        """Commit ``table``'s empty sidecar at ``path`` and attach it."""
        entry = self._entry(table)
        resolved = self.transport.create_store(
            path and os.fspath(path), self._state_payload(entry)
        )
        entry.path = self.transport.attach(resolved)["path"]

    def _encryptor(self, entry: _TableEntry) -> EncryptionModule:
        return EncryptionModule(
            entry.factory, paillier=self._paillier, seed=self._seed
        )

    # -- incremental ingestion -------------------------------------------------------

    def append_rows(
        self,
        table: str,
        columns: Mapping[str, Any],
        num_partitions: int | None = None,
    ) -> AppendStats:
        """Encrypt one plaintext batch and append it to ``table``'s
        partition store(s) as a new *generation*.

        This is the streaming half of the paper's ingestion story
        (Section 3.1: symmetric ASHE exists so continuously arriving
        ad-analytics data stays affordable to encrypt): only the batch is
        encrypted -- ASHE row IDs continue from each cursor's high-water
        mark so pads keep telescoping, and DET/ORE/SPLASHE columns reuse
        the existing plans and dictionaries.  Every row goes to the shard
        that owns it (a single store owns them all); each shard's slice
        is encrypted against that shard's own row-ID cursor and lands --
        identically, in the same order -- on *every* replica of the shard
        as a new generation of partition files published atomically
        (appends need the full replica chain alive; queries need one
        survivor).  Concurrent readers keep seeing their own snapshot.
        The append *commits* when the client-state sidecar's row
        watermarks are rewritten -- a writer killed anywhere in between
        is rolled back by the next append (or ignored by the next
        attach).

        ``num_partitions`` defaults to slicing each store's batch into
        partitions of ``cluster.config.append_partition_rows`` rows.
        """
        entry = self._entry(table)
        self._reconcile(table, entry)
        arrays = {name: np.asarray(col) for name, col in columns.items()}
        nrows = len(next(iter(arrays.values()))) if arrays else 0
        if nrows == 0:
            raise StorageError("append batch is empty")
        check_headroom(entry.state, entry.state.num_rows + nrows)
        encryptor = self._encryptor(entry)
        column_meta = self._column_meta(entry.state)
        target = max(1, self.cluster.config.append_partition_rows)
        rollback = {
            s: (c.next_row_id, c.num_rows) for s, c in entry.cursors.items()
        }
        encrypt_seconds = write_seconds = 0.0
        generation = physical_columns = 0
        try:
            balanced = encryptor.balance_splashe(entry.state, arrays)
            for shard, mine in self._split_by_owner(entry, arrays):
                batch = {name: arr[mine] for name, arr in arrays.items()}
                rows = len(next(iter(batch.values())))
                t0 = time.perf_counter()
                encrypted = encryptor.encrypt_batch(
                    entry.cursors[shard],
                    batch,
                    {name: arr[mine] for name, arr in balanced.items()},
                    num_partitions=num_partitions or -(-rows // target),
                )
                t1 = time.perf_counter()
                generation = max(
                    generation,
                    self.transport.append_batch(table, shard, encrypted, column_meta),
                )
                encrypt_seconds += t1 - t0
                write_seconds += time.perf_counter() - t1
                physical_columns = len(encrypted.column_names)
            entry.recount()
            t0 = time.perf_counter()
            # Commit point: the sidecar's row watermarks acknowledge every
            # generation published above, atomically.
            self._commit_state(table)
            write_seconds += time.perf_counter() - t0
        except Exception:
            for s, (next_id, rows) in rollback.items():
                entry.cursors[s].next_row_id = next_id
                entry.cursors[s].num_rows = rows
            entry.recount()
            raise
        self.transport.reopen(table)
        return AppendStats(
            table=table,
            rows=nrows,
            generation=generation,
            encrypt_seconds=encrypt_seconds,
            write_seconds=write_seconds,
            physical_columns=physical_columns,
        )

    def _split_by_owner(
        self, entry: _TableEntry, arrays: Mapping[str, np.ndarray]
    ) -> list[tuple[int, Any]]:
        """``(shard, rows)`` per shard that owns rows of the batch, in
        shard order, ``rows`` indexing the batch's arrays.  Without a ring
        the one store owns everything; with one, the shard key is encoded
        and DET-encrypted once and the ring assigns every row the shard
        owning its token."""
        topo = entry.topology
        if topo is None:
            return [(0, slice(None))]
        state = entry.state
        values = arrays.get(topo.shard_key)
        if values is None:
            raise StorageError(
                f"append batch is missing the shard key column "
                f"{topo.shard_key!r}"
            )
        if state.schema.column(topo.shard_key).dtype == "str":
            encoder = state.dictionaries.setdefault(
                topo.shard_key, DictionaryEncoder()
            )
            codes = encoder.encode_column(values.tolist())
        else:
            codes = values.astype(np.int64)
        _, join_group = self._shard_key_column(state, topo.shard_key)
        det = entry.factory.det(topo.key_column, join_group)
        owners = topo.ring.owners(det.encrypt_column(codes))
        return [(shard, owners == shard) for shard in sorted(set(owners.tolist()))]

    def stats(self, table: str) -> Any:
        """Zone-map index summary for ``table`` (shorthand for
        ``encrypted_table(table).stats()``)."""
        return self.encrypted_table(table).stats()

    def rebuild_index(self, table: str) -> Any:
        """Recompute every partition's zone-map statistics for ``table``'s
        store and refresh the server-side view.

        The refreshed view stays pinned to the snapshot this session
        attached at, so a generation the sidecar never committed remains
        invisible.  Returns the new index summary, one per shard of a
        sharded table (every live replica is rebuilt).
        """
        self._entry(table)  # raises if unknown
        return self.transport.rebuild_index(table)

    def compact_table(self, table: str, target_rows: int | None = None) -> Any:
        """Merge runs of small append generations into full-size
        partitions (scan parallelism maintenance under streaming
        ingestion), in every store of the table on every live replica.
        ``target_rows`` defaults to each store's own largest mean
        partition size.  Returns the compaction stats dict, or ``None``
        when the store was already healthy; a sharded table returns one
        such entry per shard."""
        self._reconcile(table, self._entry(table))
        return self.transport.compact(table, target_rows=target_rows)

    def _reconcile(self, table: str, entry: _TableEntry) -> None:
        """Roll back store generations the sidecar never acknowledged
        (a previous writer died between manifest publish and sidecar
        commit); refuse stores that are behind the client state, and
        tables no upload created yet.

        The *on-disk* sidecar is the commit record -- never this
        session's in-memory watermark, which may simply be stale because
        another session appended since we attached.  Rolling back against
        the in-memory view would silently destroy that writer's
        committed generations; instead the stale session gets a clear
        error and must re-open the table.
        """
        store_path = entry.path
        if store_path is None:
            raise StorageError(
                f"table {table!r} has no store yet; upload() creates it"
            )
        on_record = ps.committed_cursors(self.transport.read_store_state(store_path))
        for shard, cursor in entry.cursors.items():
            _, committed = on_record.get(shard, (0, 0))
            if committed != cursor.num_rows:
                raise StorageError(
                    f"shard {shard} of the store at {store_path!r} has "
                    f"{committed} committed rows but this session attached at "
                    f"{cursor.num_rows}; another writer advanced (or rewrote) "
                    "the store -- re-open the table in a fresh session before "
                    "appending"
                )
            self.transport.truncate_store(table, shard, committed)

    # -- persistence ----------------------------------------------------------------

    def encrypted_table(self, name: str) -> EncryptedTable:
        """Handle to a planned-and-uploaded table (see :class:`EncryptedTable`)."""
        self._entry(name)  # raises if unknown
        return EncryptedTable(self, name)

    def save_table(self, name: str) -> str:
        """Where ``name``'s store (or sharded root) lives on the server
        side.  Every upload already made it durable; this only names
        the path a fresh session attaches with :meth:`open_table`."""
        return self.encrypted_table(name).store_path

    def open_table(self, path: str) -> EncryptedTable:
        """Attach a persisted table without re-encrypting anything.

        This is the paper's upload-once model: the store was created by
        an :meth:`upload` or :meth:`shard_table` (possibly in another
        process); this session -- constructed with the *same master
        key* -- reads the client-state sidecar, has the
        server side serve the ciphertexts from their committed state
        (memory-mapped columns; for a sharded root the worker fleet is
        respawned over the existing node directories and shard tails a
        dead writer never committed are rolled back), and registers both
        halves.  A wrong master key, a mode mismatch, or a different
        Paillier key pair raises :class:`~repro.errors.StorageError` up
        front instead of letting queries decrypt garbage.
        """
        # Imported lazily: repro.shard itself imports the server module,
        # so a top-level import here would close a package cycle.
        from repro.shard.coordinator import ShardTopology

        resolved = self.cluster.config.resolve_store_path(path)
        state, attach = ps.state_from_dict(self.transport.read_store_state(path))
        name = state.schema.name
        if name in self._tables:
            raise StorageError(
                f"table {name!r} is already registered in this session"
            )
        self._verify_attach(attach, name, f"store at {resolved!r}")
        # Key/mode verification already happened above, client-side,
        # against the key-free sidecar payload.
        info = self.transport.attach(path)
        if info["name"] != name:
            raise StorageError(
                f"the server attached table {info['name']!r} but the sidecar "
                f"describes {name!r}"
            )
        self._tables[name] = _TableEntry(
            state=state,
            factory=CryptoFactory(
                self._keychain, name, ashe_bits=state.enc_schema.ashe_bits(),
            ),
            cursors={
                shard: replace(state, next_row_id=next_id, num_rows=rows)
                for shard, (next_id, rows) in attach["cursors"].items()
            },
            topology=attach["topology"]
            and ShardTopology.from_dict(attach["topology"]),
            path=info["path"],
        )
        # No cache invalidation needed: the name was unregistered until
        # now, so no cached translation can reference it, and attaching
        # must not evict other tables' hot templates.
        return EncryptedTable(self, name)

    def open_sharded(self, path: str) -> EncryptedTable:
        """Attach a persisted sharded table; :meth:`open_table` under the
        name the sharded tier's callers use."""
        return self.open_table(path)

    def _verify_attach(
        self, attach: dict[str, Any], name: str, what: str
    ) -> None:
        """Mode / master-key / Paillier checks of an attach; all three
        fail fast with :class:`StorageError` instead of letting queries
        decrypt garbage."""
        if attach["mode"] != self.mode:
            raise StorageError(
                f"{what} was written in mode {attach['mode']!r}; "
                f"this session runs mode {self.mode!r}"
            )
        if attach["key_check"] != ps.key_check_value(self._keychain, name):
            raise StorageError(
                f"the session master key cannot decrypt the {what} "
                "(key-check mismatch)"
            )
        if self.mode == "paillier":
            assert self._paillier is not None
            if attach["paillier_n"] != self._paillier.n:
                raise StorageError(
                    "the session's Paillier key pair differs from the one "
                    f"that encrypted this {what}; pass the original keys"
                )

    # -- sharded tables ---------------------------------------------------------

    def shard_table(
        self,
        name: str,
        shard_key: str,
        path: str | os.PathLike | None = None,
        *,
        num_shards: int = 4,
        replicas: int = 1,
        vnodes: int = 64,
    ) -> EncryptedTable:
        """Split a freshly planned table across ``num_shards`` worker
        processes, placed by ``shard_key``'s DET tokens on a consistent-
        hash ring with ``replicas``-way replica chains.

        Must run before any rows are ingested: rows are routed to shards
        at encryption time so each shard's store keeps the contiguous
        row-ID invariant (re-sharding ciphertexts would break ASHE pad
        telescoping).  ``shard_key`` must carry a DET ciphertext column
        (a det-planned dimension, or a measure with a DET companion) --
        that is what point/IN predicates route through.  ``path``
        names the sharded root as it does a store at :meth:`upload`.
        """
        from repro.shard.coordinator import (  # lazy: avoids package cycle
            SHARD_ID_STRIDE,
            ShardTopology,
        )

        if not self.transport.local:
            raise TransportError(
                "shard_table spawns a worker fleet and must run in the "
                "serving process; remote sessions attach to sharded tables "
                "(open_sharded) but cannot create them"
            )
        entry = self._entry(name)
        if entry.path is not None:
            raise StorageError(
                f"table {name!r} already lives at {entry.path!r}; "
                "shard_table must run before the first upload so rows are "
                "routed to shards at encryption time"
            )
        key_column, _ = self._shard_key_column(entry.state, shard_key)
        entry.topology = ShardTopology(
            table=name,
            shard_key=shard_key,
            key_column=key_column,
            num_shards=num_shards,
            replicas=replicas,
            vnodes=vnodes,
        )
        # Each shard owns a disjoint row-ID stride; dictionaries stay
        # shared with the schema state, so codes are global.
        entry.cursors = {
            s: replace(entry.state, next_row_id=s * SHARD_ID_STRIDE, num_rows=0)
            for s in range(num_shards)
        }
        # Commit the empty layout, then have the transport serve it: the
        # fleet is spawned by the same attach that re-opens it later.
        try:
            self._create(name, path)
        except BaseException:
            entry.topology, entry.cursors = None, {0: replace(entry.state)}
            raise
        return EncryptedTable(self, name)

    def close(self) -> None:
        """Release what the session's transport holds: worker fleets of
        sharded tables, memory-mapped stores, sockets.

        Idempotent, and an atexit reaper kills straggling workers anyway,
        but tests and long-lived callers should close deterministically.
        """
        self._transport.close()

    @staticmethod
    def _shard_key_column(
        state: ClientTableState, shard_key: str
    ) -> tuple[str, str | None]:
        """The shard key's DET ciphertext column (and join group)."""
        plan = state.enc_schema.plans.get(shard_key)
        if plan is None:
            raise PlanningError(
                f"table {state.schema.name!r} has no column {shard_key!r}"
            )
        if isinstance(plan, sc.DetPlan):
            return plan.cipher_column, plan.join_group
        if isinstance(plan, (sc.AshePlan, sc.PaillierPlan)) and plan.det_column:
            return plan.det_column, None
        raise PlanningError(
            f"shard key {shard_key!r} carries no DET ciphertext column "
            f"(plan kind {plan.kind!r}); shard by a det-planned dimension "
            "so point predicates can route"
        )

    # -- preparation ---------------------------------------------------------------

    def prepare(self, query: str | Query) -> PreparedQuery:
        """Translate once; execute many times.

        Aggregation queries compile to a server-request template,
        projections to a resolved physical scan; both leave
        :class:`~repro.query.ast.Param` slots open for ``execute`` to
        bind.
        """
        OPS.bump("prepare")
        q = self._as_query(query)
        if q.is_aggregation():
            return self._prepare_aggregation(q)
        return self._prepare_scan(q)

    def _prepare_aggregation(self, q: Query) -> PreparedQuery:
        state = self._state(q.table)
        factory = self._entry(q.table).factory
        join_context = None
        server_join = None
        if q.join is not None:
            join_state = self._state(q.join.table)
            join_context = (join_state, self._entry(q.join.table).factory)
            server_join = self._build_server_join(q, state, join_state)
        translator = QueryTranslator(
            state,
            factory,
            paillier_n_squared=(
                self._paillier.n ** 2 if self._paillier is not None else None
            ),
            join_context=join_context,
        )
        translated = translator.translate(q, join=server_join)
        decryptor = DecryptionModule(
            state, self._decrypt_factory(q), paillier=self._paillier
        )
        return PreparedQuery(self, q, translated=translated, decryptor=decryptor)

    def _prepare_scan(self, q: Query) -> PreparedQuery:
        """Resolve a projection: ``SELECT cols FROM t WHERE ...``.

        The server filters with DET/ORE tokens and returns the matching
        encrypted rows; the client decrypts them row-by-row (two PRF
        evaluations per ASHE cell, Section 4.6).  SPLASHE and bare ORE
        columns cannot be projected.
        """
        state = self._state(q.table)
        factory = self._entry(q.table).factory
        translator = QueryTranslator(state, factory)
        base_filter, selectors = translator.split_predicate(q.where)
        if selectors:
            raise TranslationError("SPLASHE dimensions cannot be projected")
        physical: dict[str, tuple[str, str]] = {}
        for item in q.select:
            name = item.name
            plan = state.enc_schema.plan(name)
            if plan.kind == "plain":
                physical[name] = (plan.column, "plain")
            elif plan.kind in ("ashe", "det", "paillier"):
                physical[name] = (plan.cipher_column, plan.kind)
            else:
                raise TranslationError(
                    f"column {name!r} ({plan.kind}) cannot be projected"
                )
        decryptor = DecryptionModule(state, factory, paillier=self._paillier)
        return PreparedQuery(
            self, q, decryptor=decryptor,
            scan_filter=base_filter, scan_physical=physical,
        )

    # -- querying ---------------------------------------------------------------

    def query(
        self,
        query: str | Query,
        user: str | None = None,
        timeout: float | None = None,
        **params: Any,
    ) -> QueryResult:
        """Translate (or reuse a cached translation), execute, decrypt.

        The query is parameterised by shape -- literals lifted into
        :class:`~repro.query.ast.Param` slots -- and looked up in the
        session's LRU translation cache, so repeated templates skip the
        translator entirely.  Explicit ``:name`` placeholders bind from
        ``params`` (access control itself is enforced inside the shared
        ``PreparedQuery.execute`` path).
        """
        q = self._as_query(query)
        if not q.is_aggregation():
            raise TranslationError(
                "projection queries are not server-computable over encrypted "
                "data; use scan() for row-level projections"
            )
        self._validate_params(q, params)
        prepared, lifted = self._cached_prepare(q)
        return prepared.execute(user=user, timeout=timeout, **lifted, **params)

    def scan(
        self,
        query: str | Query,
        user: str | None = None,
        timeout: float | None = None,
        **params: Any,
    ) -> QueryResult:
        """Execute a projection (scan) query through the shared prepared
        path (same shape cache and parameter binding as :meth:`query`)."""
        q = self._as_query(query)
        if q.is_aggregation():
            raise TranslationError("scan() is for projection queries; use query()")
        self._validate_params(q, params)
        prepared, lifted = self._cached_prepare(q)
        return prepared.execute(user=user, timeout=timeout, **lifted, **params)

    def linear_regression(
        self,
        table: str,
        x_column: str,
        y_column: str,
        where: str | None = None,
        user: str | None = None,
    ) -> LinRegResult:
        """Least-squares regression of ``y`` on ``x``: a *two round-trip*
        query (paper Table 6, LinRegSlope/Intercept/R2, category 2R).

        Round 1 aggregates first moments on the server (sums and count);
        the client decrypts them into means.  Round 2 pulls the filtered
        (x, y) ciphertext pairs back to the client -- "data sent back to
        client" -- which decrypts and finishes the second moments and the
        fit.  Both rounds run under the same predicate and the same
        access check.
        """
        predicate = f" WHERE {where}" if where else ""
        first = self.query(
            f"SELECT sum({x_column}), sum({y_column}), count(*) "
            f"FROM {table}{predicate}",
            user=user,
        )
        row = first.rows[0]
        n = row["count(*)"]
        if not n:
            raise TranslationError("linear regression over an empty selection")
        mean_x = row[f"sum({x_column})"] / n
        mean_y = row[f"sum({y_column})"] / n

        second = self.scan(
            f"SELECT {x_column}, {y_column} FROM {table}{predicate}", user=user
        )
        xs = np.array([r[x_column] for r in second.rows], dtype=np.float64)
        ys = np.array([r[y_column] for r in second.rows], dtype=np.float64)
        sxx = float(((xs - mean_x) ** 2).sum())
        sxy = float(((xs - mean_x) * (ys - mean_y)).sum())
        syy = float(((ys - mean_y) ** 2).sum())
        if sxx == 0.0:
            raise TranslationError("x has zero variance; slope undefined")
        slope = sxy / sxx
        intercept = mean_y - slope * mean_x
        r2 = 0.0 if syy == 0.0 else (sxy * sxy) / (sxx * syy)
        return LinRegResult(
            slope=slope, intercept=intercept, r_squared=r2, n=int(n),
            round_trips=2,
            request_metrics=first.request_metrics + second.request_metrics,
        )

    # -- internals ---------------------------------------------------------------

    @staticmethod
    def _column_meta(state: ClientTableState) -> dict[str, str]:
        """Physical column -> encryption *scheme*, recorded in store
        manifests.  Per-physical, not per-plan: the ORE/DET companion
        columns of an ASHE measure are recorded as ``ore``/``det``, which
        is what tells the zone-map index (and its leakage auditor) which
        columns are indexable ciphertext and which are semantically
        secure."""
        return {
            physical: scheme
            for plan in state.enc_schema.plans.values()
            for physical, scheme in plan.physical_schemes().items()
        }

    def _state_payload(self, entry: _TableEntry) -> dict[str, Any]:
        """The key-free sidecar payload recording ``entry``'s state."""
        return ps.state_to_dict(
            entry.state,
            mode=self.mode,
            keychain=self._keychain,
            cursors=entry.cursors,
            topology=entry.topology and entry.topology.to_dict(),
            paillier_n=(
                self._paillier.n if self._paillier is not None else None
            ),
        )

    def _commit_state(self, table: str) -> None:
        """Hand the sidecar payload to the transport to write -- the
        commit point of saves and appends, possibly executed by a remote
        service on the session's behalf."""
        self.transport.commit_state(table, self._state_payload(self._entry(table)))

    def _as_query(self, query: str | Query) -> Query:
        if isinstance(query, str):
            return parse_query(query)
        return query

    def _check_access(self, user: str | None, tables: tuple[str, ...]) -> None:
        if self.access is None:
            return
        for table in tables:
            self.access.check(user, table)

    @staticmethod
    def _validate_params(q: Query, params: Mapping[str, Any]) -> None:
        """Reject values for parameters the query does not declare (the
        shared execute path reports *missing* ones)."""
        names = query_params(q)
        unknown = sorted(set(params) - set(names))
        if unknown:
            raise TranslationError(
                f"unknown parameters {unknown!r}; this query declares "
                f"{list(names)!r}"
            )

    def _cached_prepare(self, q: Query) -> tuple[PreparedQuery, dict[str, Any]]:
        shape, values = self._parameterize(q)
        prepared = self._cache.get(shape)
        if prepared is None:
            OPS.bump("cache_miss")
            prepared = self.prepare(shape)
            # The cache is the session's own: a weak link back keeps the
            # session out of a reference cycle, so a dropped one (and its
            # mapped stores) goes by refcount, not at a gen-2 collection.
            prepared._session = weakref.proxy(self)
            self._cache.put(shape, prepared)
        else:
            OPS.bump("cache_hit")
        return prepared, values

    def _fixed_predicate_columns(self, q: Query) -> set[str]:
        """Columns whose predicate values shape the translation itself
        (SPLASHE retargeting) and therefore must stay inline."""
        fixed: set[str] = set()
        tables = [q.table] + ([q.join.table] if q.join is not None else [])
        for table in tables:
            entry = self._tables.get(table)
            if entry is None:
                continue
            for name, plan in entry.state.enc_schema.plans.items():
                if plan.kind in ("splashe_basic", "splashe_enhanced"):
                    fixed.add(name)
        return fixed

    def _parameterize(self, q: Query) -> tuple[Query, dict[str, Any]]:
        """Lift predicate literals into fresh ``Param`` slots, returning
        the shape (the cache key) and the lifted values.  Explicit user
        placeholders are kept as-is (their fresh-name counter skips
        collisions); values on SPLASHE dimensions stay inline -- they
        select physical columns, so they are part of the shape."""
        if q.where is None:
            return q, {}
        fixed = self._fixed_predicate_columns(q)
        taken = set(query_params(q))
        values: dict[str, Any] = {}
        counter = iter(range(10**9))

        def lift(value: Any) -> Param:
            if isinstance(value, Param):
                return value  # explicit placeholder: bound by the caller
            name = next(n for i in counter if (n := f"p{i}") not in taken)
            values[name] = value
            return Param(name)

        def sub(node: Predicate) -> Predicate:
            if isinstance(node, Comparison):
                if node.column in fixed:
                    return node
                return Comparison(node.column, node.op, lift(node.value))
            if isinstance(node, InList):
                if node.column in fixed:
                    return node
                return InList(node.column, tuple(lift(v) for v in node.values))
            if isinstance(node, Between):
                if node.column in fixed:
                    return node
                return Between(node.column, lift(node.low), lift(node.high))
            if isinstance(node, Not):
                return Not(sub(node.child))
            if isinstance(node, And):
                return And(tuple(sub(c) for c in node.children))
            if isinstance(node, Or):
                return Or(tuple(sub(c) for c in node.children))
            raise TranslationError(
                f"unknown predicate node {type(node).__name__}"
            )

        return replace(q, where=sub(q.where)), values

    def _entry(self, table: str) -> _TableEntry:
        try:
            return self._tables[table]
        except KeyError:
            raise PlanningError(
                f"no plan for table {table!r}; call create_plan first"
            ) from None

    def _state(self, table: str) -> ClientTableState:
        return self._entry(table).state

    def _decrypt_factory(self, q: Query) -> CryptoFactory:
        """Factory used for decryption; join payload columns resolve through
        a composite factory when the query spans two tables."""
        if q.join is None:
            return self._entry(q.table).factory
        return _CompositeFactory(
            primary=self._entry(q.table).factory,
            secondary=self._entry(q.join.table).factory,
            secondary_columns=set(
                self._state(q.join.table).enc_schema.physical_columns()
            ),
        )

    def _build_server_join(
        self, q: Query, probe: ClientTableState, build: ClientTableState
    ) -> srv.ServerJoin:
        assert q.join is not None
        probe_plan = probe.enc_schema.plans.get(q.join.left_column)
        build_plan = build.enc_schema.plans.get(q.join.right_column)
        if probe_plan is None or build_plan is None:
            raise TranslationError("join columns missing from the plans")
        probe_key = (
            probe_plan.cipher_column if probe_plan.kind == "det" else probe_plan.column
        )
        build_key = (
            build_plan.cipher_column if build_plan.kind == "det" else build_plan.column
        )
        # Build-side physical columns the query touches.
        needed: set[str] = set()
        build_names = set(build.schema.column_names())
        for col in (q.measure_columns() | q.dimension_columns()) - {q.join.left_column}:
            if col in build_names and col not in set(probe.schema.column_names()):
                needed.update(build.enc_schema.plan(col).physical_columns())
        return srv.ServerJoin(
            build_table=build.schema.name,
            probe_key_column=probe_key,
            build_key_column=build_key,
            payload_columns=tuple(sorted(needed)),
        )

    # -- introspection -------------------------------------------------------------

    def encrypted_schema(self, table: str) -> sc.EncryptedSchema:
        return self._state(table).enc_schema

    def table_state(self, table: str) -> ClientTableState:
        return self._state(table)

    def cache_stats(self) -> dict[str, int]:
        """Hit/miss/size counters of the translation cache."""
        return self._cache.stats()


class _CompositeFactory:
    """Routes physical-column scheme lookups across two tables' factories."""

    def __init__(self, primary: CryptoFactory, secondary: CryptoFactory,
                 secondary_columns: set[str]):
        self._primary = primary
        self._secondary = secondary
        self._secondary_columns = secondary_columns

    def _route(self, physical_column: str) -> CryptoFactory:
        if physical_column in self._secondary_columns:
            return self._secondary
        return self._primary

    def ashe(self, physical_column: str):
        return self._route(physical_column).ashe(physical_column)

    def det(self, physical_column: str, join_group: str | None = None):
        return self._route(physical_column).det(physical_column, join_group)

    def ore(self, physical_column: str, nbits: int = 32, signed: bool = True):
        return self._route(physical_column).ore(physical_column, nbits, signed)
