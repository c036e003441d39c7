"""The untrusted Seabed server (paper Section 4.5).

Executes rewritten queries over encrypted tables on the simulated cluster.
Everything here operates on public material only: ciphertext columns,
DET/ORE comparison tokens, and row identifiers.  No key ever reaches this
module.

Supported physical operations:

- filter evaluation over plaintext, DET-token and ORE-token predicates;
- ASHE aggregation: sums wrapping in the column's dtype (uint32 SPLASHE
  indicators), carried as uint64 partials, plus ID-list construction.  The
  ID list belongs to the *selected row set*, not to a column: it is built
  and encoded once per partition per ID source (:data:`ROW_IDS`;
  :data:`BUILD_IDS` under a join) and travels once per row set, beside
  the aggregates and never inside them -- compressed at the workers by
  default or at the driver for the ablation (Section 4.5, "Reducing
  server-to-client traffic");
- plain and Paillier aggregation for the NoEnc / CryptDB-style baselines;
- ORE min/max via a vectorised pairwise tournament and median via
  quickselect, using only the public Compare;
- group-by with per-group ASHE sums held as columns from map task to
  reply (:mod:`repro.core.grouped`) and, per partition and ID source,
  the flat path's ID chunk plus a code column naming each ID's group --
  the server already learns each row's group from the DET key column;
- broadcast hash joins on DET columns, with multiset ID collection for
  build-side ASHE aggregates (and probe rows duplicate keys replicate);
- **zone-map pruning** (:mod:`repro.index`): before dispatching a map
  stage, the per-partition statistics a store-backed table carries are
  consulted and partitions the filter provably cannot match -- or, for
  unfiltered ORE min/max, partitions whose range cannot contain the
  winner -- are never dispatched.  Pruning is conservative (any
  uncertainty keeps the partition) so results stay bit-identical;
  ``StageMetrics.partitions_total``/``partitions_skipped`` record it.
"""

from __future__ import annotations

import functools
import itertools
import logging
import time
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

import numpy as np

from repro.core.grouped import GroupedRows, IdPiece, code_dtype
from repro.crypto import ore as ore_mod
from repro.crypto.kernel import observe_kernel_op
from repro.crypto.prf import MASK64
from repro.engine.cluster import SimulatedCluster
from repro.engine.metrics import JobMetrics
from repro.engine.table import Partition, Table
from repro.errors import ExecutionError
from repro.idlist import IdList, get_codec
from repro.idlist.codec import encode_mask, encode_multiset
from repro.index import prune
from repro.obs import metrics as _obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.log import get_logger, log_event

_U64 = np.uint64

JOIN_IDS_COLUMN = "__join_ids"


# ---------------------------------------------------------------------------
# Filter expressions (token-based; no key material)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlainCmp:
    column: str
    op: str
    value: Any


@dataclass(frozen=True)
class DetEq:
    column: str
    token: int
    negate: bool = False


@dataclass(frozen=True)
class DetIn:
    column: str
    tokens: tuple[int, ...]


@dataclass(frozen=True)
class OreCmp:
    column: str
    op: str
    token: tuple[int, ...]
    nbits: int = 32


@dataclass(frozen=True)
class FilterAnd:
    children: tuple["FilterExpr", ...]


@dataclass(frozen=True)
class FilterOr:
    children: tuple["FilterExpr", ...]


@dataclass(frozen=True)
class FilterNot:
    child: "FilterExpr"


FilterExpr = PlainCmp | DetEq | DetIn | OreCmp | FilterAnd | FilterOr | FilterNot

_PLAIN_OPS = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def eval_filter(columns: dict[str, np.ndarray], expr: FilterExpr | None,
                nrows: int) -> np.ndarray | None:
    """Boolean mask (or None for select-all)."""
    if expr is None:
        return None
    if isinstance(expr, PlainCmp):
        return np.asarray(_PLAIN_OPS[expr.op](columns[expr.column], expr.value),
                          dtype=bool)
    if isinstance(expr, DetEq):
        t0 = time.perf_counter() if _obs_metrics.enabled() else 0.0
        mask = columns[expr.column] == _U64(expr.token)
        if t0:
            observe_kernel_op("det", "compare_column",
                              time.perf_counter() - t0, nrows)
        return ~mask if expr.negate else mask
    if isinstance(expr, DetIn):
        col = columns[expr.column]
        t0 = time.perf_counter() if _obs_metrics.enabled() else 0.0
        mask = np.zeros(nrows, dtype=bool)
        for token in expr.tokens:
            mask |= col == _U64(token)
        if t0:
            observe_kernel_op("det", "compare_column",
                              time.perf_counter() - t0, nrows * len(expr.tokens))
        return mask
    if isinstance(expr, OreCmp):
        t0 = time.perf_counter() if _obs_metrics.enabled() else 0.0
        mask = ore_mod.filter_packed(columns[expr.column], expr.op, expr.token)
        if t0:
            observe_kernel_op("ore", "compare_column",
                              time.perf_counter() - t0, nrows)
        return mask
    if isinstance(expr, FilterAnd):
        mask = None  # select-all until a child narrows it
        for child in expr.children:
            sub = eval_filter(columns, child, nrows)
            if sub is not None:
                mask = sub if mask is None else mask & sub
                if not mask.any():
                    break
        return mask
    if isinstance(expr, FilterOr):
        mask = np.zeros(nrows, dtype=bool)
        for child in expr.children:
            sub = eval_filter(columns, child, nrows)
            if sub is None:
                return None
            mask |= sub
        return mask
    if isinstance(expr, FilterNot):
        sub = eval_filter(columns, expr.child, nrows)
        return np.zeros(nrows, dtype=bool) if sub is None else ~sub
    raise ExecutionError(f"unknown filter node {type(expr).__name__}")


# ---------------------------------------------------------------------------
# Aggregation operators
# ---------------------------------------------------------------------------


#: ID sources: whose row identifiers an ASHE column's pads are keyed by.
ROW_IDS = "rows"  # the query table's selected rows
BUILD_IDS = "build"  # the join build side's rows, once per match (a multiset)

#: Codec of a run-coded ID chunk (Section 4.5), flat or grouped.
FLAT_CODEC = "seabed"


@dataclass(frozen=True)
class AsheSum:
    """Wrapping uint64 sum; decrypts with its row set's ``id_source`` IDs."""

    column: str
    alias: str
    id_source: str = ROW_IDS  # BUILD_IDS when the column is join-replicated


@dataclass(frozen=True)
class PlainAgg:
    """NoEnc aggregation; func in sum|count|min|max|sumsq."""

    column: str | None
    func: str
    alias: str


@dataclass(frozen=True)
class PaillierSum:
    """Big-int ciphertext product mod n^2 (public key material only)."""

    column: str
    alias: str
    n_squared: int


@dataclass(frozen=True)
class OreExtreme:
    """min/max via the public ORE Compare; returns the winning row's
    payload ciphertext and row ID so the client can decrypt one value."""

    kind: str  # "min" | "max"
    ore_column: str
    payload_column: str
    alias: str


@dataclass(frozen=True)
class OreMedian:
    """Median row via quickselect on ORE ciphertexts (gathered at driver)."""

    ore_column: str
    payload_column: str
    alias: str


AggOp = AsheSum | PlainAgg | PaillierSum | OreExtreme | OreMedian


@dataclass(frozen=True)
class ServerJoin:
    """Broadcast hash join: probe the query table against a build table."""

    build_table: str
    probe_key_column: str  # physical column on the query table
    build_key_column: str  # physical column on the build table
    payload_columns: tuple[str, ...]  # build-side physical columns to attach


@dataclass(frozen=True)
class ServerQuery:
    table: str
    aggs: tuple[AggOp, ...]
    filter: FilterExpr | None = None
    join: ServerJoin | None = None
    group_by: str | None = None
    compress_at: str = "worker"  # "worker" | "driver" (ablation)


#: The ID sets of one row set: ID source -> self-describing
#: :mod:`repro.idlist.codec` chunks, one per partition that selected a row.
IdSets = dict[str, list[bytes]]


@dataclass
class ServerResponse:
    """What travels back to the proxy.

    A flat request's row set -- its whole selection -- is a pair:
    payloads by alias (``("ashe", wrapped sum)``, ``("plain", value)``,
    ``("paillier", product)``, ``("extreme", ...)``; ``None``: no row
    selected) and its :data:`IdSets`.  IDs travel once per row set: each
    ``AsheSum`` reads the set its ``id_source`` names; no payload carries
    a chunk.

    ``flat``: ``flat`` + ``id_sets``.  ``partial`` (shard worker ->
    coordinator): ``flat`` maps aliases to pre-merged piece lists.
    ``grouped``: ``groups``, every group key's row set as columns
    -- one value column per alias, per source one ID chunk and code
    column per partition.  ``scan``: ``flat`` holds the projected
    ``columns`` and row ``ids``.
    """

    kind: str  # "flat" | "partial" | "grouped" | "scan"
    flat: dict[str, Any] = field(default_factory=dict)
    id_sets: IdSets = field(default_factory=dict)
    groups: GroupedRows | None = None
    metrics: JobMetrics = field(default_factory=JobMetrics)
    payload_bytes: int = 0


# -- payload helpers ----------------------------------------------------------


def _payload_nbytes(payload: Any) -> int:
    tag = payload[0]
    if tag == "paillier":
        return (int(payload[1]).bit_length() + 7) // 8
    if tag == "extreme":
        return 8 + 8 + 8 * len(payload[3])
    return 8


def row_set_nbytes(payloads: Iterable[Any], id_sets: IdSets) -> int:
    """Bytes one row set puts on the network: payloads + its IDs, once."""
    total = 0
    for payload in payloads:
        if payload is not None:
            total += _payload_nbytes(payload)
    if id_sets:
        total += sum(len(c) for chunks in id_sets.values() for c in chunks)
    return total


def id_sources(aggs: Iterable[AggOp]) -> list[str]:
    """The ID sources the request's ASHE aggregates decrypt with."""
    return list(dict.fromkeys(a.id_source for a in aggs if isinstance(a, AsheSum)))


def _id_slots(aggs: Sequence[AggOp]) -> list[tuple[int, str]]:
    """Where a map task's partial keeps each ID source's chunk."""
    return list(enumerate(id_sources(aggs), start=len(aggs)))


def _collect_id_sets(slots: list[tuple[int, str]], partials: list[tuple]) -> dict[str, list]:
    """A row set's ID sets from the map tasks' partials of it."""
    out = {}
    for slot, source in slots:
        chunks = [p[slot] for p in partials if p[slot] is not None]
        if chunks:
            out[source] = chunks
    return out


def gather_id_sets(parts: Iterable[IdSets]) -> IdSets:
    """Concatenate several replies' chunks of one row set, once per source."""
    out: IdSets = {}
    for sets in parts:
        for source, chunks in sets.items():
            out.setdefault(source, []).extend(chunks)
    return out


# ---------------------------------------------------------------------------
# Stage task bodies
#
# These are the units of work ``SimulatedCluster.map_stage`` runs and
# times, one call per partition (or reducer).  They are top-level functions
# taking (Partition, query-slice) arguments -- never closures over server
# state -- so each call is a self-contained task, the shape Spark gives its
# task closures.  Everything they touch is public material: ciphertexts,
# comparison tokens, and row IDs.
#
# A store-backed partition is the registered table's own Partition, whose
# columns map the generation that table was opened at: a query keeps
# reading that snapshot whatever the store publishes meanwhile.
#
# A flat map task's partial of its row set is one tuple: a payload per
# ``q.aggs`` entry, then an ID chunk per ``id_sources(q.aggs)`` entry
# (``None``: no row); the driver builds the reply's dicts and ``IdSets``.
# A grouped map task's partial is its partition's row sets as columns
# (:class:`GroupedRows`): one value column per alias, which the shuffle
# and the reducers merge, and per ID source the flat chunk of the
# partition's selection with a code per ID, which goes to the driver.
# ---------------------------------------------------------------------------


def scan_map_task(
    part: Partition, columns: tuple[str, ...], filt: FilterExpr | None
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Filtered projection of one partition: selected columns + row IDs."""
    mask = eval_filter(part.columns, filt, part.nrows)
    ids = np.arange(part.nrows, dtype=_U64) + _U64(part.start_id)
    if mask is None:
        return {c: part.column(c) for c in columns}, ids
    return {c: part.column(c)[mask] for c in columns}, ids[mask]


def probe_join(
    part: Partition, q: ServerQuery, build: dict[str, Any]
) -> tuple[dict[str, np.ndarray], np.ndarray] | None:
    """Probe one partition against the broadcast build index.

    Returns (joined columns, probe-row selector) or None if empty.
    """
    join = q.join
    assert join is not None
    probe_keys = part.column(join.probe_key_column)
    index = build["index"]
    probe_rows: list[int] = []
    build_rows: list[int] = []
    for pos, key in enumerate(probe_keys.tolist()):
        for b in index.get(key, ()):
            probe_rows.append(pos)
            build_rows.append(b)
    if not probe_rows:
        return None
    probe_idx = np.asarray(probe_rows, dtype=np.int64)
    build_idx = np.asarray(build_rows, dtype=np.int64)
    columns = {name: arr[probe_idx] for name, arr in part.columns.items()}
    for name, arr in build["payloads"].items():
        columns[name] = arr[build_idx]
    columns[JOIN_IDS_COLUMN] = build["ids"][build_idx]
    return columns, probe_idx


def _ids_at(part: Partition, probe_idx: np.ndarray | None, sel: np.ndarray) -> np.ndarray:
    """Global row IDs of the view rows ``sel``."""
    pos = sel if probe_idx is None else probe_idx[sel]
    return pos.astype(_U64) + _U64(part.start_id)


def _flat_id_chunk(
    source: str,
    part: Partition,
    columns: dict[str, np.ndarray],
    mask: np.ndarray | None,
    probe_idx: np.ndarray | None,
    raw: bool,
) -> Any:
    """The selected rows' IDs under one source as one encoded chunk
    (``None``: no row; ``raw``: the :class:`IdList` itself, which the
    ``compress_at="driver"`` ablation ships to the driver)."""
    if source == ROW_IDS and probe_idx is None:
        if mask is None:
            ids = IdList.from_range(part.start_id, part.start_id + part.nrows)
        elif raw:
            ids = IdList.from_mask(mask, part.start_id)
        else:
            return encode_mask(mask, part.start_id)
    else:
        joined = source == BUILD_IDS
        arr = columns[JOIN_IDS_COLUMN] if joined else probe_idx.astype(_U64) + _U64(part.start_id)
        arr = arr if mask is None else arr[mask]
        # Build rows repeat once per match -- and so do probe rows when
        # duplicate build keys replicate them: each match summed the row's
        # ciphertext again, so its ID must count once per match too.
        if joined or bool(np.any(arr[1:] == arr[:-1])):
            return encode_multiset(arr) if arr.size else None
        ids = IdList.from_ids(arr)
    if ids.is_empty():
        return None
    return ids if raw else get_codec(FLAT_CODEC).encode(ids)


def flat_map_task(
    part: Partition, q: ServerQuery, build: dict[str, Any] | None
) -> tuple | None:
    """One partition's partial of a flat (ungrouped) query's row set: the
    selected rows' IDs are built and encoded once per source, whatever
    the number of ASHE aggregates."""
    # Without a join, view row j is partition row j (probe_idx None).
    view = (part.columns, None) if build is None else probe_join(part, q, build)
    if view is None:
        return None
    columns, probe_idx = view
    nrows = part.nrows if probe_idx is None else len(probe_idx)
    mask = eval_filter(columns, q.filter, nrows)
    raw = q.compress_at == "driver"
    return (
        *(_flat_partial(agg, columns, mask, part, probe_idx) for agg in q.aggs),
        *(
            _flat_id_chunk(source, part, columns, mask, probe_idx, raw)
            for source in id_sources(q.aggs)
        ),
    )


def _merge_flat(
    q: ServerQuery, partials: list[tuple], final: bool
) -> tuple[dict[str, Any], IdSets]:
    """Driver-side merge of a flat request's per-partition partials.

    ``final`` yields the reply: one payload per alias.  A shard worker
    (``final=False``) yields *piece lists* for the coordinator's final
    merge: associative payloads (wrapping ASHE sums, plain folds,
    Paillier products, ORE local winners) pre-merged node-side to one
    piece, gather-style ones (:data:`_GATHER_TAGS`) shipped raw.  Either
    way the row set's chunks are collected once per source, and raw ID
    lists (the ``compress_at="driver"`` ablation) are unioned and encoded
    here, as one chunk -- the coordinator is a shard's client.
    """
    out: dict[str, Any] = {}
    for slot, agg in enumerate(q.aggs):
        pieces = [p[slot] for p in partials if p[slot] is not None]
        if final:
            out[agg.alias] = merge_payloads(agg, pieces)
        elif pieces and pieces[0][0] not in _GATHER_TAGS:
            out[agg.alias] = [merge_payloads(agg, pieces)]
        else:
            out[agg.alias] = pieces
    id_sets = _collect_id_sets(_id_slots(q.aggs), partials)
    for source, chunks in id_sets.items():
        raw = [c for c in chunks if isinstance(c, IdList)]
        if raw:
            id_sets[source] = [c for c in chunks if not isinstance(c, IdList)]
            id_sets[source].append(get_codec(FLAT_CODEC).encode(IdList.union_all(raw)))
    return out, id_sets


def grouped_map_task(
    part: Partition, q: ServerQuery, build: dict[str, Any] | None
) -> GroupedRows | None:
    """One partition's row sets, one per group key, as columns (``None``:
    no row selected); per ID source, the selection's flat chunk and each
    selected row's row set."""
    view = (part.columns, None) if build is None else probe_join(part, q, build)
    if view is None:
        return None
    columns, probe_idx = view
    nrows = part.nrows if probe_idx is None else len(probe_idx)
    mask = eval_filter(columns, q.filter, nrows)
    sel = np.arange(nrows) if mask is None else np.flatnonzero(mask)
    if sel.size == 0:
        return None
    # One sort groups the rows by key; the order of a group's rows does
    # not matter, its IDs travel in the partition's chunk.
    key = columns[q.group_by][sel].astype(_U64, copy=False)
    order = np.argsort(key)
    key = key[order]
    first = np.append(True, key[1:] != key[:-1])
    keys = key[first]
    starts = np.flatnonzero(first)
    code = np.empty(sel.size, dtype=code_dtype(keys.size))
    code[order] = np.cumsum(first) - 1
    sorted_sel = sel[order]
    return GroupedRows(
        keys,
        {agg.alias: _group_values(agg, columns, sorted_sel, starts) for agg in q.aggs},
        {
            source: [IdPiece(
                _flat_id_chunk(source, part, columns, mask, probe_idx, raw=False),
                # A build-side multiset chunk decodes its IDs sorted.
                code[np.argsort(columns[JOIN_IDS_COLUMN][sel], kind="stable")]
                if source == BUILD_IDS else code,
            )]
            for source in id_sources(q.aggs)
        },
    )


def group_reduce_task(rows: GroupedRows, aggs: tuple[AggOp, ...]) -> GroupedRows:
    """Merge one reducer's sorted slice of partials into one row set per
    key: one ``reduceat`` per column."""
    return rows.merge(group_reducers(aggs))


def group_reducers(aggs: Iterable[AggOp]) -> dict[str, Any]:
    """How each alias's column merges over runs of rows or of partials."""
    return {agg.alias: _group_reducer(agg) for agg in aggs}


def empty_groups(aggs: Sequence[AggOp]) -> GroupedRows:
    """Grouped row sets with no entry: nothing selected, or an empty shard."""
    return GroupedRows(np.empty(0, _U64), {
        a.alias: np.empty(0, object if isinstance(a, PaillierSum) else
                          _U64 if isinstance(a, AsheSum) else np.int64) for a in aggs
    }, {source: [] for source in id_sources(aggs)})


def merge_groups(parts: list[GroupedRows], aggs: Sequence[AggOp]) -> GroupedRows:
    """Several partials' row sets as one, in part order within a row set."""
    rows, ids = GroupedRows.shuffle(parts or [empty_groups(aggs)])
    merged = rows.merge(group_reducers(aggs))
    merged.ids = ids
    return merged


class SeabedServer:
    """Holds registered encrypted tables and executes server queries.

    ``pruning`` enables zone-map partition pruning (on by default;
    benchmarks and equivalence tests flip it to measure and verify the
    unpruned path).
    """

    def __init__(self, cluster: SimulatedCluster, pruning: bool = True):
        self.cluster = cluster
        self.pruning = pruning
        self._tables: dict[str, Table] = {}
        # name -> (source zone_maps list, compiled form).  Identity-keyed:
        # re-registering a table swaps in a new zone_maps list, which
        # invalidates the compiled entry automatically.
        self._zone_compiled: dict[str, tuple[Any, list | None]] = {}
        # Tables served by a shard coordinator (repro.shard) instead of a
        # locally registered Table; execute()/scan() delegate by name, so
        # the whole prepared-query/translation layer above is untouched.
        self._sharded: dict[str, Any] = {}

    def register(self, table: Table) -> None:
        self._tables[table.name] = table

    def unregister(self, name: str) -> None:
        """Drop a registered table (and its compiled zone maps), if any."""
        self._tables.pop(name, None)
        self._zone_compiled.pop(name, None)

    def register_sharded(self, name: str, coordinator: Any) -> None:
        """Route queries against ``name`` to a shard coordinator."""
        self._sharded[name] = coordinator

    def sharded(self, name: str) -> Any | None:
        """The shard coordinator serving ``name``, if any."""
        return self._sharded.get(name)

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise ExecutionError(f"no table {name!r} registered on the server") from None

    def get(self, name: str) -> Table | None:
        """The registered table, or ``None`` when nothing is served yet."""
        return self._tables.get(name)

    # -- execution -------------------------------------------------------------

    def execute(self, q: ServerQuery) -> ServerResponse:
        with obs_trace.span("server:execute", table=q.table) as sp:
            response = self._execute_query(q)
        metrics = response.metrics
        if sp is not None and metrics is not None:
            sp.set(result_bytes=metrics.result_bytes)
        self._maybe_log_slow(q, metrics)
        return response

    def _execute_query(self, q: ServerQuery, final: bool = True) -> ServerResponse:
        coordinator = self._sharded.get(q.table)
        if coordinator is not None:
            return coordinator.execute(q)
        table = self.table(q.table)
        metrics = JobMetrics()
        build = self._prepare_join(q, metrics)
        parts, skipped = self._surviving_partitions(table, q)
        if q.group_by is None:
            response = self._execute_flat(q, parts, skipped, build, metrics, final)
        else:
            response = self._execute_grouped(q, parts, skipped, build, metrics, final)
        response.metrics = metrics
        metrics.result_bytes += response.payload_bytes
        return response

    def _maybe_log_slow(self, q: ServerQuery, metrics: JobMetrics | None) -> None:
        """Emit the structured slow-query event when the job's measured
        ``real_time`` crosses ``ClusterConfig.slow_query_s``.

        Logged fields are operational only -- table name, timings, stage
        and byte counts -- never tokens, ciphertexts, or plaintexts.
        """
        threshold = self.cluster.config.slow_query_s
        if threshold is None or metrics is None:
            return
        real_s = metrics.real_time
        if real_s < threshold:
            return
        log_event(
            "slow_query",
            level=logging.WARNING,
            logger=get_logger("slow"),
            table=q.table,
            real_s=round(real_s, 6),
            threshold_s=threshold,
            stages=len(metrics.stages),
            result_bytes=metrics.result_bytes,
            grouped=q.group_by is not None,
            filtered=q.filter is not None,
        )
        _obs_metrics.get_registry().counter(
            "seabed_slow_queries_total",
            "Queries whose measured time crossed ClusterConfig.slow_query_s.",
            labelnames=("table",),
        ).inc(1.0, table=q.table)

    # -- zone-map pruning --------------------------------------------------------

    def _zone_maps(self, table: Table) -> list | None:
        """The table's zone maps in compiled form, cached per table name
        and invalidated by list identity when a table is re-registered."""
        if table.zone_maps is None:
            return None
        cached = self._zone_compiled.get(table.name)
        if cached is not None and cached[0] is table.zone_maps:
            return cached[1]
        compiled = prune.compile_zone_maps(table.zone_maps)
        self._zone_compiled[table.name] = (table.zone_maps, compiled)
        return compiled

    def _filter_survivors(
        self, table: Table, filt: FilterExpr | None
    ) -> tuple[list[Partition], int]:
        """Partitions the filter could match, plus how many were pruned.

        Consults the table's zone maps; a table without them (one built
        in memory rather than opened from a store) and disabled pruning
        fall through to a full dispatch.  Conservative by construction:
        any partition the index cannot *prove* irrelevant is kept, so
        responses are bit-identical to an unpruned run.
        """
        parts = table.partitions
        if not self.pruning:
            return parts, 0
        keep = prune.survivors(self._zone_maps(table), filt)
        if keep is None:
            return parts, 0
        kept = [p for p, k in zip(parts, keep) if k]
        return kept, len(parts) - len(kept)

    def _surviving_partitions(
        self, table: Table, q: ServerQuery
    ) -> tuple[list[Partition], int]:
        """Filter pruning plus the unfiltered ORE min/max short-circuit:
        a request whose aggregates are all ORE extremes only needs the
        partitions whose zone-map bound ties the global winner."""
        parts, skipped = self._filter_survivors(table, q.filter)
        if (
            skipped == 0 and self.pruning and table.zone_maps is not None
            and q.filter is None and q.join is None and q.group_by is None
        ):
            keep = prune.extreme_candidates(self._zone_maps(table), q.aggs)
            if keep is not None:
                parts = [p for p, k in zip(table.partitions, keep) if k]
                skipped = len(table.partitions) - len(parts)
        return parts, skipped

    def scan(
        self,
        table_name: str,
        columns: Sequence[str],
        filt: FilterExpr | None = None,
    ) -> ServerResponse:
        """Filtered projection: return encrypted rows plus their IDs.

        Used by scan-style queries (Big Data Benchmark query 1); the proxy
        decrypts the returned ciphertext columns row-by-row.
        """
        coordinator = self._sharded.get(table_name)
        if coordinator is not None:
            return coordinator.scan(table_name, columns, filt)
        table = self.table(table_name)
        metrics = JobMetrics()
        columns = tuple(columns)
        kept, skipped = self._filter_survivors(table, filt)
        calls = [(part, columns, filt) for part in kept]
        parts, stage = self.cluster.map_stage("scan", scan_map_task, calls, metrics)
        stage.partitions_total = len(table.partitions)
        stage.partitions_skipped = skipped

        def merge():
            if not parts:
                # Every partition was pruned: an empty result with the
                # right dtypes, sliced from the first stored partition.
                template = table.partitions[0]
                cols = {c: template.column(c)[:0] for c in columns}
                return cols, np.empty(0, dtype=_U64)
            cols = {
                c: np.concatenate([p[0][c] for p in parts]) for c in columns
            }
            ids = np.concatenate([p[1] for p in parts])
            return cols, ids

        cols, ids = self.cluster.run_driver("scan-merge", merge, metrics)
        payload_bytes = int(ids.nbytes) + sum(
            a.nbytes if a.dtype != object else 256 * len(a) for a in cols.values()
        )
        response = ServerResponse(kind="scan", payload_bytes=payload_bytes)
        response.flat = {"columns": cols, "ids": ids}
        response.metrics = metrics
        metrics.result_bytes += payload_bytes
        return response

    # -- join build ------------------------------------------------------------

    def _prepare_join(
        self, q: ServerQuery, metrics: JobMetrics
    ) -> dict[str, Any] | None:
        if q.join is None:
            return None
        join = q.join
        build_table = self.table(join.build_table)

        def build_index() -> dict[str, Any]:
            keys = build_table.column(join.build_key_column)
            payloads = {c: build_table.column(c) for c in join.payload_columns}
            ids = np.concatenate(
                [
                    np.arange(p.nrows, dtype=_U64) + _U64(p.start_id)
                    for p in build_table.partitions
                ]
            )
            index: dict[int, list[int]] = {}
            for pos, key in enumerate(keys.tolist()):
                index.setdefault(key, []).append(pos)
            return {"index": index, "payloads": payloads, "ids": ids}

        build = self.cluster.run_driver("join-build", build_index, metrics)
        # Broadcasting the build side to every worker costs shuffle volume.
        build_bytes = 16 * len(build["index"]) + sum(
            a.nbytes if a.dtype != object else 256 * len(a)
            for a in build["payloads"].values()
        )
        metrics.shuffles.append((build_bytes, 0))
        return build

    # -- flat aggregation -------------------------------------------------------

    def _execute_flat(
        self,
        q: ServerQuery,
        parts: list[Partition],
        skipped: int,
        build: dict[str, Any] | None,
        metrics: JobMetrics,
        final: bool,
    ) -> ServerResponse:
        # The broadcast build side rides every partition call (its volume
        # is accounted in _prepare_join).  ``parts`` already excludes
        # zone-map-pruned partitions.
        calls = [(part, q, build) for part in parts]
        partials, stage = self.cluster.map_stage(
            "aggregate", flat_map_task, calls, metrics
        )
        stage.partitions_total = len(parts) + skipped
        stage.partitions_skipped = skipped
        partials = [p for p in partials if p is not None]
        flat, id_sets = self.cluster.run_driver(
            "merge" if final else "partial-merge",
            lambda: _merge_flat(q, partials, final),
            metrics,
        )
        payloads = flat.values() if final else itertools.chain.from_iterable(flat.values())
        return ServerResponse(
            kind="flat" if final else "partial", flat=flat, id_sets=id_sets,
            payload_bytes=row_set_nbytes(payloads, id_sets),
        )

    # -- shard-worker partial aggregation ---------------------------------------

    def execute_partial(self, q: ServerQuery) -> ServerResponse:
        """Execute ``q`` but stop before the final merge (shard workers).

        A shard worker runs this against its local slice of the table and
        returns per-aggregate *piece lists* plus the shard's ID chunks;
        the coordinator concatenates both from every shard and applies
        the one final :func:`merge_payloads` per aggregate, so the merged
        result is bit-identical to single-store execution
        (:func:`_merge_flat` says what is pre-merged node-side).  The
        shard's "client" is the coordinator: gathering the partials
        crosses the cluster network once per shard.

        A grouped partial is one :func:`merge_groups` over the map
        outputs, with no shuffle: every groupable column is associative,
        so the coordinator's merge of the shards' row sets is the reduce.
        """
        return self._execute_query(q, final=False)

    # -- grouped aggregation ------------------------------------------------------

    def _execute_grouped(
        self,
        q: ServerQuery,
        parts: list[Partition],
        skipped: int,
        build: dict[str, Any] | None,
        metrics: JobMetrics,
        final: bool,
    ) -> ServerResponse:
        calls = [(part, q, build) for part in parts]
        map_out, stage = self.cluster.map_stage(
            "group-map", grouped_map_task, calls, metrics
        )
        stage.partitions_total = len(parts) + skipped
        stage.partitions_skipped = skipped
        partials = [p for p in map_out if p is not None] or [empty_groups(q.aggs)]
        if not final:
            groups = self.cluster.run_driver(
                "partial-merge", lambda: merge_groups(partials, q.aggs), metrics
            )
            return ServerResponse(kind="grouped", groups=groups, payload_bytes=groups.nbytes())

        # The single store keeps its reducers rather than the shard worker's
        # one serial ``partial-merge``: on BDB Q2A (30k visits, 32 cores,
        # 512-bit Paillier) that merge took Paillier's modelled server time
        # 16.6 -> 52.7 ms and Paillier/Seabed from 6.0x to ~39x, against Fig
        # 9b-c's narrow gap.  Reducers won at every group count measured.
        def shuffle() -> tuple[GroupedRows, dict[str, list[IdPiece]], np.ndarray]:
            # One sort by key over every partition's row-set columns:
            # each row set's partials become adjacent, in partition
            # order; the ID pieces stay at the driver.
            rows, ids = GroupedRows.shuffle(partials)
            return rows, ids, np.append(rows.run_starts(), len(rows))

        rows, ids, bounds = self.cluster.run_driver("shuffle-partition", shuffle, metrics)
        # Shuffle: every partial's row-set columns cross the network once;
        # few distinct keys mean few active receivers.
        distinct = len(bounds) - 1
        reducers = max(1, min(self.cluster.config.cores, distinct))
        metrics.shuffles.append((sum(p.nbytes(ids=False) for p in partials), reducers))
        # Range partitioning: each reducer merges a contiguous run of keys.
        cuts = bounds[np.arange(reducers + 1) * distinct // reducers].tolist()
        reduce_calls = [(rows.slice(lo, hi), q.aggs) for lo, hi in zip(cuts[:-1], cuts[1:])]
        reduced, _ = self.cluster.map_stage(
            "group-reduce", group_reduce_task, reduce_calls, metrics
        )
        groups = GroupedRows.concat(reduced)
        groups.ids = ids
        return ServerResponse(kind="grouped", groups=groups, payload_bytes=groups.nbytes())


# ---------------------------------------------------------------------------
# Per-operator partials and merges
# ---------------------------------------------------------------------------


def _flat_partial(
    agg: AggOp,
    columns: dict[str, np.ndarray],
    mask: np.ndarray | None,
    part: Partition,
    probe_idx: np.ndarray | None,
) -> Any:
    if isinstance(agg, AsheSum):
        cipher = columns[agg.column]
        selected = cipher if mask is None else cipher[mask]
        if selected.size == 0:
            return None
        # Summed in the column's own dtype (a uint32 indicator wraps mod
        # 2^32, which its decryption reduces to anyway).
        return ("ashe", int(np.add.reduce(selected, dtype=selected.dtype)))
    if isinstance(agg, PlainAgg):
        return _plain_partial(agg, columns, mask)
    if isinstance(agg, PaillierSum):
        cipher = columns[agg.column]
        selected = cipher if mask is None else cipher[mask]
        if len(selected) == 0:
            return None
        total = 1
        n2 = agg.n_squared
        for c in selected.tolist():
            total = (total * c) % n2
        return ("paillier", total)
    if isinstance(agg, (OreExtreme, OreMedian)):
        nrows = len(columns[agg.ore_column])
        sel = np.arange(nrows) if mask is None else np.flatnonzero(mask)
        if sel.size == 0:
            return None
        cipher = columns[agg.ore_column][sel]
        if isinstance(agg, OreMedian):
            return (
                "median_gather",
                cipher,
                columns[agg.payload_column][sel],
                _ids_at(part, probe_idx, sel),
            )
        winner = ore_mod.argextreme_packed(cipher, agg.kind)
        row = sel[winner : winner + 1]
        return (
            "extreme",
            _coerce_payload(columns[agg.payload_column][row[0]]),
            int(_ids_at(part, probe_idx, row)[0]),
            tuple(int(w) for w in cipher[winner]),
        )
    raise ExecutionError(f"unknown aggregation op {type(agg).__name__}")


def _coerce_payload(payload: Any) -> Any:
    if isinstance(payload, np.generic):
        return payload.item()
    return payload


def _plain_partial(
    agg: PlainAgg, columns: dict[str, np.ndarray], mask: np.ndarray | None
) -> Any:
    if agg.func == "count":
        if mask is None:
            nrows = len(next(iter(columns.values())))
            return ("plain", nrows)
        return ("plain", int(mask.sum()))
    values = columns[agg.column]
    selected = values if mask is None else values[mask]
    if len(selected) == 0:
        return None
    if agg.func == "sum":
        return ("plain", int(selected.sum()))
    if agg.func == "sumsq":
        sel64 = selected.astype(np.int64)
        return ("plain", int((sel64 * sel64).sum()))
    if agg.func == "min":
        return ("plain", _coerce_payload(selected.min()))
    if agg.func == "max":
        return ("plain", _coerce_payload(selected.max()))
    if agg.func == "median":
        return ("median_gather_plain", selected)
    raise ExecutionError(f"unknown plain aggregation {agg.func!r}")


def _ore_quickselect(
    cipher: np.ndarray, payloads: np.ndarray, row_ids: np.ndarray, k: int
) -> tuple[Any, int]:
    """k-th smallest (0-based) by ORE order; returns (payload, row_id)."""
    while True:
        n = cipher.shape[0]
        if n == 1:
            return _coerce_payload(payloads[0]), int(row_ids[0])
        pivot = cipher[n // 2]
        cmp = ore_mod.compare_packed_arrays(cipher, pivot)
        less = cmp < 0
        equal = cmp == 0
        n_less = int(less.sum())
        n_equal = int(equal.sum())
        if k < n_less:
            keep = less
        elif k < n_less + n_equal:
            # The k-th element ties with the pivot; all candidates in the
            # equal partition are interchangeable (identical plaintexts).
            first = int(np.flatnonzero(equal)[0])
            return _coerce_payload(payloads[first]), int(row_ids[first])
        else:
            keep = cmp > 0
            k -= n_less + n_equal
        cipher = cipher[keep]
        payloads = payloads[keep]
        row_ids = row_ids[keep]


# Payload tags whose final merge is NOT associative: merging a subset
# changes the tag (gather -> final), so shard workers must ship these
# pieces raw and let the coordinator merge exactly once.  Everything else
# ("ashe", "plain" folds, "paillier", "extreme") pre-merges node-side.
_GATHER_TAGS = frozenset({"median_gather", "median_gather_plain"})


def merge_payloads(agg: AggOp, pieces: list[Any]) -> Any:
    """Merge partial payloads of one aggregate (driver- and client-side)."""
    if not pieces:
        return None
    if isinstance(agg, AsheSum):
        total = 0
        for p in pieces:
            total = (total + p[1]) & MASK64
        return ("ashe", total)
    if isinstance(agg, PlainAgg):
        if pieces[0][0] == "median_gather_plain":
            values = np.concatenate([p[1] for p in pieces])
            return ("plain", float(np.median(values)))
        values = [p[1] for p in pieces]
        if agg.func in ("sum", "sumsq", "count"):
            return ("plain", sum(values))
        if agg.func == "min":
            return ("plain", min(values))
        if agg.func == "max":
            return ("plain", max(values))
        raise ExecutionError(f"cannot merge plain aggregation {agg.func!r}")
    if isinstance(agg, PaillierSum):
        total = 1
        for p in pieces:
            total = (total * p[1]) % agg.n_squared
        return ("paillier", total)
    if isinstance(agg, OreExtreme):
        best = pieces[0]
        for p in pieces[1:]:
            cmp = ore_mod.OreScheme.compare_words(p[3], best[3])
            if (agg.kind == "max" and cmp > 0) or (agg.kind == "min" and cmp < 0):
                best = p
        return ("extreme", best[1], best[2], best[3])
    if isinstance(agg, OreMedian):
        cipher = np.vstack([p[1] for p in pieces])
        payloads = np.concatenate([p[2] for p in pieces])
        row_ids = np.concatenate([p[3] for p in pieces])
        k = (cipher.shape[0] - 1) // 2
        payload, row = _ore_quickselect(cipher, payloads, row_ids, k)
        return ("extreme", _coerce_payload(payload), row, ())
    raise ExecutionError(f"unknown aggregation op {type(agg).__name__}")


def _group_values(
    agg: AggOp, columns: dict[str, np.ndarray], sorted_sel: np.ndarray, starts: np.ndarray
) -> np.ndarray:
    """One partition's per-group column for ``agg``: its reducer over each
    group's run of the rows sorted by group."""
    reduce = _group_reducer(agg)
    if isinstance(agg, PlainAgg) and agg.func == "count":
        return reduce(np.ones(sorted_sel.size, dtype=np.int64), starts)
    values = columns[agg.column][sorted_sel]
    if isinstance(agg, PlainAgg) and agg.func == "sumsq":
        values = values.astype(np.int64) ** 2
    if isinstance(agg, AsheSum):  # a uint32 indicator's sums, widened
        return reduce(values, starts).astype(_U64, copy=False)
    return reduce(values, starts)


_PLAIN_REDUCERS = {"count": np.add.reduceat, "sum": np.add.reduceat,
                   "sumsq": np.add.reduceat, "min": np.minimum.reduceat,
                   "max": np.maximum.reduceat}


def _paillier_products(cipher: np.ndarray, starts: np.ndarray, n2: int) -> np.ndarray:
    out = np.empty(starts.size, dtype=object)
    for g, run in enumerate(np.split(cipher, starts[1:])):
        out[g] = functools.reduce(lambda total, c: total * c % n2, run.tolist(), 1)
    return out


def _group_reducer(agg: AggOp) -> Any:
    """``reduce(column, run_starts)`` for a groupable aggregate: uint64
    ``np.add.reduceat`` wraps like ``MASK64``, so ASHE sums merge exactly."""
    if isinstance(agg, AsheSum):
        return np.add.reduceat
    if isinstance(agg, PlainAgg) and agg.func in _PLAIN_REDUCERS:
        return _PLAIN_REDUCERS[agg.func]
    if isinstance(agg, PaillierSum):
        return functools.partial(_paillier_products, n2=agg.n_squared)
    name = f"plain {agg.func}" if isinstance(agg, PlainAgg) else type(agg).__name__
    raise ExecutionError(f"{name} is not supported inside GROUP BY")
