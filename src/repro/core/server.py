"""The untrusted Seabed server (paper Section 4.5).

Executes rewritten queries over encrypted tables on the simulated cluster.
Everything here operates on public material only: ciphertext columns,
DET/ORE comparison tokens, and row identifiers.  No key ever reaches this
module.

Supported physical operations:

- filter evaluation over plaintext, DET-token and ORE-token predicates;
  a stored partition's DET columns are dictionary-coded
  (:mod:`repro.engine.store`), so DET equality looks its tokens up in the
  partition's dictionary once and compares narrow codes, and GROUP BY on
  such a column groups its codes (the keys that ship are the tokens);
- one reply form: every aggregation reply is the request's row sets as
  columns (:class:`~repro.core.grouped.GroupedRows`) from map task to
  reply -- one row set per group key, or without GROUP BY the one row set
  of the whole selection, whose key and codes are implied and never ship;
- ASHE aggregation: sums wrapping in the column's dtype (uint32 SPLASHE
  indicators), carried as uint64 columns, plus ID-list construction.  The
  ID list belongs to the *selected row set*, not to a column: it is built
  and encoded once per partition per ID source (:data:`ROW_IDS`;
  :data:`BUILD_IDS` under a join) and travels once per row set, beside
  the aggregates and never inside them -- compressed at the workers by
  default or at the driver for the ablation (Section 4.5, "Reducing
  server-to-client traffic").  Under GROUP BY a code column names each
  ID's group -- the server already learns each row's group from the DET
  key column;
- plain and Paillier aggregation for the NoEnc / CryptDB-style baselines;
- ORE min/max via a vectorised pairwise tournament and median via
  quickselect, using only the public Compare: the two kinds with no
  columnar merge, carried in the reply's ``side`` field;
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
import logging
import time
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

import numpy as np

from repro.core.grouped import GroupedRows, IdPiece, code_dtype
from repro.crypto import ore as ore_mod
from repro.crypto.kernel import observe_kernel_op
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


def _det_mask(col: np.ndarray, dictionary: np.ndarray | None,
              tokens: Sequence[int], nrows: int) -> np.ndarray:
    """Rows whose DET token is one of ``tokens``.  A coded column (its
    ``dictionary`` given) looks the tokens up once and compares narrow
    codes; a token absent from the dictionary matches no row."""
    col = np.asarray(col)
    if dictionary is None:
        values = [_U64(t) for t in tokens]
    else:
        at = dictionary.searchsorted(np.asarray(tokens, dtype=_U64)).tolist()
        values = [col.dtype.type(c) for c, t in zip(at, tokens)
                  if c < dictionary.size and dictionary[c] == t]
    if len(values) == 1:
        return col == values[0]
    mask = np.zeros(nrows, dtype=bool)
    for value in values:
        mask |= col == value
    return mask


def eval_filter(columns: dict[str, np.ndarray], expr: FilterExpr | None,
                nrows: int, dictionaries: dict[str, np.ndarray] | None = None,
                ) -> np.ndarray | None:
    """Boolean mask (or None for select-all).  ``dictionaries`` names the
    coded columns (:class:`~repro.engine.table.Partition`): ``columns``
    holds their codes."""
    if expr is None:
        return None
    if isinstance(expr, PlainCmp):
        return np.asarray(_PLAIN_OPS[expr.op](columns[expr.column], expr.value),
                          dtype=bool)
    if isinstance(expr, (DetEq, DetIn)):
        tokens = (expr.token,) if isinstance(expr, DetEq) else expr.tokens
        t0 = time.perf_counter() if _obs_metrics.enabled() else 0.0
        mask = _det_mask(columns[expr.column], (dictionaries or {}).get(expr.column),
                         tokens, nrows)
        if t0:
            observe_kernel_op("det", "compare_column",
                              time.perf_counter() - t0, nrows * len(tokens))
        return ~mask if isinstance(expr, DetEq) and expr.negate else mask
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
            sub = eval_filter(columns, child, nrows, dictionaries)
            if sub is not None:
                mask = sub if mask is None else mask & sub
                if not mask.any():
                    break
        return mask
    if isinstance(expr, FilterOr):
        mask = np.zeros(nrows, dtype=bool)
        for child in expr.children:
            sub = eval_filter(columns, child, nrows, dictionaries)
            if sub is None:
                return None
            mask |= sub
        return mask
    if isinstance(expr, FilterNot):
        sub = eval_filter(columns, expr.child, nrows, dictionaries)
        return np.zeros(nrows, dtype=bool) if sub is None else ~sub
    raise ExecutionError(f"unknown filter node {type(expr).__name__}")


# ---------------------------------------------------------------------------
# Aggregation operators
# ---------------------------------------------------------------------------


#: ID sources: whose row identifiers an ASHE column's pads are keyed by.
ROW_IDS = "rows"  # the query table's selected rows
BUILD_IDS = "build"  # the join build side's rows, once per match (a multiset)

#: Codec of a run-coded ID chunk (Section 4.5).
ID_CODEC = "seabed"


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


@dataclass
class ServerResponse:
    """What travels back to the proxy.

    An aggregation reply sets ``groups``, the request's row sets as
    columns -- one per group key; without GROUP BY the one row set of the
    whole selection, or none when no row is selected.  A value column per
    alias (wrapped uint64 ASHE sums, plain values, Paillier products), per
    ID source the row sets' IDs, once, and ORE extremes and median
    gathers in ``groups.side``.  A scan's ``projection`` holds the
    projected ``columns`` and row ``ids``.
    """

    groups: GroupedRows | None = None
    projection: dict[str, Any] = field(default_factory=dict)
    metrics: JobMetrics = field(default_factory=JobMetrics)
    payload_bytes: int = 0


def grouped_reply(groups: GroupedRows, metrics: JobMetrics) -> ServerResponse:
    """An aggregation reply, its bytes on the network counted into
    ``metrics``: the row sets' columns and ID pieces, plus each side
    piece -- an ORE extreme's payload, row ID and ORE words, else one
    value."""
    payload_bytes = groups.nbytes() + sum(
        16 + 8 * len(p[3]) if p[0] == "extreme" else 8
        for pieces in groups.side.values() for p in pieces)
    metrics.result_bytes += payload_bytes
    return ServerResponse(groups=groups, metrics=metrics, payload_bytes=payload_bytes)


def id_sources(aggs: Iterable[AggOp]) -> list[str]:
    """The ID sources the request's ASHE aggregates decrypt with."""
    return list(dict.fromkeys(a.id_source for a in aggs if isinstance(a, AsheSum)))


def is_side(agg: AggOp) -> bool:
    """ORE extremes and medians: no columnar merge, so they ride in
    :attr:`GroupedRows.side` (and only without GROUP BY)."""
    return isinstance(agg, (OreExtreme, OreMedian)) or (
        isinstance(agg, PlainAgg) and agg.func == "median")


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
# A map task's partial is its partition's row sets as columns
# (:class:`GroupedRows`): one value column per alias, which the driver's
# merge (or the shuffle and the reducers) merges, and per ID source the
# chunk of the partition's selection -- under GROUP BY with a code per ID
# -- which goes to the driver.
# ---------------------------------------------------------------------------


def scan_map_task(
    part: Partition, columns: tuple[str, ...], filt: FilterExpr | None
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Filtered projection of one partition: selected columns + row IDs."""
    mask = eval_filter(part.columns, filt, part.nrows, part.dictionaries)
    ids = np.arange(part.nrows, dtype=_U64) + _U64(part.start_id)
    if mask is None:
        return {c: part.column(c) for c in columns}, ids
    return {c: part.column(c, mask) for c in columns}, ids[mask]


def probe_join(
    part: Partition, q: ServerQuery, build: dict[str, Any]
) -> tuple[dict[str, np.ndarray], np.ndarray] | None:
    """Probe one partition against the broadcast build index.

    Returns (joined columns, probe-row selector) or None if empty.
    """
    join = q.join
    assert join is not None
    keys, starts, rows = build["keys"], build["starts"], build["rows"]
    probe_keys = part.column(join.probe_key_column)
    at = np.minimum(np.searchsorted(keys, probe_keys), max(keys.size - 1, 0))
    hits = np.flatnonzero(keys[at] == probe_keys) if keys.size else at[:0]
    if not hits.size:
        return None
    # Each hit probe row once per build row of its key, in build-row order.
    counts = (np.append(starts[1:], rows.size) - starts)[at[hits]]
    probe_idx = np.repeat(hits, counts).astype(np.int64)
    ends = np.cumsum(counts)
    build_idx = rows[np.repeat(starts[at[hits]] - ends + counts, counts) + np.arange(ends[-1])]
    columns = {name: part.column(name, probe_idx) for name in part.columns}
    for name, arr in build["payloads"].items():
        columns[name] = arr[build_idx]
    columns[JOIN_IDS_COLUMN] = build["ids"][build_idx]
    return columns, probe_idx


def _ids_at(part: Partition, probe_idx: np.ndarray | None, sel: np.ndarray) -> np.ndarray:
    """Global row IDs of the view rows ``sel``."""
    pos = sel if probe_idx is None else probe_idx[sel]
    return pos.astype(_U64) + _U64(part.start_id)


def _id_chunk(
    source: str,
    part: Partition,
    columns: dict[str, np.ndarray],
    mask: np.ndarray | None,
    probe_idx: np.ndarray | None,
    raw: bool,
) -> Any:
    """The selected rows' IDs under one source as one encoded chunk
    (``raw``: the :class:`IdList` itself, which the
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
            return encode_multiset(arr)
        ids = IdList.from_ids(arr)
    return ids if raw else get_codec(ID_CODEC).encode(ids)


def aggregate_task(
    part: Partition, q: ServerQuery, build: dict[str, Any] | None
) -> GroupedRows | None:
    """One partition's row sets as columns (``None``: no row selected):
    one per group key, or without GROUP BY the one row set of its whole
    selection, whose key and codes are implied.  The selected rows' IDs
    are built and encoded once per source, whatever the number of ASHE
    aggregates; under GROUP BY each ID gets its row set's code."""
    # Without a join, view row j is partition row j (probe_idx None) and
    # coded columns stay codes; a join view holds every column's values.
    view = (part.columns, None) if build is None else probe_join(part, q, build)
    if view is None:
        return None
    columns, probe_idx = view
    dictionaries = part.dictionaries if build is None else {}
    nrows = part.nrows if probe_idx is None else len(probe_idx)
    mask = eval_filter(columns, q.filter, nrows, dictionaries)
    if q.group_by is None:
        count = nrows if mask is None else int(np.count_nonzero(mask))
        if count == 0:
            return None
        rows = slice(None) if mask is None else mask
        keys, starts, codes = None, np.zeros(1, dtype=np.intp), {}
    else:
        # Unfiltered, the whole columns group as they are (no gather).
        sel = slice(None) if mask is None else np.flatnonzero(mask)
        count = nrows if mask is None else sel.size
        if count == 0:
            return None
        # Group the rows by key; the order of a group's rows does not
        # matter, its IDs travel in the partition's chunk.
        key, dictionary = np.asarray(columns[q.group_by])[sel], dictionaries.get(q.group_by)
        keys, starts, order, code = (
            _group_sorted(key) if dictionary is None else _group_coded(key, dictionary))
        rows = order if mask is None else sel[order]
        codes = {source: code for source in id_sources(q.aggs)}
        if BUILD_IDS in codes:  # a build-side multiset chunk decodes its IDs sorted
            codes[BUILD_IDS] = code[np.argsort(columns[JOIN_IDS_COLUMN][sel], kind="stable")]
    values, side = {}, {}
    for agg in q.aggs:
        if q.group_by is None and is_side(agg):
            side[agg.alias] = [_side_piece(agg, columns, mask, part, probe_idx)]
        else:
            values[agg.alias] = _group_values(agg, columns, rows, starts, count)
    raw = q.compress_at == "driver" and q.group_by is None
    ids = {
        source: [IdPiece(_id_chunk(source, part, columns, mask, probe_idx, raw),
                         codes.get(source))]
        for source in id_sources(q.aggs)
    }
    return GroupedRows(keys, values, ids, side)


def _group_sorted(key: np.ndarray) -> tuple[np.ndarray, ...]:
    """Group rows by their values with one sort: (sorted distinct keys,
    each key's first position in ``order``, ``order``, each row's
    group index)."""
    key = key.astype(_U64, copy=False)
    order = np.argsort(key)
    key = key[order]
    first = np.append(True, key[1:] != key[:-1])
    keys = key[first]
    code = np.empty(key.size, dtype=code_dtype(keys.size))
    code[order] = np.cumsum(first) - 1
    return keys, np.flatnonzero(first), order, code


def _group_coded(codes: np.ndarray, dictionary: np.ndarray) -> tuple[np.ndarray, ...]:
    """:func:`_group_sorted` over a coded column's narrow codes: a
    counting pass finds the present codes (their tokens, in dictionary
    order, are the sorted keys), and a stable -- radix, at 8 and 16 bits
    -- argsort of the codes orders the rows.  The counting pass replaces
    the sort's gather, run detection and per-row scatter, which take as
    long again as the argsort: this is about half the time of
    :func:`_group_sorted` over the same codes."""
    counts = np.bincount(codes, minlength=dictionary.size)
    present = counts > 0
    counts = counts[present]
    keys = dictionary[present]
    if keys.size == dictionary.size:  # every code present: no renumbering
        code = codes.astype(code_dtype(keys.size), copy=False)
    else:
        code = (np.cumsum(present) - 1).astype(code_dtype(keys.size)).take(codes)
    return keys, np.cumsum(counts) - counts, np.argsort(codes, kind="stable"), code


def group_reduce_task(rows: GroupedRows, aggs: tuple[AggOp, ...]) -> GroupedRows:
    """Merge one reducer's sorted slice of partials into one row set per
    key: one ``reduceat`` per column."""
    return rows.merge(group_reducers(aggs))


def group_reducers(aggs: Iterable[AggOp]) -> dict[str, Any]:
    """How each alias's column merges over runs of rows or of partials."""
    return {agg.alias: _group_reducer(agg) for agg in aggs if not is_side(agg)}


def empty_groups(q: ServerQuery) -> GroupedRows:
    """Row sets with no entry: nothing selected, or an empty shard."""
    return GroupedRows(None if q.group_by is None else np.empty(0, _U64), {
        a.alias: np.empty(0, object if isinstance(a, PaillierSum) else
                          _U64 if isinstance(a, AsheSum) else np.int64)
        for a in q.aggs if not is_side(a)
    }, {source: [] for source in id_sources(q.aggs)})


def merge_groups(parts: list[GroupedRows], q: ServerQuery, final: bool = True) -> GroupedRows:
    """Several partials' row sets as one, in part order within a row set.

    Raw ID lists (the ``compress_at="driver"`` ablation) are unioned and
    encoded here, as one chunk.  Side pieces merge to one per alias; a
    shard worker's merge (not ``final``) ships gathers raw, since merging
    a subset of them changes their tag (:data:`_GATHER_TAGS`)."""
    rows, ids = GroupedRows.shuffle(parts or [empty_groups(q)])
    merged = rows.merge(group_reducers(q.aggs))
    for source, pieces in ids.items():
        raw = [p.chunk for p in pieces if isinstance(p.chunk, IdList)]
        if raw:
            pieces = [p for p in pieces if not isinstance(p.chunk, IdList)]
            pieces.append(IdPiece(get_codec(ID_CODEC).encode(IdList.union_all(raw)), None))
        merged.ids[source] = pieces
    for agg in q.aggs:
        pieces = [p for part in parts for p in part.side.get(agg.alias, ())]
        if pieces and (final or pieces[0][0] not in _GATHER_TAGS):
            pieces = [merge_payloads(agg, pieces)]
        if pieces:
            merged.side[agg.alias] = pieces
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
        # The broadcast build side rides every partition call (its volume
        # is accounted in _prepare_join).  ``parts`` already excludes
        # zone-map-pruned partitions.
        calls = [(part, q, build) for part in parts]
        map_out, stage = self.cluster.map_stage(
            "aggregate" if q.group_by is None else "group-map", aggregate_task, calls, metrics
        )
        stage.partitions_total = len(parts) + skipped
        stage.partitions_skipped = skipped
        partials = [p for p in map_out if p is not None]
        if q.group_by is None or not final:
            groups = self.cluster.run_driver(
                "merge" if final else "partial-merge",
                lambda: merge_groups(partials, q, final), metrics,
            )
        else:
            groups = self._reduce_groups(q, partials, metrics)
        return grouped_reply(groups, metrics)

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
                # Every partition was pruned (or the table has none yet):
                # an empty result, with the stored dtypes if there are any.
                cols = {c: table.partitions[0].column(c)[:0] if table.partitions
                        else np.empty(0, dtype=_U64) for c in columns}
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
        response = ServerResponse(payload_bytes=payload_bytes)
        response.projection = {"columns": cols, "ids": ids}
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
            rows = np.argsort(keys, kind="stable")  # a key's build rows in row order
            keys, starts = np.unique(keys[rows], return_index=True)
            return {"keys": keys, "starts": starts, "rows": rows, "payloads": payloads,
                    "ids": ids}

        build = self.cluster.run_driver("join-build", build_index, metrics)
        # Broadcasting the build side to every worker costs shuffle volume.
        build_bytes = 16 * len(build["keys"]) + sum(
            a.nbytes if a.dtype != object else 256 * len(a)
            for a in build["payloads"].values()
        )
        metrics.shuffles.append((build_bytes, 0))
        return build

    # -- shard-worker partial aggregation ---------------------------------------

    def execute_partial(self, q: ServerQuery) -> ServerResponse:
        """Execute ``q`` but stop before the final merge (shard workers).

        A shard worker runs this against its local slice of the table and
        returns its row sets after one :func:`merge_groups` over the map
        outputs, with no shuffle: every columnar aggregate is associative,
        so the coordinator's merge of the shards' row sets is the reduce,
        and the result is bit-identical to single-store execution.  Side
        pieces are pre-merged node-side except median gathers, which ship
        raw.  The shard's "client" is the coordinator: gathering the
        partials crosses the cluster network once per shard.
        """
        return self._execute_query(q, final=False)

    # -- grouped aggregation ------------------------------------------------------

    def _reduce_groups(
        self, q: ServerQuery, partials: list[GroupedRows], metrics: JobMetrics
    ) -> GroupedRows:
        """The single store's final GROUP BY merge: a shuffle and reducers.

        The single store keeps its reducers rather than the shard worker's
        one serial ``partial-merge``: on BDB Q2A (30k visits, 32 cores,
        512-bit Paillier) that merge took Paillier's modelled server time
        16.6 -> 52.7 ms and Paillier/Seabed from 6.0x to ~39x, against Fig
        9b-c's narrow gap.  Reducers won at every group count measured.
        """
        partials = partials or [empty_groups(q)]

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
        return groups


# ---------------------------------------------------------------------------
# Per-operator partials and merges
# ---------------------------------------------------------------------------


def _side_piece(
    agg: AggOp,
    columns: dict[str, np.ndarray],
    mask: np.ndarray | None,
    part: Partition,
    probe_idx: np.ndarray | None,
) -> tuple:
    """A partition's piece of a side aggregate over a non-empty selection:
    an ORE extreme's local winner, or a median's gather."""
    if isinstance(agg, PlainAgg):
        values = columns[agg.column]
        return ("median_gather_plain", values if mask is None else values[mask])
    nrows = len(columns[agg.ore_column])
    sel = np.arange(nrows) if mask is None else np.flatnonzero(mask)
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


def _coerce_payload(payload: Any) -> Any:
    if isinstance(payload, np.generic):
        return payload.item()
    return payload


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


# Side tags whose final merge is NOT associative: merging a subset
# changes the tag (gather -> final), so shard workers must ship these
# pieces raw and let the coordinator merge exactly once.  An ORE
# extreme's local winners pre-merge node-side.
_GATHER_TAGS = frozenset({"median_gather", "median_gather_plain"})


def merge_payloads(agg: AggOp, pieces: list[Any]) -> Any:
    """Merge one side aggregate's pieces (:func:`is_side`): ORE extremes
    by the public Compare, median gathers by quickselect."""
    if isinstance(agg, OreExtreme):
        best = pieces[0]
        for p in pieces[1:]:
            cmp = ore_mod.OreScheme.compare_words(p[3], best[3])
            if (agg.kind == "max" and cmp > 0) or (agg.kind == "min" and cmp < 0):
                best = p
        return best
    if isinstance(agg, OreMedian):
        cipher = np.vstack([p[1] for p in pieces])
        payloads = np.concatenate([p[2] for p in pieces])
        row_ids = np.concatenate([p[3] for p in pieces])
        k = (cipher.shape[0] - 1) // 2
        payload, row = _ore_quickselect(cipher, payloads, row_ids, k)
        return ("extreme", _coerce_payload(payload), row, ())
    return ("plain", float(np.median(np.concatenate([p[1] for p in pieces]))))


def _group_values(
    agg: AggOp, columns: dict[str, np.ndarray], rows: Any, starts: np.ndarray, count: int
) -> np.ndarray:
    """One partition's column for ``agg``: its reducer over each row set's
    run of the ``count`` selected rows (``rows``: their positions sorted by
    group, a boolean mask or a slice)."""
    if isinstance(agg, PlainAgg) and agg.func == "count":
        return np.diff(starts, append=count).astype(np.int64, copy=False)
    reduce = _group_reducer(agg)
    # A stored column is a memmap: its plain view keeps the subclass's
    # Python hooks off every slice and reduction.
    values = np.asarray(columns[agg.column])[rows]
    if isinstance(agg, PlainAgg) and agg.func == "sumsq":
        values = values.astype(np.int64) ** 2
    if isinstance(agg, AsheSum):
        # Summed in the column's own dtype (a uint32 indicator wraps mod
        # 2^32, which its decryption reduces to anyway), then widened.
        return reduce(values, starts, dtype=values.dtype).astype(_U64, copy=False)
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
