"""Predicate-driven partition pruning over zone-map statistics.

The planner walks a *translated* server-side filter tree -- the same
DET/ORE token comparisons the scan kernels evaluate row-wise -- and
decides per partition whether any row could match, using only the
partition's zone-map artifacts.  Two dual judgements drive it:

- :func:`may_match` -- ``False`` only when **provably no** row in the
  partition satisfies the expression (the partition can be skipped);
- :func:`all_match` -- ``True`` only when **provably every** row
  satisfies it (what negation needs: ``NOT e`` can drop a partition
  exactly when ``e`` provably holds everywhere).

Conjunctions intersect per-conjunct survivor sets, disjunctions union
them, and *any* uncertainty -- missing stats, unknown node or operator
-- keeps the partition, so pruned execution is bit-identical to a full
scan.  A DET column's artifact is the partition's dictionary, its exact
distinct tokens, so DET judgements are never uncertain.  SPLASHE
equality selections never reach this tree (translation retargets them
onto splayed physical columns present in every partition); the
enhanced-SPLASHE catch-all requests arrive as ordinary ``DetEq``
conjuncts and prune like any other.

Because the planner runs on *every* query, a table's zone maps are
first **compiled** -- DET dictionaries to sorted ``uint64`` arrays (the
mapped dictionaries themselves, not copies), ORE bounds to tuples -- via
:func:`compile_zone_maps`; the server caches the compiled form per
registered table so the per-query cost is a plain tree walk (and a point
query's ``DetEq``, one lookup in the compiled form's inverted token
index).  Raw zone-map dicts are accepted everywhere and compiled on the
fly.

No key material is used anywhere: ORE bounds compare with the public
Compare, DET tokens by equality against already-visible tokens.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro.crypto.ore import OreScheme

_U64 = np.uint64
_PLAIN_OPS = ("<", "<=", ">", ">=", "=", "!=")

_SRV = None


def _srv():
    # Deferred, cached import: repro.core.server imports the store layer
    # (which imports the stats builder); resolving it lazily keeps the
    # index package cycle-free while matching on the real filter nodes.
    global _SRV
    if _SRV is None:
        from repro.core import server as srv

        _SRV = srv
    return _SRV


# ---------------------------------------------------------------------------
# Compiled per-partition artifacts
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class DetArtifact:
    """A partition's sorted distinct DET tokens (its dictionary)."""

    tokens: np.ndarray

    def membership(self, token: int) -> bool:
        """Does some row hold ``token``?"""
        at = int(self.tokens.searchsorted(_U64(token)))
        return at < self.tokens.size and int(self.tokens[at]) == token

    @property
    def sole_token(self) -> int | None:
        return int(self.tokens[0]) if self.tokens.size == 1 else None


@dataclass(frozen=True)
class RangeArtifact:
    """Min/max bounds: ORE ciphertext word tuples or plain ints."""

    kind: str  # "ore" | "plain"
    lo: Any
    hi: Any


@dataclass(frozen=True)
class PartitionStats:
    """One partition's compiled zone map."""

    rows: int
    columns: dict


def compile_partition(stats: dict | None) -> PartitionStats | None:
    """Compile one manifest stats dict into fast lookup artifacts."""
    if not stats:
        return None
    columns: dict = {}
    for name, col in stats.get("columns", {}).items():
        kind = col.get("kind")
        if kind == "det":
            columns[name] = DetArtifact(np.asarray(col["tokens"], dtype=_U64))
        elif kind == "ore":
            columns[name] = RangeArtifact(
                kind="ore",
                lo=tuple(int(w) for w in col["min"]),
                hi=tuple(int(w) for w in col["max"]),
            )
        elif kind == "plain":
            columns[name] = RangeArtifact(
                kind="plain", lo=int(col["min"]), hi=int(col["max"])
            )
    return PartitionStats(rows=int(stats.get("rows", 0)), columns=columns)


class ZoneMaps(list):
    """A table's compiled zone maps, one entry per partition, and per DET
    column an inverted index built on first use: every partition's
    dictionary concatenated and sorted once, beside the partition each
    token came from.  A point query (``DetEq``) then costs two binary
    searches and one scatter, not a judgement per partition."""

    def __init__(self, maps: list[PartitionStats | None]):
        super().__init__(maps)
        #: column -> (sorted tokens, each token's partition, keep-mask of
        #: the partitions without a dictionary for the column)
        self._det: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        self._lock = threading.Lock()  # concurrent queries build an index once

    def det_keep(self, expr: Any) -> np.ndarray:
        """The keep-mask of a positive ``DetEq`` or a ``DetIn``, as
        :func:`may_match` gives it: one lookup per token."""
        with self._lock:
            index = self._det.get(expr.column)
            if index is None:
                arts = [stats.columns.get(expr.column) if stats else None for stats in self]
                held = [i for i, art in enumerate(arts) if isinstance(art, DetArtifact)]
                tokens = np.concatenate([arts[i].tokens for i in held] or [np.empty(0, _U64)])
                owners = np.repeat(np.asarray(held, dtype=np.intp),
                                   [arts[i].tokens.size for i in held])
                order = np.argsort(tokens, kind="stable")
                unknown = np.ones(len(self), dtype=bool)
                unknown[held] = False
                index = self._det[expr.column] = (tokens[order], owners[order], unknown)
        tokens, owners, unknown = index
        keep = unknown.copy()
        for token in map(_U64, expr.tokens if hasattr(expr, "tokens") else (expr.token,)):
            keep[owners[tokens.searchsorted(token):tokens.searchsorted(token, "right")]] = True
        return keep


def compile_zone_maps(
    zone_maps: Sequence[dict | PartitionStats | None] | None,
) -> ZoneMaps | None:
    """Compile a table's zone-map list (idempotent; None passes through)."""
    if zone_maps is None:
        return None
    return ZoneMaps([
        z if isinstance(z, PartitionStats) or z is None else compile_partition(z)
        for z in zone_maps
    ])


def _as_compiled(stats: Any) -> PartitionStats | None:
    if stats is None or isinstance(stats, PartitionStats):
        return stats
    return compile_partition(stats)


# ---------------------------------------------------------------------------
# The two dual judgements
# ---------------------------------------------------------------------------


def _compare(kind: str, a: Any, b: Any) -> int:
    if kind == "ore":
        return OreScheme.compare_words(a, b)
    return (a > b) - (a < b)


def _range_value(art: RangeArtifact, expr: Any) -> Any | None:
    """The comparison value in the artifact's domain, or None if unusable."""
    if art.kind == "ore":
        return tuple(int(w) for w in expr.token)
    value = expr.value
    if not isinstance(value, (int, np.integer)):
        return None
    return int(value)


def _range_may_match(kind: str, op: str, lo: Any, hi: Any, value: Any) -> bool:
    """Could a row in [lo, hi] satisfy ``row <op> value``?"""
    if op == "<":
        return _compare(kind, lo, value) < 0
    if op == "<=":
        return _compare(kind, lo, value) <= 0
    if op == ">":
        return _compare(kind, hi, value) > 0
    if op == ">=":
        return _compare(kind, hi, value) >= 0
    if op == "=":
        return _compare(kind, lo, value) <= 0 <= _compare(kind, hi, value)
    if op == "!=":
        # Only a constant partition equal to the value excludes !=.
        return not (
            _compare(kind, lo, value) == 0 and _compare(kind, hi, value) == 0
        )
    return True


def _range_all_match(kind: str, op: str, lo: Any, hi: Any, value: Any) -> bool:
    """Does every row in [lo, hi] satisfy ``row <op> value``?"""
    if op == "<":
        return _compare(kind, hi, value) < 0
    if op == "<=":
        return _compare(kind, hi, value) <= 0
    if op == ">":
        return _compare(kind, lo, value) > 0
    if op == ">=":
        return _compare(kind, lo, value) >= 0
    if op == "=":
        return _compare(kind, lo, value) == 0 and _compare(kind, hi, value) == 0
    if op == "!=":
        return _compare(kind, value, lo) < 0 or _compare(kind, value, hi) > 0
    return False


def may_match(stats: Any, expr: Any) -> bool:
    """False only when provably no row of the partition matches."""
    srv = _srv()
    stats = _as_compiled(stats)
    if expr is None:
        return True
    if isinstance(expr, srv.DetEq):
        art = stats.columns.get(expr.column) if stats else None
        if not isinstance(art, DetArtifact):
            return True
        if expr.negate:
            # A row with a *different* token exists unless the partition
            # is constant-equal to the token.
            return art.sole_token != int(expr.token)
        return art.membership(int(expr.token))
    if isinstance(expr, srv.DetIn):
        art = stats.columns.get(expr.column) if stats else None
        if not isinstance(art, DetArtifact):
            return True
        return any(art.membership(int(token)) for token in expr.tokens)
    if isinstance(expr, (srv.OreCmp, srv.PlainCmp)):
        kind = "ore" if isinstance(expr, srv.OreCmp) else "plain"
        art = stats.columns.get(expr.column) if stats else None
        if not isinstance(art, RangeArtifact) or art.kind != kind:
            return True
        if expr.op not in _PLAIN_OPS:
            return True
        value = _range_value(art, expr)
        if value is None:
            return True
        return _range_may_match(kind, expr.op, art.lo, art.hi, value)
    if isinstance(expr, srv.FilterAnd):
        return all(may_match(stats, child) for child in expr.children)
    if isinstance(expr, srv.FilterOr):
        return any(may_match(stats, child) for child in expr.children)
    if isinstance(expr, srv.FilterNot):
        return not all_match(stats, expr.child)
    return True  # unknown node (e.g. an unbound ParamFilter): keep


def all_match(stats: Any, expr: Any) -> bool:
    """True only when provably every row of the partition matches."""
    srv = _srv()
    stats = _as_compiled(stats)
    if expr is None:
        return True
    if isinstance(expr, srv.DetEq):
        art = stats.columns.get(expr.column) if stats else None
        if not isinstance(art, DetArtifact):
            return False
        if expr.negate:
            # Absence proves every row differs.
            return not art.membership(int(expr.token))
        return art.sole_token == int(expr.token)
    if isinstance(expr, srv.DetIn):
        art = stats.columns.get(expr.column) if stats else None
        if not isinstance(art, DetArtifact):
            return False
        return bool(np.isin(art.tokens, np.asarray(expr.tokens, dtype=_U64)).all())
    if isinstance(expr, (srv.OreCmp, srv.PlainCmp)):
        kind = "ore" if isinstance(expr, srv.OreCmp) else "plain"
        art = stats.columns.get(expr.column) if stats else None
        if not isinstance(art, RangeArtifact) or art.kind != kind:
            return False
        if expr.op not in _PLAIN_OPS:
            return False
        value = _range_value(art, expr)
        if value is None:
            return False
        return _range_all_match(kind, expr.op, art.lo, art.hi, value)
    if isinstance(expr, srv.FilterAnd):
        return all(all_match(stats, child) for child in expr.children)
    if isinstance(expr, srv.FilterOr):
        return any(all_match(stats, child) for child in expr.children)
    if isinstance(expr, srv.FilterNot):
        return not may_match(stats, expr.child)
    return False  # unknown node: cannot prove anything


# ---------------------------------------------------------------------------
# Table-level entry points
# ---------------------------------------------------------------------------


def survivors(
    zone_maps: Sequence[dict | PartitionStats | None] | None, filt: Any
) -> np.ndarray | None:
    """Boolean keep-mask over partitions, or ``None`` when the index
    cannot prune (no filter, or no partition has statistics)."""
    if filt is None or zone_maps is None:
        return None
    if not any(zone_maps):
        return None
    return _keep(zone_maps, filt)


def _keep(zone_maps: Sequence[Any], expr: Any) -> np.ndarray:
    """:func:`may_match` over every partition.  On compiled
    :class:`ZoneMaps` a positive ``DetEq`` or a ``DetIn`` -- alone, or as a
    conjunct -- is one index lookup per token, and the other conjuncts are
    judged only on the partitions it keeps."""
    srv = _srv()
    if isinstance(zone_maps, ZoneMaps):
        conjuncts = expr.children if isinstance(expr, srv.FilterAnd) else (expr,)
        point = next((c for c in conjuncts if isinstance(c, srv.DetIn)
                      or isinstance(c, srv.DetEq) and not c.negate), None)
        if point is not None:
            keep = zone_maps.det_keep(point)
            rest = [c for c in conjuncts if c is not point]
            for i in np.flatnonzero(keep).tolist() if rest else ():
                keep[i] = all(may_match(zone_maps[i], c) for c in rest)
            return keep
    return np.asarray([may_match(stats, expr) for stats in zone_maps], dtype=bool)


def extreme_candidates(
    zone_maps: Sequence[dict | PartitionStats | None] | None,
    aggs: Sequence[Any],
) -> np.ndarray | None:
    """Keep-mask for an *unfiltered* request whose aggregates are all ORE
    min/max: only partitions whose zone-map bound ties the global winner
    can host it, so the tournament skips the rest.  Tie partitions are
    all kept in order, which preserves the exact winning row (and its
    ID) the unpruned merge would pick.  ``None`` when any needed bound
    is missing.
    """
    srv = _srv()
    if zone_maps is None or not aggs:
        return None
    if not all(isinstance(a, srv.OreExtreme) for a in aggs):
        return None
    compiled = [_as_compiled(z) for z in zone_maps]
    keep = np.zeros(len(compiled), dtype=bool)
    for agg in aggs:
        bounds: list[tuple[int, ...]] = []
        for stats in compiled:
            art = stats.columns.get(agg.ore_column) if stats else None
            if not isinstance(art, RangeArtifact) or art.kind != "ore":
                return None  # a partition without bounds could win: no pruning
            bounds.append(art.lo if agg.kind == "min" else art.hi)
        best = bounds[0]
        for bound in bounds[1:]:
            cmp = OreScheme.compare_words(bound, best)
            if (agg.kind == "min" and cmp < 0) or (agg.kind == "max" and cmp > 0):
                best = bound
        for i, bound in enumerate(bounds):
            if OreScheme.compare_words(bound, best) == 0:
                keep[i] = True
    return keep
