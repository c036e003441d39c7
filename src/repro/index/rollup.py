"""Shard-level zone-map rollups: one stats dict summarising a whole store.

The sharded execution tier (:mod:`repro.shard`) prunes at a coarser
granularity than partitions: before scattering a query, the coordinator
asks *per shard* whether any row could match, using a single rolled-up
zone map per shard store.  This module merges a store's per-partition
statistics (:mod:`repro.index.zonemap`) into one dict **in the same
schema**, so the rollup flows through the existing pruning judgements
(:func:`repro.index.prune.may_match`) unchanged.

Merging is conservative, mirroring the pruning contract:

- **ORE / plain columns**: the widest [min, max] envelope across
  partitions (ORE bounds compared with the public Compare).
- **DET columns**: the exact union of the partitions' dictionaries, a
  sorted token array of any size.
- Any partition **without** statistics poisons the whole rollup
  (``None``): rows the index never saw could match anything.

Leakage: a rollup is a pure function of the per-partition stats, which
are themselves recomputable from stored ciphertexts, so the shard tier
adds nothing beyond the DET/ORE baseline the zone maps already audit.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.crypto.ore import OreScheme

_U64 = np.uint64


def _merge_ore(entries: list[dict[str, Any]]) -> dict[str, Any]:
    lo = tuple(int(w) for w in entries[0]["min"])
    hi = tuple(int(w) for w in entries[0]["max"])
    for col in entries[1:]:
        cand_lo = tuple(int(w) for w in col["min"])
        cand_hi = tuple(int(w) for w in col["max"])
        if OreScheme.compare_words(cand_lo, lo) < 0:
            lo = cand_lo
        if OreScheme.compare_words(cand_hi, hi) > 0:
            hi = cand_hi
    return {"kind": "ore", "min": list(lo), "max": list(hi)}


def _merge_plain(entries: list[dict[str, Any]]) -> dict[str, Any]:
    return {
        "kind": "plain",
        "min": min(int(col["min"]) for col in entries),
        "max": max(int(col["max"]) for col in entries),
    }


def _merge_det(entries: list[dict[str, Any]]) -> dict[str, Any]:
    tokens = [np.asarray(col["tokens"], dtype=_U64) for col in entries]
    return {"kind": "det", "tokens": np.unique(np.concatenate(tokens))}


def rollup_zone_maps(
    zone_maps: Sequence[dict[str, Any] | None] | None,
) -> dict[str, Any] | None:
    """Merge per-partition stats dicts into one shard-level stats dict.

    The result has the schema of one partition's zone map
    (:func:`repro.index.zonemap.join_dictionaries`), so it can be fed
    straight into :func:`repro.index.prune.may_match` (and friends) as if
    it described one giant partition.  Returns ``None`` when nothing can
    be asserted: no partitions, or any partition without statistics.
    """
    if not zone_maps:
        return None
    covered: list[dict[str, Any]] = []
    for stats in zone_maps:
        if stats is None:
            return None
        covered.append(stats)
    rows = sum(int(z.get("rows", 0)) for z in covered)
    nulls = sum(int(z.get("nulls", 0)) for z in covered)
    # Only columns bounded in *every* non-empty partition can be rolled
    # up; a single uncovered partition could hold the matching row.
    nonempty = [z for z in covered if int(z.get("rows", 0)) > 0]
    columns: dict[str, Any] = {}
    if nonempty:
        names = set(nonempty[0].get("columns", {}))
        for z in nonempty[1:]:
            names &= set(z.get("columns", {}))
        for name in sorted(names):
            entries = [z["columns"][name] for z in nonempty]
            kinds = {col.get("kind") for col in entries}
            if len(kinds) != 1:
                continue
            kind = kinds.pop()
            if kind == "ore":
                columns[name] = _merge_ore(entries)
            elif kind == "plain":
                columns[name] = _merge_plain(entries)
            elif kind == "det":
                columns[name] = _merge_det(entries)
    return {"rows": rows, "nulls": nulls, "columns": columns}
