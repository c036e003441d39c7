"""Per-partition zone-map statistics, computed from ciphertexts only.

The builder sees exactly what the untrusted server sees -- the stored
column arrays.  A partition's zone map holds:

- **ORE columns** (2-D uint64 trit words): the partition's min and max
  *ciphertexts*, found with the public Compare.  Both are rows of the
  stored column; publishing them reveals nothing beyond the ORE
  baseline (order among ciphertexts is already public).
- **DET token columns** (1-D uint64, ``*__det``): the partition's
  dictionary.  A stored partition keeps each such column
  dictionary-coded (:mod:`repro.engine.store`), and its dictionary is
  the sorted array of the distinct tokens the column holds -- exact,
  and nothing the column does not already show.  It lives in the
  partition file, not in the manifest: :func:`join_dictionaries` adds
  it to the persisted stats as ``{"kind": "det", "tokens": dictionary}``
  when a snapshot is opened.
- **Plain columns** (1-D int64 / bool): plaintext min/max -- the values
  are stored in the clear, so their bounds leak nothing new.
- **Row and null counts** per partition (columns are dense numpy
  arrays, so nulls are structurally zero; the field exists so a future
  nullable layout keeps the same stats shape).

ASHE and Paillier ciphertext columns are *deliberately not indexed*:
they are semantically secure, every useful statistic about them would
have to come from plaintext knowledge, and the leakage auditor
(:func:`repro.attacks.frequency.audit_zone_maps`) treats any artifact
that cannot be recomputed from the stored ciphertexts as a violation.
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from repro.crypto import ore as ore_mod

_U64 = np.uint64

#: Physical-column name suffix of DET token columns (see
#: :func:`repro.core.schema.det_col`).
DET_SUFFIX = "__det"


def _ore_extreme_row(cipher: np.ndarray, kind: str) -> np.ndarray:
    """The min/max ciphertext row by the public ORE Compare (the shared
    vectorised kernel tournament, same code path as server aggregation)."""
    arr = np.asarray(cipher, dtype=_U64)
    return arr[ore_mod.argextreme_packed(arr, kind)]


def _ore_stats(arr: np.ndarray) -> dict[str, Any]:
    return {
        "kind": "ore",
        "min": [int(w) for w in _ore_extreme_row(arr, "min")],
        "max": [int(w) for w in _ore_extreme_row(arr, "max")],
    }


def _plain_stats(arr: np.ndarray) -> dict[str, Any]:
    return {"kind": "plain", "min": int(arr.min()), "max": int(arr.max())}


def classify_column(name: str, spec: Mapping[str, Any]) -> str | None:
    """Which stats kind (``ore``/``det``/``plain``) a stored column gets.

    Classification is structural (dtype spec + the ``__det`` naming
    convention) so it works on any readable manifest version; the
    ``enc`` metadata newer manifests carry must agree with it, which the
    leakage auditor double-checks.
    """
    dtype = spec.get("dtype")
    ndim = int(spec.get("ndim", 1))
    enc = spec.get("enc")
    if enc in ("ashe", "paillier"):
        # Semantically secure ciphertexts: indexing them is both useless
        # and, if an artifact *did* discriminate, a leak.  (Older
        # manifests recorded the plan kind here, under which an ORE or
        # DET companion column of an ASHE measure also says "ashe" --
        # the structural rules below still classify those correctly.)
        if not (dtype == "<u8" and ndim == 2) and not name.endswith(DET_SUFFIX):
            return None
    if dtype == "<u8" and ndim == 2:
        return "ore"
    if dtype == "<u8" and ndim == 1 and name.endswith(DET_SUFFIX):
        return "det"
    if dtype in ("<i8", "|b1") and ndim == 1:
        return "plain"
    return None


def build_partition_stats(
    part: Any, column_specs: Mapping[str, Mapping[str, Any]]
) -> dict[str, Any]:
    """The zone-map statistics a store persists for one partition: ORE
    and plain bounds and the row count (a DET column's artifact is its
    dictionary, see :func:`join_dictionaries`).

    ``part`` is a :class:`repro.engine.table.Partition`;
    ``column_specs`` is the store manifest's ``columns`` mapping
    (dtype/ndim/width per column).  The result is JSON-serialisable and
    fully determined by the ciphertext column contents -- the
    recomputability the leakage audit relies on.
    """
    columns: dict[str, Any] = {}
    if part.nrows > 0:
        for name, spec in column_specs.items():
            kind = classify_column(name, spec)
            if kind == "ore":
                columns[name] = _ore_stats(part.column(name))
            elif kind == "plain":
                columns[name] = _plain_stats(part.column(name))
    return {"rows": int(part.nrows), "nulls": 0, "columns": columns}


def join_dictionaries(
    stats: dict[str, Any] | None, dictionaries: Mapping[str, np.ndarray]
) -> dict[str, Any] | None:
    """One partition's zone map: its persisted ``stats`` plus, per coded
    DET column, ``{"kind": "det", "tokens": dictionary}`` -- the sorted
    distinct-token array itself, not a copy.  A partition without
    persisted stats has no zone map."""
    if not stats:
        return stats
    det = {name: {"kind": "det", "tokens": d} for name, d in dictionaries.items()}
    return {**stats, "columns": {**stats["columns"], **det}}


def stats_summary(zone_maps: list[dict | None]) -> dict[str, Any]:
    """Aggregate index coverage over a table's per-partition zone maps."""
    covered = [z for z in zone_maps if z]
    columns: dict[str, dict[str, int | str]] = {}
    for z in covered:
        for name, col in z.get("columns", {}).items():
            entry = columns.setdefault(name, {"kind": col["kind"], "partitions": 0})
            entry["partitions"] = int(entry["partitions"]) + 1
    return {
        "partitions": len(zone_maps),
        "partitions_with_stats": len(covered),
        "rows": sum(int(z["rows"]) for z in covered),
        "columns": columns,
    }
