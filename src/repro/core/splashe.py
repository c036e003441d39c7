"""SPLASHE column transforms (paper Sections 3.3, 3.4, Appendix A.2).

Pure data transforms, independent of the crypto: given a dimension's code
column (dense integer codes) and the measure columns aggregated under it,
produce the splayed plaintext columns that the encryption module then
ASHE-encrypts.  Also implements the planner-side math:

- :func:`choose_k` -- the minimal number of splayed columns such that the
  frequent rows donate enough "dummy" DET cells to pad every infrequent
  value to the same frequency (Section 3.4):
  minimal ``k`` with ``sum_{i<=k} n_i >= sum_{i>k} (n_{k+1} - n_i)``.
- :func:`balance_det_codes` -- the dummy-entry assignment: rows holding
  frequent values receive deterministic encryptions of infrequent values,
  equalising every infrequent value's ciphertext frequency (to within one,
  for leftover cells, distributed round-robin then shuffled).
- storage estimators used by the planner's budget and Figure 10(b).
"""

from __future__ import annotations

import numpy as np

from repro.errors import PlanningError

_I64 = np.int64


def choose_k(counts_desc: list[int]) -> int:
    """Minimal k so the top-k rows can pad the rest to uniform frequency.

    ``counts_desc`` are the per-value occurrence counts sorted descending.
    Returns a value in ``[0, d]``; ``k = 0`` is possible only for an
    already-uniform distribution and ``k = d`` degenerates to basic
    SPLASHE.  The paper notes such a ``k`` always exists; the more skewed
    the distribution, the smaller the ``k``.
    """
    if any(c < 0 for c in counts_desc):
        raise PlanningError("negative value counts")
    if sorted(counts_desc, reverse=True) != list(counts_desc):
        raise PlanningError("counts must be sorted in non-increasing order")
    d = len(counts_desc)
    prefix = 0
    for k in range(0, d + 1):
        threshold = counts_desc[k] if k < d else 0
        needed = sum(threshold - c for c in counts_desc[k:])
        if prefix >= needed:
            return k
        if k < d:
            prefix += counts_desc[k]
    return d


def padding_threshold(counts_desc: list[int], k: int) -> int:
    """The uniform frequency target for the infrequent values: n_{k+1}."""
    if k >= len(counts_desc):
        return 0
    return counts_desc[k]


def balance_det_codes(
    codes: np.ndarray,
    frequent_codes: list[int],
    cardinality: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Build the frequency-balanced DET code column (Section 3.4).

    Rows holding an infrequent value keep their true code.  Rows holding a
    frequent value are "unused" for DET purposes; they are filled with
    infrequent codes so every infrequent value reaches the same count,
    leftover cells being spread round-robin (keeping counts within one of
    each other) and the assignment randomly placed.

    With no infrequent values at all the column carries no information;
    it is filled with uniformly random codes so it still looks balanced.
    """
    codes = np.asarray(codes, dtype=_I64)
    if codes.size and (codes.min() < 0 or codes.max() >= cardinality):
        raise PlanningError("dimension codes out of range")
    frequent = set(frequent_codes)
    infrequent = [v for v in range(cardinality) if v not in frequent]
    det = codes.copy()
    free_mask = np.isin(codes, np.asarray(sorted(frequent), dtype=_I64))
    free_positions = np.flatnonzero(free_mask)

    if not infrequent:
        det[free_positions] = rng.integers(0, max(cardinality, 1), free_positions.size)
        return det

    counts = np.bincount(codes, minlength=cardinality)
    target = int(counts[infrequent].max()) if len(infrequent) else 0
    fills: list[int] = []
    for v in infrequent:
        fills.extend([v] * (target - int(counts[v])))
    leftover = free_positions.size - len(fills)
    if leftover < 0:
        raise PlanningError(
            f"cannot balance DET column: need {len(fills)} dummy cells but only "
            f"{free_positions.size} rows hold frequent values (k too small "
            "for this batch's distribution)"
        )
    for i in range(leftover):
        fills.append(infrequent[i % len(infrequent)])
    fill_arr = np.asarray(fills, dtype=_I64)
    rng.shuffle(fill_arr)
    det[free_positions] = fill_arr
    return det


def splay_indicators(codes: np.ndarray, cardinality: int) -> list[np.ndarray]:
    """Basic SPLASHE: one 0/1 indicator column per dimension value."""
    codes = np.asarray(codes, dtype=_I64)
    return [(codes == v).astype(_I64) for v in range(cardinality)]


def splay_measure(
    codes: np.ndarray, measure: np.ndarray, cardinality: int
) -> list[np.ndarray]:
    """Basic SPLASHE: measure value in its own value's column, 0 elsewhere."""
    codes = np.asarray(codes, dtype=_I64)
    measure = np.asarray(measure, dtype=_I64)
    if codes.shape != measure.shape:
        raise PlanningError("dimension and measure columns differ in length")
    return [np.where(codes == v, measure, 0).astype(_I64) for v in range(cardinality)]


def splay_enhanced_indicators(
    codes: np.ndarray, frequent_codes: list[int], cardinality: int
) -> tuple[dict[int, np.ndarray], np.ndarray]:
    """Enhanced SPLASHE indicators: per-frequent-value columns plus one
    "others" indicator flagging rows whose true value is infrequent."""
    codes = np.asarray(codes, dtype=_I64)
    per_frequent = {v: (codes == v).astype(_I64) for v in frequent_codes}
    frequent_arr = np.asarray(sorted(frequent_codes), dtype=_I64)
    others = (~np.isin(codes, frequent_arr)).astype(_I64)
    return per_frequent, others


def splay_enhanced_measure(
    codes: np.ndarray,
    measure: np.ndarray,
    frequent_codes: list[int],
    cardinality: int,
) -> tuple[dict[int, np.ndarray], np.ndarray]:
    """Enhanced SPLASHE measures: per-frequent-value columns plus the
    "others" column carrying the measure for infrequent rows (0 for
    frequent and dummy rows, preserving aggregate correctness)."""
    codes = np.asarray(codes, dtype=_I64)
    measure = np.asarray(measure, dtype=_I64)
    per_frequent = {
        v: np.where(codes == v, measure, 0).astype(_I64) for v in frequent_codes
    }
    frequent_arr = np.asarray(sorted(frequent_codes), dtype=_I64)
    others = np.where(np.isin(codes, frequent_arr), 0, measure).astype(_I64)
    return per_frequent, others


# ---------------------------------------------------------------------------
# Storage model (planner budget + Figure 10b)
# ---------------------------------------------------------------------------


def basic_storage_cells(cardinality: int, num_measures: int) -> int:
    """Physical columns for basic SPLASHE: d indicators + d per measure."""
    return cardinality * (1 + num_measures)


def enhanced_storage_cells(k: int, num_measures: int) -> int:
    """Enhanced SPLASHE: (k+1) indicators + (k+1) per measure + DET col."""
    return (k + 1) * (1 + num_measures) + 1


def plain_storage_cells(num_measures: int) -> int:
    """The unsplayed baseline: the dimension plus its measures."""
    return 1 + num_measures


def storage_overhead_factor(
    cardinality: int, num_measures: int, k: int | None = None
) -> float:
    """Column blow-up factor for splaying one dimension (Figure 10b).

    ``k is None`` means basic SPLASHE.
    """
    base = plain_storage_cells(num_measures)
    if k is None:
        return basic_storage_cells(cardinality, num_measures) / base
    return enhanced_storage_cells(k, num_measures) / base
