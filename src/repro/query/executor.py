"""Plaintext query execution: ground truth and NoEnc semantics.

A direct, single-process numpy evaluator for the query AST.  Every
correctness test in this repository checks the encrypted pipeline against
this executor, and the NoEnc baseline's *results* are defined by it (its
*timing* is measured through the simulated cluster in
:mod:`repro.core.baselines`).

Tables are plain ``dict[str, np.ndarray]`` columns; string columns may be
``object`` arrays or Python lists.
"""

from __future__ import annotations

import math
from typing import Any, Mapping

import numpy as np

from repro.errors import ExecutionError
from repro.query.ast import (
    Aggregate,
    And,
    Between,
    ColumnRef,
    Comparison,
    InList,
    Not,
    Or,
    Predicate,
    Query,
)

Columns = Mapping[str, Any]
ResultRow = dict[str, Any]


def _as_array(column: Any) -> np.ndarray:
    if isinstance(column, np.ndarray):
        return column
    return np.asarray(column, dtype=object)


def evaluate_predicate(columns: Columns, pred: Predicate | None, nrows: int) -> np.ndarray:
    """Boolean selection mask for a predicate tree."""
    if pred is None:
        return np.ones(nrows, dtype=bool)
    if isinstance(pred, Comparison):
        col = _as_array(_get(columns, pred.column))
        ops = {
            "=": lambda a, b: a == b,
            "!=": lambda a, b: a != b,
            "<": lambda a, b: a < b,
            "<=": lambda a, b: a <= b,
            ">": lambda a, b: a > b,
            ">=": lambda a, b: a >= b,
        }
        return np.asarray(ops[pred.op](col, pred.value), dtype=bool)
    if isinstance(pred, InList):
        col = _as_array(_get(columns, pred.column))
        mask = np.zeros(nrows, dtype=bool)
        for v in pred.values:
            mask |= np.asarray(col == v, dtype=bool)
        return mask
    if isinstance(pred, Between):
        col = _as_array(_get(columns, pred.column))
        return np.asarray((col >= pred.low) & (col <= pred.high), dtype=bool)
    if isinstance(pred, Not):
        return ~evaluate_predicate(columns, pred.child, nrows)
    if isinstance(pred, And):
        mask = np.ones(nrows, dtype=bool)
        for child in pred.children:
            mask &= evaluate_predicate(columns, child, nrows)
        return mask
    if isinstance(pred, Or):
        mask = np.zeros(nrows, dtype=bool)
        for child in pred.children:
            mask |= evaluate_predicate(columns, child, nrows)
        return mask
    raise ExecutionError(f"unknown predicate node {type(pred).__name__}")


def _get(columns: Columns, name: str) -> Any:
    try:
        return columns[name]
    except KeyError:
        raise ExecutionError(
            f"unknown column {name!r}; available: {sorted(columns)}"
        ) from None


def compute_aggregate(agg: Aggregate, values: np.ndarray | None) -> Any:
    """One aggregate over already-selected values."""
    if agg.func == "count":
        if values is None:
            raise ExecutionError("count requires the selection size")
        return int(len(values))
    assert values is not None
    if len(values) == 0:
        return None
    if agg.func == "sum":
        return _maybe_int(values.sum())
    if agg.func == "avg":
        return float(values.mean())
    if agg.func == "min":
        return _maybe_int(values.min())
    if agg.func == "max":
        return _maybe_int(values.max())
    if agg.func == "median":
        return float(np.median(values))
    if agg.func == "var":
        return float(np.var(values))  # population variance, as in BI backends
    if agg.func == "stddev":
        return float(np.sqrt(np.var(values)))
    raise ExecutionError(f"unknown aggregate {agg.func!r}")


def _maybe_int(x: Any) -> Any:
    if isinstance(x, (np.integer, int)):
        return int(x)
    value = float(x)
    return int(value) if math.isclose(value, round(value)) and abs(value) < 2**53 else value


def _hash_join(left: Columns, right: Columns, left_col: str, right_col: str) -> Columns:
    """Inner equi-join; right side is the build side."""
    left_arrays = {k: _as_array(v) for k, v in left.items()}
    right_arrays = {k: _as_array(v) for k, v in right.items()}
    build: dict[Any, list[int]] = {}
    for idx, key in enumerate(right_arrays[right_col].tolist()):
        build.setdefault(key, []).append(idx)
    left_idx: list[int] = []
    right_idx: list[int] = []
    for idx, key in enumerate(left_arrays[left_col].tolist()):
        for r in build.get(key, ()):
            left_idx.append(idx)
            right_idx.append(r)
    li = np.asarray(left_idx, dtype=np.int64)
    ri = np.asarray(right_idx, dtype=np.int64)
    joined: dict[str, np.ndarray] = {}
    for name, arr in left_arrays.items():
        joined[name] = arr[li]
    for name, arr in right_arrays.items():
        if name not in joined:  # left side wins on duplicate names
            joined[name] = arr[ri]
    return joined


def execute_plain(tables: Mapping[str, Columns], query: Query) -> list[ResultRow]:
    """Execute a query against plaintext tables; rows as ordered dicts."""
    columns = dict(tables_get(tables, query.table))
    if query.join is not None:
        right = tables_get(tables, query.join.table)
        columns = dict(
            _hash_join(columns, right, query.join.left_column, query.join.right_column)
        )
    nrows = len(next(iter(columns.values()))) if columns else 0
    mask = evaluate_predicate(columns, query.where, nrows)
    selected = {name: _as_array(col)[mask] for name, col in columns.items()}

    if not query.is_aggregation():
        out_cols = [item.name for item in query.select if isinstance(item, ColumnRef)]
        rows = [
            {name: _scalar(selected[name][j]) for name in out_cols}
            for j in range(int(mask.sum()))
        ]
        return order_and_limit(rows, query)

    if query.group_by:
        rows = _grouped_aggregation(selected, query)
    else:
        rows = [_flat_aggregation(selected, query, int(mask.sum()))]
    return order_and_limit(rows, query)


def tables_get(tables: Mapping[str, Columns], name: str) -> Columns:
    try:
        return tables[name]
    except KeyError:
        raise ExecutionError(
            f"unknown table {name!r}; available: {sorted(tables)}"
        ) from None


def _scalar(x: Any) -> Any:
    if isinstance(x, np.generic):
        return x.item()
    return x


def _flat_aggregation(selected: Columns, query: Query, count: int) -> ResultRow:
    row: ResultRow = {}
    for item in query.select:
        if isinstance(item, ColumnRef):
            raise ExecutionError(
                f"bare column {item.name!r} in an ungrouped aggregation"
            )
        values = None if item.column is None else _numeric(_get(selected, item.column))
        if item.func == "count":
            row[item.output_name()] = count if values is None else int(len(values))
        else:
            row[item.output_name()] = compute_aggregate(item, values)
    return row


def _grouped_aggregation(selected: Columns, query: Query) -> list[ResultRow]:
    key_arrays = [_as_array(_get(selected, g)) for g in query.group_by]
    nrows = len(key_arrays[0]) if key_arrays else 0
    groups: dict[tuple, np.ndarray] = {}
    if nrows:
        keys = list(zip(*(a.tolist() for a in key_arrays)))
        index: dict[tuple, list[int]] = {}
        for j, k in enumerate(keys):
            index.setdefault(k, []).append(j)
        groups = {k: np.asarray(v, dtype=np.int64) for k, v in index.items()}
    rows: list[ResultRow] = []
    for key, idx in groups.items():
        row: ResultRow = {}
        for g, value in zip(query.group_by, key):
            row[g] = _scalar(value)
        for item in query.select:
            if isinstance(item, ColumnRef):
                if item.name not in query.group_by:
                    raise ExecutionError(
                        f"column {item.name!r} must appear in GROUP BY"
                    )
                continue
            values = (
                None if item.column is None else _numeric(_get(selected, item.column))[idx]
            )
            if item.func == "count":
                row[item.output_name()] = len(idx) if values is None else int(len(values))
            else:
                row[item.output_name()] = compute_aggregate(item, values)
        rows.append(row)
    return rows


def _numeric(arr: Any) -> np.ndarray:
    a = _as_array(arr)
    if a.dtype == object:
        return a.astype(np.float64)
    return a


def order_and_limit(rows: list[ResultRow], query: Query) -> list[ResultRow]:
    """Apply ORDER BY / group-key ordering / LIMIT to result rows, then
    drop the group keys the query groups by but does not select (the
    decryption module does the same on its columns, in its own code)."""
    for name, descending in reversed(query.order_by):
        rows.sort(key=lambda r: r[name], reverse=descending)
    if not query.order_by and query.group_by:
        # Deterministic output order for tests.
        rows.sort(key=lambda r: tuple(str(r[g]) for g in query.group_by))
    if query.limit is not None:
        rows = rows[: query.limit]
    selected = {item.output_name() for item in query.select}
    hidden = [g for g in query.group_by if g not in selected]
    if hidden:
        rows = [{k: v for k, v in row.items() if k not in hidden} for row in rows]
    return rows
