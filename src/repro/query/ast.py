"""The query AST shared by the planner, translator, and executors.

The node set covers the paper's workload analysis (Section 5): OLAP
aggregations (sum / count / avg / min / max / variance / stddev), filters
with equality, range, IN and BETWEEN predicates, boolean combinations,
group-by, a single equi-join (Big Data Benchmark query 3), order-by and
limit.  All nodes are frozen dataclasses, hence hashable and safely
shareable between the client-side planner and translator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

AGGREGATE_FUNCS = frozenset(
    {"sum", "count", "avg", "min", "max", "var", "stddev", "median"}
)

#: Aggregates computable on the Seabed server purely with ASHE sums
#: (Section 5, "support fully on the server" plus client division).
LINEAR_AGGS = frozenset({"sum", "count", "avg"})
#: Aggregates needing a client-side squared column (CPre in Table 6).
QUADRATIC_AGGS = frozenset({"var", "stddev"})
#: Aggregates served by order-revealing encryption.
ORDER_AGGS = frozenset({"min", "max", "median"})

Literal = Union[int, float, str]


@dataclass(frozen=True)
class Param:
    """A named placeholder for a literal, bound at execution time.

    Appears wherever a :data:`Literal` may (comparison values, IN lists,
    BETWEEN bounds); ``SeabedSession.prepare`` translates the query once
    with the placeholder and ``PreparedQuery.execute`` re-binds fresh
    encryption tokens for each set of values without re-planning.  In
    SQL, ``:name`` parses to ``Param("name")``.
    """

    name: str


#: What a predicate may compare against: a concrete literal or a Param.
Value = Union[Literal, Param]


@dataclass(frozen=True)
class ColumnRef:
    """A bare column in the select list (only valid with GROUP BY)."""

    name: str

    def output_name(self) -> str:
        return self.name


@dataclass(frozen=True)
class Aggregate:
    """``func(column)`` with an optional alias; ``column=None`` is ``*``."""

    func: str
    column: str | None
    alias: str | None = None

    def __post_init__(self) -> None:
        if self.func not in AGGREGATE_FUNCS:
            raise ValueError(f"unknown aggregate function {self.func!r}")
        if self.column is None and self.func != "count":
            raise ValueError(f"{self.func}(*) is not meaningful")

    def output_name(self) -> str:
        if self.alias:
            return self.alias
        return f"{self.func}({self.column or '*'})"


SelectItem = Union[ColumnRef, Aggregate]


@dataclass(frozen=True)
class Comparison:
    """``column <op> literal`` with op in = != < <= > >=."""

    column: str
    op: str
    value: Value

    _OPS = frozenset({"=", "!=", "<", "<=", ">", ">="})

    def __post_init__(self) -> None:
        if self.op not in self._OPS:
            raise ValueError(f"unknown comparison operator {self.op!r}")


@dataclass(frozen=True)
class InList:
    column: str
    values: tuple[Value, ...]


@dataclass(frozen=True)
class Between:
    column: str
    low: Value
    high: Value


@dataclass(frozen=True)
class And:
    children: tuple["Predicate", ...]


@dataclass(frozen=True)
class Or:
    children: tuple["Predicate", ...]


@dataclass(frozen=True)
class Not:
    child: "Predicate"


Predicate = Union[Comparison, InList, Between, And, Or, Not]


@dataclass(frozen=True)
class JoinClause:
    """``JOIN table ON left_column = right_column`` (equi-join only)."""

    table: str
    left_column: str
    right_column: str


@dataclass(frozen=True)
class Query:
    select: tuple[SelectItem, ...]
    table: str
    join: JoinClause | None = None
    where: Predicate | None = None
    group_by: tuple[str, ...] = ()
    order_by: tuple[tuple[str, bool], ...] = ()  # (name, descending)
    limit: int | None = None

    # -- structural helpers used by the planner ------------------------------

    def aggregates(self) -> list[Aggregate]:
        return [item for item in self.select if isinstance(item, Aggregate)]

    def is_aggregation(self) -> bool:
        return bool(self.aggregates())

    def measure_columns(self) -> set[str]:
        """Columns that appear inside aggregate functions."""
        return {a.column for a in self.aggregates() if a.column is not None}

    def dimension_columns(self) -> set[str]:
        """Columns used to filter or group rows."""
        dims = set(self.group_by)
        dims |= predicate_columns(self.where)
        if self.join is not None:
            dims |= {self.join.left_column, self.join.right_column}
        return dims

    def join_columns(self) -> set[str]:
        if self.join is None:
            return set()
        return {self.join.left_column, self.join.right_column}


def query_params(query: Query) -> tuple[str, ...]:
    """Parameter names mentioned in a query, in first-occurrence order.

    Only predicates may hold :class:`Param` placeholders; the walk visits
    conjuncts/disjuncts left to right so positional binding is stable.
    """
    seen: list[str] = []

    def note(value: Value) -> None:
        if isinstance(value, Param) and value.name not in seen:
            seen.append(value.name)

    def visit(node: Predicate | None) -> None:
        if node is None:
            return
        if isinstance(node, Comparison):
            note(node.value)
        elif isinstance(node, InList):
            for v in node.values:
                note(v)
        elif isinstance(node, Between):
            note(node.low)
            note(node.high)
        elif isinstance(node, Not):
            visit(node.child)
        elif isinstance(node, (And, Or)):
            for child in node.children:
                visit(child)

    visit(query.where)
    return tuple(seen)


def predicate_columns(pred: Predicate | None) -> set[str]:
    """All column names mentioned in a predicate tree."""
    if pred is None:
        return set()
    if isinstance(pred, (Comparison, InList, Between)):
        return {pred.column}
    if isinstance(pred, Not):
        return predicate_columns(pred.child)
    if isinstance(pred, (And, Or)):
        out: set[str] = set()
        for child in pred.children:
            out |= predicate_columns(child)
        return out
    raise TypeError(f"unknown predicate node {type(pred).__name__}")


def predicate_usage(pred: Predicate | None) -> dict[str, set[str]]:
    """Map column -> set of predicate kinds (``eq``, ``range``, ``in``).

    The planner uses this to decide between SPLASHE (equality-only
    dimensions), ORE (range dimensions) and DET (join dimensions).
    """
    usage: dict[str, set[str]] = {}

    def visit(node: Predicate | None) -> None:
        if node is None:
            return
        if isinstance(node, Comparison):
            kind = "eq" if node.op in ("=", "!=") else "range"
            usage.setdefault(node.column, set()).add(kind)
        elif isinstance(node, InList):
            usage.setdefault(node.column, set()).add("eq")
        elif isinstance(node, Between):
            usage.setdefault(node.column, set()).add("range")
        elif isinstance(node, Not):
            visit(node.child)
        elif isinstance(node, (And, Or)):
            for child in node.children:
                visit(child)

    visit(pred)
    return usage
