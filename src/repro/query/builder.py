"""A fluent builder for the Seabed SQL subset.

Compiles chained method calls straight to the :mod:`repro.query.ast`
nodes the planner and translator already consume, so builder queries and
parsed SQL are interchangeable everywhere::

    from repro.query.builder import QueryBuilder, col

    q = (QueryBuilder("uservisits")
         .where(col("pageRank") > 100)
         .group_by("hour")
         .sum("adRevenue")
         .build())

When obtained from a session (``session.table("uservisits")``) the
builder is also executable in place: ``.execute()`` routes through the
session's cached translation path and ``.prepare()`` returns a
:class:`~repro.core.session.PreparedQuery`.

Builders are immutable: every method returns a new builder, so a shared
prefix (say, a filtered table) can fan out into many queries safely.

:func:`render_sql` is the inverse of :func:`~repro.query.parser.parse_query`
for every query the builder can produce; the property tests assert the
round-trip ``parse_query(render_sql(q)) == q``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.errors import TranslationError
from repro.query.ast import (
    Aggregate,
    And,
    Between,
    ColumnRef,
    Comparison,
    InList,
    JoinClause,
    Not,
    Or,
    Param,
    Predicate,
    Query,
    SelectItem,
    Value,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.session import PreparedQuery, QueryResult, SeabedSession


# ---------------------------------------------------------------------------
# Column expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Col:
    """A column reference that builds predicates through comparison
    operators: ``col("pageRank") > 100`` is ``Comparison("pageRank", ">",
    100)``."""

    name: str

    def __gt__(self, other: Value) -> Comparison:
        return Comparison(self.name, ">", other)

    def __ge__(self, other: Value) -> Comparison:
        return Comparison(self.name, ">=", other)

    def __lt__(self, other: Value) -> Comparison:
        return Comparison(self.name, "<", other)

    def __le__(self, other: Value) -> Comparison:
        return Comparison(self.name, "<=", other)

    def __eq__(self, other: object) -> Comparison:  # type: ignore[override]
        return Comparison(self.name, "=", other)  # type: ignore[arg-type]

    def __ne__(self, other: object) -> Comparison:  # type: ignore[override]
        return Comparison(self.name, "!=", other)  # type: ignore[arg-type]

    # Comparison operators hijack __eq__, so Col cannot sit in sets/dicts.
    __hash__ = None  # type: ignore[assignment]

    def isin(self, *values: Value) -> InList:
        if len(values) == 1 and isinstance(values[0], (list, tuple)):
            values = tuple(values[0])
        if not values:
            raise TranslationError("IN () needs at least one value")
        return InList(self.name, tuple(values))

    def between(self, low: Value, high: Value) -> Between:
        return Between(self.name, low, high)


def col(name: str) -> Col:
    """Shorthand constructor: ``col("pageRank") > 100``."""
    return Col(name)


def and_(*predicates: Predicate) -> Predicate:
    """Conjunction; nested ANDs are flattened (matching the parser)."""
    flat: list[Predicate] = []
    for p in predicates:
        flat.extend(p.children) if isinstance(p, And) else flat.append(p)
    if not flat:
        raise TranslationError("and_() needs at least one predicate")
    return flat[0] if len(flat) == 1 else And(tuple(flat))


def or_(*predicates: Predicate) -> Predicate:
    """Disjunction; nested ORs are flattened (matching the parser)."""
    flat: list[Predicate] = []
    for p in predicates:
        flat.extend(p.children) if isinstance(p, Or) else flat.append(p)
    if not flat:
        raise TranslationError("or_() needs at least one predicate")
    return flat[0] if len(flat) == 1 else Or(tuple(flat))


def not_(predicate: Predicate) -> Not:
    return Not(predicate)


# ---------------------------------------------------------------------------
# The builder
# ---------------------------------------------------------------------------

_AGG_SHORTHANDS = ("sum", "avg", "min", "max", "var", "stddev", "median")


class QueryBuilder:
    """Immutable fluent builder; terminal methods are :meth:`build`,
    :meth:`sql`, and (when session-bound) :meth:`execute` /
    :meth:`prepare`."""

    def __init__(self, table: str, session: "SeabedSession | None" = None):
        self._table = table
        self._session = session
        self._select: tuple[SelectItem, ...] = ()
        self._join: JoinClause | None = None
        self._where: Predicate | None = None
        self._group_by: tuple[str, ...] = ()
        self._order_by: tuple[tuple[str, bool], ...] = ()
        self._limit: int | None = None

    # -- plumbing ------------------------------------------------------------

    def _clone(self, **changes: Any) -> "QueryBuilder":
        out = QueryBuilder(self._table, self._session)
        out._select = self._select
        out._join = self._join
        out._where = self._where
        out._group_by = self._group_by
        out._order_by = self._order_by
        out._limit = self._limit
        for key, value in changes.items():
            setattr(out, key, value)
        return out

    # -- select list -----------------------------------------------------------

    def select(self, *names: str) -> "QueryBuilder":
        """Add bare columns to the select list (valid with GROUP BY)."""
        items = self._select + tuple(ColumnRef(n) for n in names)
        return self._clone(_select=items)

    def agg(self, func: str, column: str | None = None,
            alias: str | None = None) -> "QueryBuilder":
        item = Aggregate(func=func, column=column, alias=alias)
        return self._clone(_select=self._select + (item,))

    def count(self, column: str | None = None,
              alias: str | None = None) -> "QueryBuilder":
        return self.agg("count", column, alias)

    # sum/avg/min/max/var/stddev/median shortcuts share one shape.
    def sum(self, column: str, alias: str | None = None) -> "QueryBuilder":
        return self.agg("sum", column, alias)

    def avg(self, column: str, alias: str | None = None) -> "QueryBuilder":
        return self.agg("avg", column, alias)

    def min(self, column: str, alias: str | None = None) -> "QueryBuilder":
        return self.agg("min", column, alias)

    def max(self, column: str, alias: str | None = None) -> "QueryBuilder":
        return self.agg("max", column, alias)

    def var(self, column: str, alias: str | None = None) -> "QueryBuilder":
        return self.agg("var", column, alias)

    def stddev(self, column: str, alias: str | None = None) -> "QueryBuilder":
        return self.agg("stddev", column, alias)

    def median(self, column: str, alias: str | None = None) -> "QueryBuilder":
        return self.agg("median", column, alias)

    # -- clauses ---------------------------------------------------------------

    def join(self, table: str, left: str, right: str) -> "QueryBuilder":
        """Equi-join: ``JOIN table ON left = right``."""
        return self._clone(_join=JoinClause(table, left, right))

    def where(self, predicate: Predicate) -> "QueryBuilder":
        """Filter rows; repeated calls AND together (like the parser's
        top-level conjunction)."""
        combined = (
            predicate if self._where is None else and_(self._where, predicate)
        )
        return self._clone(_where=combined)

    def group_by(self, *names: str) -> "QueryBuilder":
        return self._clone(_group_by=self._group_by + names)

    def order_by(self, name: str, descending: bool = False) -> "QueryBuilder":
        return self._clone(_order_by=self._order_by + ((name, descending),))

    def limit(self, n: int) -> "QueryBuilder":
        return self._clone(_limit=n)

    # -- terminals --------------------------------------------------------------

    def build(self) -> Query:
        """Compile to the AST.  Grouped queries with no explicit bare
        columns get their group keys prepended, so
        ``.group_by("hour").sum("x")`` selects ``hour, sum(x)``."""
        select = self._select
        if not select:
            raise TranslationError(
                f"empty select list on table {self._table!r}; add an "
                "aggregate (e.g. .sum(col)) or .select(columns)"
            )
        has_refs = any(isinstance(item, ColumnRef) for item in select)
        if self._group_by and not has_refs:
            select = tuple(ColumnRef(n) for n in self._group_by) + select
        return Query(
            select=select,
            table=self._table,
            join=self._join,
            where=self._where,
            group_by=self._group_by,
            order_by=self._order_by,
            limit=self._limit,
        )

    def sql(self) -> str:
        return render_sql(self.build())

    def _require_session(self) -> "SeabedSession":
        if self._session is None:
            raise TranslationError(
                "this builder is not bound to a session; use "
                "session.table(name) or pass .build() to a session"
            )
        return self._session

    def execute(
        self,
        *args: Any,
        user: str | None = None,
        **params: Any,
    ) -> "QueryResult":
        """Run through the session's cached translation path.  Positional
        / keyword values bind any :class:`Param` placeholders (positional
        values follow declaration order)."""
        from repro.query.ast import query_params

        session = self._require_session()
        query = self.build()
        names = query_params(query)
        if len(args) > len(names):
            raise TranslationError(
                f"{len(args)} positional values for {len(names)} "
                f"parameter(s) {list(names)!r}"
            )
        bound = dict(zip(names, args))
        overlap = set(bound) & set(params)
        if overlap:
            raise TranslationError(
                f"parameters {sorted(overlap)!r} bound both positionally "
                "and by name"
            )
        bound.update(params)
        return session.query(query, user=user, **bound)

    def prepare(self) -> "PreparedQuery":
        return self._require_session().prepare(self.build())

    def __repr__(self) -> str:
        try:
            return f"QueryBuilder({self.sql()!r})"
        except TranslationError:
            return f"QueryBuilder(table={self._table!r}, select=<empty>)"


# ---------------------------------------------------------------------------
# SQL rendering (the parser's inverse)
# ---------------------------------------------------------------------------


def _render_value(value: Value) -> str:
    if isinstance(value, Param):
        return f":{value.name}"
    if isinstance(value, bool):
        raise TranslationError("boolean literals are not in the SQL subset")
    if isinstance(value, str):
        escaped = value.replace("\\", "\\\\").replace("'", "\\'")
        return f"'{escaped}'"
    if isinstance(value, (int, float)) and value < 0:
        raise TranslationError(
            "negative literals are not in the SQL subset (the grammar "
            "has no unary minus); filter on a shifted column instead"
        )
    if isinstance(value, float):
        text = repr(value)
        # The grammar only accepts \d+.\d+ -- no exponents or bare dots.
        if "e" in text or "E" in text or "." not in text:
            text = f"{value:.10f}"
            if float(text) != value:
                raise TranslationError(
                    f"float literal {value!r} cannot be rendered exactly "
                    "in the SQL subset (no exponent syntax)"
                )
        return text
    if isinstance(value, int):
        return str(value)
    raise TranslationError(f"cannot render literal {value!r}")


def _render_predicate(pred: Predicate, parent: str = "or") -> str:
    """Render with the minimal parens that make parse(render(p)) == p.

    ``parent`` is the context precedence: AND children that are ORs need
    parens; NOT operands always get them (NOT binds tightest).
    """
    if isinstance(pred, Comparison):
        return f"{pred.column} {pred.op} {_render_value(pred.value)}"
    if isinstance(pred, Between):
        return (
            f"{pred.column} BETWEEN {_render_value(pred.low)} "
            f"AND {_render_value(pred.high)}"
        )
    if isinstance(pred, InList):
        inner = ", ".join(_render_value(v) for v in pred.values)
        return f"{pred.column} IN ({inner})"
    if isinstance(pred, Not):
        return f"NOT ({_render_predicate(pred.child, 'or')})"
    if isinstance(pred, And):
        parts = [_render_predicate(c, "and") for c in pred.children]
        text = " AND ".join(parts)
        return f"({text})" if parent == "not" else text
    if isinstance(pred, Or):
        parts = [_render_predicate(c, "or") for c in pred.children]
        text = " OR ".join(parts)
        return f"({text})" if parent in ("and", "not") else text
    raise TranslationError(f"cannot render predicate {type(pred).__name__}")


def _render_item(item: SelectItem) -> str:
    if isinstance(item, ColumnRef):
        return item.name
    target = item.column if item.column is not None else "*"
    text = f"{item.func}({target})"
    if item.alias:
        text += f" AS {item.alias}"
    return text


def render_sql(query: Query) -> str:
    """Render a query AST back to SQL that reparses to an equal AST."""
    parts = ["SELECT " + ", ".join(_render_item(i) for i in query.select)]
    parts.append(f"FROM {query.table}")
    if query.join is not None:
        parts.append(
            f"JOIN {query.join.table} ON {query.join.left_column} = "
            f"{query.join.right_column}"
        )
    if query.where is not None:
        parts.append("WHERE " + _render_predicate(query.where))
    if query.group_by:
        parts.append("GROUP BY " + ", ".join(query.group_by))
    if query.order_by:
        rendered = ", ".join(
            f"{name} DESC" if descending else f"{name} ASC"
            for name, descending in query.order_by
        )
        parts.append("ORDER BY " + rendered)
    if query.limit is not None:
        parts.append(f"LIMIT {query.limit}")
    return " ".join(parts)
