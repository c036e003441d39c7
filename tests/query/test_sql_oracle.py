"""The parser and plaintext executor against an independent oracle.

Queries are generated as SQL *text*: one predicate tree rendered twice,
once in this repository's dialect (``\\'`` string escapes) and once for
stdlib ``sqlite3`` (``''`` escapes).  ``execute_plain(parse_query(text))``
must return the rows SQLite computes over the same plaintext table, so a
parser that mis-nests ``AND`` / ``OR`` / ``NOT`` or mis-reads a quoted
literal gives different rows, not the same wrong AST twice.
"""

import functools
import re
import sqlite3
import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.query.executor import execute_plain
from repro.query.parser import parse_query

INT_COLUMNS = ("a", "b", "c", "x")
STR_COLUMNS = ("g", "s")
# Quotes and backslashes in the data make string escaping matter on
# both sides of the comparison.
STR_POOL = ("", "a", "b", "ab", "it's", "o''k", "back\\slash", "\\'", "b a")


def _tables(nrows: int = 80, seed: int = 20160) -> dict:
    rng = np.random.default_rng(seed)
    tbl = {name: rng.integers(0, 21, nrows).astype(np.int64) for name in INT_COLUMNS}
    for name in STR_COLUMNS:
        tbl[name] = np.array(
            [STR_POOL[i] for i in rng.integers(0, len(STR_POOL), nrows)], dtype=object
        )
    other = {"y": rng.integers(0, 21, 30).astype(np.int64)}
    return {"tbl": tbl, "o": other}


class _Median:
    """SQLite has no median; the executor's is the mean of the middle two."""

    def __init__(self):
        self.values = []

    def step(self, value):
        self.values.append(value)

    def finalize(self):
        return statistics.median(self.values) if self.values else None


class Oracle:
    """The plaintext tables and a SQLite copy of them."""

    def __init__(self, tables: dict):
        self.tables = tables
        self.conn = sqlite3.connect(":memory:")
        self.conn.create_aggregate("median", 1, _Median)
        for name, columns in tables.items():
            names = list(columns)
            self.conn.execute(f"CREATE TABLE {name} ({', '.join(names)})")
            self.conn.executemany(
                f"INSERT INTO {name} VALUES ({', '.join('?' * len(names))})",
                zip(*(columns[n].tolist() for n in names)),
            )

    def __repr__(self) -> str:  # hypothesis prints it with a failing example
        return "Oracle(tbl, o)"

    def check(self, text: str, sqlite_text: str) -> None:
        q = parse_query(text)
        names = [item.output_name() for item in q.select]
        got = [tuple(row[n] for n in names) for row in execute_plain(self.tables, q)]
        want = [tuple(row) for row in self.conn.execute(sqlite_text).fetchall()]
        for key, _ in q.order_by:  # ties may come in either order
            i = names.index(key)
            assert [r[i] for r in got] == [r[i] for r in want], text
        assert sorted(got, key=repr) == sorted(want, key=repr), text


@pytest.fixture(scope="module")
def oracle():
    oracle = Oracle(_tables())
    yield oracle
    oracle.conn.close()


# ---------------------------------------------------------------------------
# The grammar: a predicate tree over int and str columns, 1-3 aggregates
# and an optional GROUP BY g ORDER BY g.
# ---------------------------------------------------------------------------

_INTS = st.integers(0, 20)
_STRS = st.one_of(st.sampled_from(STR_POOL), st.text(alphabet="ab' \\", max_size=3))
_OPS = st.sampled_from(["=", "!=", "<", "<=", ">", ">="])


def _atoms(columns, literals):
    column = st.sampled_from(columns)
    return st.one_of(
        st.tuples(st.just("cmp"), column, _OPS, literals),
        st.tuples(st.just("in"), column, st.lists(literals, min_size=1, max_size=4)),
        st.tuples(st.just("between"), column, literals, literals),
    )


_ATOMS = st.one_of(_atoms(INT_COLUMNS, _INTS), _atoms(STR_COLUMNS, _STRS))
_TREES = st.recursive(
    _ATOMS,
    lambda kids: st.one_of(
        st.tuples(st.just("NOT"), kids),
        st.tuples(st.sampled_from(["AND", "OR"]), st.lists(kids, min_size=2, max_size=3)),
        st.tuples(st.just("()"), kids),  # redundant parentheses
    ),
    max_leaves=8,
)
_AGGS = st.lists(
    st.one_of(
        st.just("count(*)"),
        st.builds("{}({})".format, st.sampled_from(["sum", "min", "max"]),
                  st.sampled_from(INT_COLUMNS)),
    ),
    min_size=1,
    max_size=3,
)

# Binding strength: OR < AND < NOT < an atom or a parenthesised group.
_PREC = {"OR": 1, "AND": 2, "NOT": 3}


def _literal(value, dialect: str) -> str:
    if isinstance(value, int):
        return str(value)
    if dialect == "repro":
        return "'" + value.replace("\\", "\\\\").replace("'", "\\'") + "'"
    return "'" + value.replace("'", "''") + "'"


def render(node, dialect: str) -> str:
    """SQL text for a predicate tree, parenthesised only where precedence
    requires it (and wherever the tree holds an explicit ``()`` node)."""
    kind = node[0]
    lit = functools.partial(_literal, dialect=dialect)
    if kind == "cmp":
        return f"{node[1]} {node[2]} {lit(node[3])}"
    if kind == "in":
        return f"{node[1]} IN ({', '.join(lit(v) for v in node[2])})"
    if kind == "between":
        return f"{node[1]} BETWEEN {lit(node[2])} AND {lit(node[3])}"
    if kind == "()":
        return f"({render(node[1], dialect)})"
    if kind == "NOT":
        return "NOT " + _operand(node[1], _PREC["NOT"], dialect)
    return f" {kind} ".join(_operand(child, _PREC[kind], dialect) for child in node[1])


def _operand(node, prec: int, dialect: str) -> str:
    text = render(node, dialect)
    return f"({text})" if _PREC.get(node[0], 4) < prec else text


def _query(aggs, where, grouped: bool, dialect: str) -> str:
    select = (["g"] if grouped else []) + aggs
    sql = f"SELECT {', '.join(select)} FROM tbl"
    if where is not None:
        sql += f" WHERE {render(where, dialect)}"
    return sql + (" GROUP BY g ORDER BY g" if grouped else "")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(aggs=_AGGS, where=st.one_of(st.none(), _TREES), grouped=st.booleans())
def test_generated_sql_matches_sqlite(oracle, aggs, where, grouped):
    oracle.check(_query(aggs, where, grouped, "repro"),
                 _query(aggs, where, grouped, "sqlite"))


def _sqlite_text(sql: str) -> str:
    """Re-escape each of repro's string literals (``\\'``, ``\\\\``) for SQLite."""
    def swap(match):
        body = re.sub(r"\\(.)", r"\1", match.group()[1:-1])
        return _literal(body, "sqlite")

    return re.sub(r"'(?:[^'\\]|\\.)*'", swap, sql)


# The parameter-free workload shapes the parser has always been pinned on,
# then precedence, escaping and empty-selection anchors.
@pytest.mark.parametrize("sql", [
    "SELECT sum(a) FROM tbl",
    "SELECT count(*) FROM tbl WHERE a = 1",
    "SELECT g, sum(a) FROM tbl WHERE b > 2 AND c < 3 GROUP BY g",
    "SELECT g, avg(a) AS m FROM tbl WHERE b IN (1, 2, 3) GROUP BY g "
    "ORDER BY m DESC LIMIT 10",
    "SELECT sum(a) FROM tbl JOIN o ON x = y WHERE NOT (b = 1 OR c = 2)",
    "SELECT min(a), max(a), median(a) FROM tbl WHERE s = 'it\\'s'",
    "SELECT count(*) FROM tbl WHERE a = 1 OR b = 2 AND c = 3",
    "SELECT count(*) FROM tbl WHERE (a = 1 OR b = 2) AND c = 3",
    "SELECT count(*) FROM tbl WHERE NOT a = 1 AND b = 2",
    "SELECT count(*) FROM tbl WHERE NOT (NOT a < 5)",
    "SELECT sum(a), count(*) FROM tbl WHERE a > 1 AND (b > 2 OR c > 3) OR NOT x = 4",
    "SELECT count(*) FROM tbl WHERE a <> 3",
    "SELECT count(*) FROM tbl WHERE s IN ('it\\'s', 'o\\'\\'k', 'b a')",
    "SELECT count(*), sum(b) FROM tbl WHERE s = 'back\\\\slash' OR s = '\\\\\\''",
    "SELECT count(*) FROM tbl WHERE g BETWEEN 'a' AND 'ab'",
    "SELECT g, count(*), min(b) FROM tbl WHERE s != '' GROUP BY g ORDER BY g",
    "SELECT sum(a), min(a), count(*) FROM tbl WHERE a > 100",
])
def test_fixed_sql_matches_sqlite(oracle, sql):
    oracle.check(sql, _sqlite_text(sql))


@pytest.mark.parametrize("op", ["=", "!=", "<", "<=", ">", ">="])
def test_quoted_string_comparison_matches_sqlite(oracle, op):
    sql = f"SELECT count(*), sum(a) FROM tbl WHERE s {op} 'it\\'s'"
    oracle.check(sql, _sqlite_text(sql))
