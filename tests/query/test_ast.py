"""Tests for AST structural helpers (repro.query.ast)."""

import pytest

from repro.query.ast import (
    Aggregate,
    And,
    Between,
    Comparison,
    InList,
    Not,
    Or,
    predicate_columns,
    predicate_usage,
)
from repro.query.parser import parse_query


class TestAggregateValidation:
    def test_unknown_function_rejected(self):
        with pytest.raises(ValueError, match="unknown aggregate"):
            Aggregate("frobnicate", "x")

    def test_star_only_for_count(self):
        with pytest.raises(ValueError, match="not meaningful"):
            Aggregate("sum", None)

    def test_output_name_prefers_alias(self):
        assert Aggregate("sum", "x", alias="total").output_name() == "total"
        assert Aggregate("sum", "x").output_name() == "sum(x)"
        assert Aggregate("count", None).output_name() == "count(*)"


class TestComparisonValidation:
    def test_bad_operator_rejected(self):
        with pytest.raises(ValueError, match="unknown comparison"):
            Comparison("x", "~", 1)


class TestStructuralHelpers:
    def test_measures_and_dimensions(self):
        q = parse_query(
            "SELECT a, sum(b), avg(c) FROM t "
            "WHERE d = 1 AND e > 2 GROUP BY a"
        )
        assert q.measure_columns() == {"b", "c"}
        assert q.dimension_columns() == {"a", "d", "e"}

    def test_join_columns(self):
        q = parse_query("SELECT sum(x) FROM t JOIN u ON l = r")
        assert q.join_columns() == {"l", "r"}
        assert q.dimension_columns() >= {"l", "r"}

    def test_is_aggregation(self):
        assert parse_query("SELECT sum(x) FROM t").is_aggregation()
        assert not parse_query("SELECT x FROM t WHERE x > 1").is_aggregation()

    def test_predicate_columns_nested(self):
        pred = Or((
            And((Comparison("a", "=", 1), Not(Between("b", 1, 2)))),
            InList("c", (1, 2)),
        ))
        assert predicate_columns(pred) == {"a", "b", "c"}

    def test_predicate_columns_none(self):
        assert predicate_columns(None) == set()

    def test_predicate_usage_kinds(self):
        pred = And((
            Comparison("a", "=", 1),
            Comparison("a", ">", 0),
            Between("b", 1, 5),
            InList("c", ("x",)),
            Not(Comparison("d", "!=", 2)),
        ))
        usage = predicate_usage(pred)
        assert usage["a"] == {"eq", "range"}
        assert usage["b"] == {"range"}
        assert usage["c"] == {"eq"}
        assert usage["d"] == {"eq"}

    def test_query_is_hashable(self):
        q1 = parse_query("SELECT sum(x) FROM t WHERE y = 1")
        q2 = parse_query("SELECT sum(x) FROM t WHERE y = 1")
        assert q1 == q2 and hash(q1) == hash(q2)
