"""Tests for the SQL-subset parser (repro.query.parser)."""

import pytest

from repro.errors import ParseError
from repro.query.ast import (
    Aggregate,
    And,
    Between,
    ColumnRef,
    Comparison,
    InList,
    Not,
    Or,
    Param,
)
from repro.query.parser import parse_query


class TestSelectList:
    def test_simple_sum(self):
        q = parse_query("SELECT sum(revenue) FROM sales")
        assert q.table == "sales"
        assert q.select == (Aggregate("sum", "revenue"),)

    def test_count_star(self):
        q = parse_query("SELECT count(*) FROM t")
        assert q.select == (Aggregate("count", None),)

    def test_alias(self):
        q = parse_query("SELECT sum(a) AS total FROM t")
        assert q.select[0].alias == "total"
        assert q.select[0].output_name() == "total"

    def test_multiple_items(self):
        q = parse_query("SELECT country, sum(x), avg(y) FROM t GROUP BY country")
        assert q.select == (
            ColumnRef("country"),
            Aggregate("sum", "x"),
            Aggregate("avg", "y"),
        )

    def test_all_aggregate_functions(self):
        sql = "SELECT sum(a), count(a), avg(a), min(a), max(a), var(a), stddev(a), median(a) FROM t"
        q = parse_query(sql)
        assert [i.func for i in q.select] == [
            "sum", "count", "avg", "min", "max", "var", "stddev", "median",
        ]

    def test_keywords_case_insensitive(self):
        q = parse_query("select SUM(a) from T where b = 1 GROUP by c")
        assert q.group_by == ("c",)

    def test_unknown_function(self):
        with pytest.raises(ParseError, match="unknown aggregate"):
            parse_query("SELECT frobnicate(a) FROM t")


class TestPredicates:
    def test_comparison_ops(self):
        for op in ("=", "!=", "<", "<=", ">", ">="):
            q = parse_query(f"SELECT sum(a) FROM t WHERE b {op} 10")
            assert q.where == Comparison("b", op, 10)

    def test_diamond_means_not_equal(self):
        q = parse_query("SELECT sum(a) FROM t WHERE b <> 10")
        assert q.where == Comparison("b", "!=", 10)

    def test_string_literal(self):
        q = parse_query("SELECT sum(a) FROM t WHERE country = 'Canada'")
        assert q.where == Comparison("country", "=", "Canada")

    def test_escaped_quote(self):
        q = parse_query(r"SELECT sum(a) FROM t WHERE c = 'O\'Brien'")
        assert q.where.value == "O'Brien"

    def test_float_literal(self):
        q = parse_query("SELECT sum(a) FROM t WHERE b > 1.5")
        assert q.where == Comparison("b", ">", 1.5)

    def test_and_or_precedence(self):
        q = parse_query("SELECT sum(a) FROM t WHERE x = 1 OR y = 2 AND z = 3")
        assert isinstance(q.where, Or)
        assert isinstance(q.where.children[1], And)

    def test_parentheses_override(self):
        q = parse_query("SELECT sum(a) FROM t WHERE (x = 1 OR y = 2) AND z = 3")
        assert isinstance(q.where, And)
        assert isinstance(q.where.children[0], Or)

    def test_not(self):
        q = parse_query("SELECT sum(a) FROM t WHERE NOT x = 1")
        assert q.where == Not(Comparison("x", "=", 1))

    def test_in_list(self):
        q = parse_query("SELECT sum(a) FROM t WHERE c IN ('us', 'ca', 'in')")
        assert q.where == InList("c", ("us", "ca", "in"))

    def test_between(self):
        q = parse_query("SELECT sum(a) FROM t WHERE d BETWEEN 5 AND 10")
        assert q.where == Between("d", 5, 10)

    def test_param_placeholders(self):
        q = parse_query("SELECT sum(a) FROM t WHERE h = :x")
        assert q.where == Comparison("h", "=", Param("x"))
        q = parse_query("SELECT sum(a) FROM t WHERE d BETWEEN :lo AND :hi")
        assert q.where == Between("d", Param("lo"), Param("hi"))
        q = parse_query("SELECT sum(a) FROM t WHERE c IN (:a, 2)")
        assert q.where == InList("c", (Param("a"), 2))

    def test_escaped_backslash_and_quote(self):
        q = parse_query(r"SELECT sum(a) FROM t WHERE s = 'o\'brien \\ co'")
        assert q.where.value == "o'brien \\ co"

    def test_nested_boolean_precedence(self):
        q = parse_query(
            "SELECT count(*) FROM t WHERE a > 1 AND (b > 2 OR c > 3) OR NOT d = 4"
        )
        a, b, c = (Comparison(n, ">", v) for n, v in (("a", 1), ("b", 2), ("c", 3)))
        assert q.where == Or((And((a, Or((b, c)))), Not(Comparison("d", "=", 4))))


class TestClauses:
    def test_group_by_multiple(self):
        q = parse_query("SELECT a, b, sum(c) FROM t GROUP BY a, b")
        assert q.group_by == ("a", "b")

    def test_join(self):
        q = parse_query(
            "SELECT sum(adRevenue) FROM uservisits "
            "JOIN rankings ON destURL = pageURL WHERE pageRank > 10"
        )
        assert q.join is not None
        assert q.join.table == "rankings"
        assert q.join.left_column == "destURL"
        assert q.join.right_column == "pageURL"

    def test_order_by_desc_and_limit(self):
        q = parse_query("SELECT a, sum(b) FROM t GROUP BY a ORDER BY a DESC LIMIT 5")
        assert q.order_by == (("a", True),)
        assert q.limit == 5

    def test_order_by_multiple(self):
        q = parse_query("SELECT a, b, sum(c) FROM t GROUP BY a, b ORDER BY a ASC, b DESC")
        assert q.order_by == (("a", False), ("b", True))


class TestErrors:
    def test_missing_from(self):
        with pytest.raises(ParseError, match="expected 'from'"):
            parse_query("SELECT sum(a) t")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError, match="expected 'eof'"):
            parse_query("SELECT sum(a) FROM t 42")

    def test_unterminated_predicate(self):
        with pytest.raises(ParseError):
            parse_query("SELECT sum(a) FROM t WHERE b =")

    def test_bad_character(self):
        with pytest.raises(ParseError, match="unexpected character"):
            parse_query("SELECT sum(a) FROM t WHERE b = #")

    def test_error_carries_position(self):
        with pytest.raises(ParseError, match="position"):
            parse_query("SELECT sum(a) FROM t WHERE = 3")

    def test_empty_select_rejected(self):
        with pytest.raises(ParseError):
            parse_query("SELECT FROM t")

    def test_empty_in_list_rejected(self):
        with pytest.raises(ParseError, match="expected a literal"):
            parse_query("SELECT sum(a) FROM t WHERE c IN ()")

    def test_negative_literal_rejected(self):
        # The dialect has no unary minus: a negative bound is an error,
        # never silently read as a positive one.
        with pytest.raises(ParseError, match="unexpected character '-'"):
            parse_query("SELECT sum(a) FROM t WHERE b > -1")

    def test_count_star_only(self):
        with pytest.raises(ValueError, match="not meaningful"):
            parse_query("SELECT sum(*) FROM t")
