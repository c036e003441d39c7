"""Tests for schema structures (repro.core.schema)."""

import pytest

from repro.core import schema as sc
from repro.errors import PlanningError


class TestTableSchema:
    def test_lookup(self):
        schema = sc.TableSchema("t", [sc.ColumnSpec("a"), sc.ColumnSpec("b")])
        assert schema.column("a").name == "a"
        assert schema.column_names() == ["a", "b"]

    def test_missing_column(self):
        schema = sc.TableSchema("t", [sc.ColumnSpec("a")])
        with pytest.raises(PlanningError, match="no column"):
            schema.column("z")

    def test_duplicate_names_rejected(self):
        with pytest.raises(PlanningError, match="duplicate"):
            sc.TableSchema("t", [sc.ColumnSpec("a"), sc.ColumnSpec("a")])

    def test_bad_dtype_rejected(self):
        with pytest.raises(PlanningError, match="dtype"):
            sc.ColumnSpec("a", dtype="float")

    def test_value_counts_imply_domain(self):
        spec = sc.ColumnSpec("a", dtype="str", value_counts={"x": 3, "y": 1})
        assert spec.distinct_values == ["x", "y"]
        assert spec.cardinality == 2


class TestColumnPlans:
    def test_ashe_physical_columns(self):
        plan = sc.AshePlan("a", "a__ashe", squares_column="a__sq__ashe",
                           ore_column="a__ore")
        assert plan.physical_columns() == ["a__ashe", "a__sq__ashe", "a__ore"]

    def test_splashe_basic_physical_columns(self):
        plan = sc.SplasheBasicPlan(
            column="d", values=["x", "y"],
            indicator_columns=["d@0__ind", "d@1__ind"],
            measure_columns={"m": ["m@d@0__ashe", "m@d@1__ashe"]},
        )
        assert len(plan.physical_columns()) == 4
        assert plan.code_of("y") == 1
        assert plan.code_of("zzz") is None

    def test_splashe_enhanced_structure(self):
        plan = sc.SplasheEnhancedPlan(
            column="d", values=list("abcd"), frequent_codes=[0, 1],
            det_column="d__det",
            indicator_columns={0: "d@0__ind", 1: "d@1__ind"},
            others_indicator="d@oth__ind",
            measure_columns={"m": {0: "m@d@0__ashe", 1: "m@d@1__ashe"}},
            others_measure={"m": "m@d@oth__ashe"},
        )
        assert plan.is_frequent(1) and not plan.is_frequent(2)
        assert "d__det" in plan.physical_columns()
        assert plan.cardinality == 4

    def test_encrypted_schema_lookup(self):
        enc = sc.EncryptedSchema(
            table="t", mode="seabed",
            plans={"a": sc.PlainPlan(column="a")},
        )
        assert enc.plan("a").kind == "plain"
        with pytest.raises(PlanningError, match="no plan"):
            enc.plan("z")
        assert enc.physical_columns() == ["a"]

    def test_naming_helpers(self):
        assert sc.ashe_col("x") == "x__ashe"
        assert sc.splashe_measure_col("m", "d", 3) == "m@d@3__ashe"
        assert sc.splashe_indicator_col("d", "oth") == "d@oth__ind"
