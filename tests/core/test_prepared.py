"""PreparedQuery: translate once, execute many (repro.core.session)."""

import numpy as np
import pytest

from repro.core.schema import ColumnSpec, TableSchema
from repro.core.session import SeabedSession
from repro.errors import TranslationError
from repro.ops import OPS
from repro.query.parser import parse_query

COUNTRIES = ["us", "ca", "in", "uk"]


def _make_session(mode="seabed", **kwargs):
    rng = np.random.default_rng(7)
    n = 4000
    data = {
        "country": rng.choice(COUNTRIES, n),
        "amount": rng.integers(0, 1000, n).astype(np.int64),
        "rank": rng.integers(0, 100, n).astype(np.int64),
        "hour": rng.integers(0, 24, n).astype(np.int64),
    }
    schema = TableSchema("visits", [
        ColumnSpec(
            "country", dtype="str", sensitive=True,
            distinct_values=COUNTRIES,
            value_counts={c: int((data["country"] == c).sum()) for c in COUNTRIES},
        ),
        ColumnSpec("amount", dtype="int", sensitive=True, nbits=32),
        ColumnSpec("rank", dtype="int", sensitive=True, nbits=32),
        ColumnSpec("hour", dtype="int", sensitive=False),
    ])
    session = SeabedSession(mode=mode, seed=3, **kwargs)
    session.create_plan(schema, [
        "SELECT sum(amount) FROM visits WHERE hour > 2",
        "SELECT sum(amount) FROM visits WHERE rank > 10",
        "SELECT sum(amount) FROM visits WHERE country = 'us'",
        "SELECT hour, sum(amount) FROM visits GROUP BY hour",
    ])
    session.upload("visits", data)
    return session, data


@pytest.fixture(scope="module")
def sess():
    return _make_session()


class TestZeroTranslationReexecution:
    def test_execute_does_no_parse_plan_translate(self, sess):
        session, _ = sess
        prepared = session.prepare(
            "SELECT sum(amount), count(*) FROM visits WHERE hour BETWEEN :lo AND :hi"
        )
        before = OPS.snapshot()
        for lo in range(6):
            prepared.execute(lo=lo, hi=lo + 2)
        delta = OPS.delta(before)
        assert delta.get("parse", 0) == 0
        assert delta.get("plan", 0) == 0
        assert delta.get("translate", 0) == 0
        assert delta.get("prepare", 0) == 0
        assert delta.get("prepared_execute") == 6

    def test_results_match_cold_queries(self, sess):
        session, data = sess
        prepared = session.prepare(
            "SELECT sum(amount), count(*) FROM visits WHERE hour BETWEEN :lo AND :hi"
        )
        for lo, hi in [(0, 4), (5, 11), (12, 23)]:
            warm = prepared.execute(lo=lo, hi=hi).rows
            cold = session.query(
                f"SELECT sum(amount), count(*) FROM visits "
                f"WHERE hour BETWEEN {lo} AND {hi}"
            ).rows
            mask = (data["hour"] >= lo) & (data["hour"] <= hi)
            expected = int(data["amount"][mask].sum())
            assert warm == cold
            assert warm[0]["sum(amount)"] == expected
            assert warm[0]["count(*)"] == int(mask.sum())

    def test_ore_parameter_rebinds_tokens(self, sess):
        session, data = sess
        prepared = session.prepare(
            "SELECT count(*) FROM visits WHERE rank >= :cutoff"
        )
        for cutoff in (0, 33, 66, 99):
            got = prepared.execute(cutoff).rows[0]["count(*)"]
            assert got == int((data["rank"] >= cutoff).sum())

    def test_in_list_parameters(self, sess):
        session, data = sess
        prepared = session.prepare(
            "SELECT count(*) FROM visits WHERE hour IN (:a, :b, 5)"
        )
        got = prepared.execute(a=1, b=2).rows[0]["count(*)"]
        expected = int(np.isin(data["hour"], [1, 2, 5]).sum())
        assert got == expected

    def test_grouped_prepared_query(self, sess):
        session, data = sess
        prepared = session.prepare(
            "SELECT hour, sum(amount) FROM visits WHERE hour <= :hi GROUP BY hour"
        )
        rows = prepared.execute(hi=3).rows
        assert {r["hour"] for r in rows} == {0, 1, 2, 3}
        for row in rows:
            expected = int(data["amount"][data["hour"] == row["hour"]].sum())
            assert row["sum(amount)"] == expected


class TestParameterBinding:
    def test_positional_binding_uses_declaration_order(self, sess):
        session, data = sess
        prepared = session.prepare(
            "SELECT count(*) FROM visits WHERE hour BETWEEN :lo AND :hi"
        )
        assert prepared.param_names == ("lo", "hi")
        got = prepared.execute(3, 9).rows[0]["count(*)"]
        assert got == int(((data["hour"] >= 3) & (data["hour"] <= 9)).sum())

    def test_missing_parameter_rejected(self, sess):
        session, _ = sess
        prepared = session.prepare(
            "SELECT count(*) FROM visits WHERE hour BETWEEN :lo AND :hi"
        )
        with pytest.raises(TranslationError, match="missing values.*hi"):
            prepared.execute(lo=0)

    def test_unknown_parameter_rejected(self, sess):
        session, _ = sess
        prepared = session.prepare("SELECT count(*) FROM visits WHERE hour = :h")
        with pytest.raises(TranslationError, match="unknown parameter"):
            prepared.execute(h=0, whoops=1)

    def test_double_binding_rejected(self, sess):
        session, _ = sess
        prepared = session.prepare("SELECT count(*) FROM visits WHERE hour = :h")
        with pytest.raises(TranslationError, match="both positionally and by name"):
            prepared.execute(1, h=2)

    def test_too_many_positionals_rejected(self, sess):
        session, _ = sess
        prepared = session.prepare("SELECT count(*) FROM visits WHERE hour = :h")
        with pytest.raises(TranslationError, match="positional"):
            prepared.execute(1, 2)

    def test_query_binds_named_params_through_the_cache(self, sess):
        session, data = sess
        before = OPS.snapshot()
        for h in (2, 5, 9):
            got = session.query(
                "SELECT count(*) FROM visits WHERE hour = :h", h=h
            ).rows[0]["count(*)"]
            assert got == int((data["hour"] == h).sum())
        assert OPS.delta(before).get("translate", 0) <= 1  # shape cached

    def test_query_missing_param_value_rejected(self, sess):
        session, _ = sess
        with pytest.raises(TranslationError, match="missing values.*h"):
            session.query("SELECT count(*) FROM visits WHERE hour = :h")

    def test_query_unknown_param_value_rejected(self, sess):
        session, _ = sess
        with pytest.raises(TranslationError, match="unknown parameters"):
            session.query(
                "SELECT count(*) FROM visits WHERE hour = :h", h=1, typo=2
            )

    def test_user_named_param_collision_is_explicit(self, sess):
        session, data = sess
        prepared = session.prepare(
            "SELECT count(*) FROM visits WHERE hour = :user"
        )
        with pytest.raises(TranslationError, match="reserved user="):
            prepared.execute(user=5)
        # Positional binding is the documented escape hatch.
        got = prepared.execute(5).rows[0]["count(*)"]
        assert got == int((data["hour"] == 5).sum())


class TestPrepareTimeValidation:
    def test_splashe_parameter_rejected_at_prepare(self, sess):
        session, _ = sess
        with pytest.raises(TranslationError, match="SPLASHE-planned"):
            session.prepare(
                "SELECT sum(amount) FROM visits WHERE country = :c"
            )

    def test_unfilterable_measure_rejected_at_prepare(self, sess):
        session, _ = sess
        # amount has no ORE/DET companion column (never filtered in the
        # sample set), so even a parameterised range must fail eagerly.
        with pytest.raises(TranslationError, match="not planned for filtering"):
            session.prepare("SELECT count(*) FROM visits WHERE amount > :x")


class TestPreparedScan:
    def test_scan_with_parameters(self, sess):
        session, data = sess
        prepared = session.prepare(
            "SELECT amount, hour FROM visits WHERE hour = :h"
        )
        assert prepared.kind == "scan"
        before = OPS.snapshot()
        for h in (2, 7, 19):
            rows = prepared.execute(h=h).rows
            assert len(rows) == int((data["hour"] == h).sum())
            mask = data["hour"] == h
            assert sorted(r["amount"] for r in rows) == sorted(
                data["amount"][mask].tolist()
            )
        delta = OPS.delta(before)
        assert delta.get("translate", 0) == 0
        assert delta.get("parse", 0) == 0

    def test_scan_rejects_aggregation_and_vice_versa(self, sess):
        session, _ = sess
        with pytest.raises(TranslationError, match="projection"):
            session.scan("SELECT sum(amount) FROM visits")
        # query() must not silently degrade a projection into a row scan.
        with pytest.raises(TranslationError, match="use scan"):
            session.query("SELECT amount FROM visits")
        prepared = session.prepare(parse_query("SELECT amount FROM visits"))
        assert prepared.kind == "scan"


class TestPreparedRepr:
    def test_repr_names_table_and_params(self, sess):
        session, _ = sess
        prepared = session.prepare(
            "SELECT count(*) FROM visits WHERE hour BETWEEN :lo AND :hi"
        )
        assert "visits" in repr(prepared)
        assert "['lo', 'hi']" in repr(prepared)
