"""SeabedSession facade: translation cache, batching, constructor surface."""

import numpy as np
import pytest

from repro.core.schema import ColumnSpec, TableSchema
from repro.core.session import PreparedQuery, SeabedSession, TranslationCache
from repro.errors import PlanningError, TranslationError
from repro.ops import OPS
from repro.query.builder import col


def _populate(session, n=3000, seed=11):
    rng = np.random.default_rng(seed)
    data = {
        "value": rng.integers(0, 500, n).astype(np.int64),
        "hour": rng.integers(0, 24, n).astype(np.int64),
    }
    schema = TableSchema("events", [
        ColumnSpec("value", dtype="int", sensitive=True, nbits=32),
        ColumnSpec("hour", dtype="int", sensitive=False),
    ])
    session.create_plan(schema, [
        "SELECT sum(value) FROM events WHERE hour > 1",
        "SELECT hour, sum(value) FROM events GROUP BY hour",
    ])
    session.upload("events", data)
    return data


@pytest.fixture()
def sess():
    session = SeabedSession(mode="seabed", seed=5)
    data = _populate(session)
    return session, data


class TestTranslationCache:
    def test_lru_evicts_oldest(self):
        cache = TranslationCache(maxsize=2)
        a, b, c = object(), object(), object()
        cache.put("a", a)
        cache.put("b", b)
        assert cache.get("a") is a  # refresh "a"
        cache.put("c", c)  # evicts "b"
        assert cache.get("b") is None
        assert cache.get("a") is a
        assert cache.get("c") is c

    def test_zero_size_disables_caching(self):
        cache = TranslationCache(maxsize=0)
        cache.put("k", object())
        assert cache.get("k") is None

    def test_same_shape_translates_once(self, sess):
        session, data = sess
        before = OPS.snapshot()
        for h in range(8):
            got = session.query(
                f"SELECT sum(value) FROM events WHERE hour = {h}"
            ).rows[0]["sum(value)"]
            assert got == int(data["value"][data["hour"] == h].sum()) or got is None
        delta = OPS.delta(before)
        assert delta.get("translate") == 1
        assert delta.get("cache_hit") == 7
        assert session.cache_stats()["hits"] >= 7

    def test_distinct_shapes_get_distinct_entries(self, sess):
        session, _ = sess
        session.query("SELECT sum(value) FROM events WHERE hour = 1")
        session.query("SELECT sum(value) FROM events WHERE hour > 1")
        session.query("SELECT sum(value), count(*) FROM events WHERE hour = 1")
        assert session.cache_stats()["size"] == 3

    def test_a_group_count_hint_is_an_unknown_parameter(self, sess):
        """``expected_groups`` is gone: a caller still passing it reaches
        ``**params`` and is told so, not silently ignored."""
        session, _ = sess
        sql = "SELECT hour, sum(value) FROM events GROUP BY hour"
        unknown = r"unknown parameters \['expected_groups'\]"
        with pytest.raises(TranslationError, match=unknown):
            session.query(sql, expected_groups=4)
        builder = session.table("events").group_by("hour").sum("value")
        with pytest.raises(TranslationError, match=unknown):
            builder.execute(expected_groups=4)
        assert session.cache_stats()["size"] == 0

    def test_replanning_invalidates_cache(self, sess):
        session, data = sess
        session.query("SELECT sum(value) FROM events WHERE hour = 1")
        assert session.cache_stats()["size"] == 1
        # Re-planning replaces the table's encrypted schema: every cached
        # translation is stale and must be dropped.
        schema = session.table_state("events").schema
        session.create_plan(schema, [
            "SELECT sum(value) FROM events WHERE hour > 1",
            "SELECT hour, sum(value) FROM events GROUP BY hour",
        ])
        assert session.cache_stats()["size"] == 0
        got = session.query("SELECT sum(value) FROM events WHERE hour = 1")
        assert got.rows[0]["sum(value)"] == int(
            data["value"][data["hour"] == 1].sum()
        )

    def test_scan_shares_the_cache(self, sess):
        session, data = sess
        before = OPS.snapshot()
        for h in (1, 2, 3):
            rows = session.scan(
                f"SELECT value FROM events WHERE hour = {h}"
            ).rows
            assert len(rows) == int((data["hour"] == h).sum())
        assert OPS.delta(before).get("prepare") == 1


class TestFluentSurface:
    def test_table_builder_is_session_bound(self, sess):
        session, data = sess
        result = (
            session.table("events")
            .where(col("hour") > 20)
            .group_by("hour")
            .sum("value")
            .execute()
        )
        assert {r["hour"] for r in result.rows} == {21, 22, 23}
        for row in result.rows:
            assert row["sum(value)"] == int(
                data["value"][data["hour"] == row["hour"]].sum()
            )

    def test_builder_execute_with_params(self, sess):
        session, data = sess
        from repro.query.ast import Param

        result = (
            session.table("events")
            .where(col("hour") == Param("h"))
            .count()
            .execute(h=5)
        )
        assert result.rows[0]["count(*)"] == int((data["hour"] == 5).sum())

    def test_builder_params_use_the_translation_cache(self, sess):
        session, data = sess
        from repro.query.ast import Param

        builder = (
            session.table("events")
            .where(col("hour") == Param("h"))
            .count()
        )
        before = OPS.snapshot()
        for h in (1, 2, 3, 4):
            got = builder.execute(h=h).rows[0]["count(*)"]
            assert got == int((data["hour"] == h).sum())
        delta = OPS.delta(before)
        assert delta.get("translate", 0) <= 1  # one shape, one translation
        # Positional binding follows declaration order too.
        got = builder.execute(6).rows[0]["count(*)"]
        assert got == int((data["hour"] == 6).sum())

    def test_builder_prepare(self, sess):
        session, data = sess
        from repro.query.ast import Param

        prepared = (
            session.table("events")
            .where(col("hour") <= Param("hi"))
            .sum("value")
            .prepare()
        )
        assert isinstance(prepared, PreparedQuery)
        got = prepared.execute(hi=23).rows[0]["sum(value)"]
        assert got == int(data["value"].sum())


class TestQueryManyOverrides:
    def test_prepared_instances_in_batch(self, sess):
        session, data = sess
        p_flat = session.prepare("SELECT count(*) FROM events")
        p_param = session.prepare("SELECT count(*) FROM events WHERE hour = :h")
        before = OPS.snapshot()
        results = session.query_many([
            p_flat,
            (p_param, {"h": 3}),
            (p_param, {"h": 9}),
        ])
        assert OPS.delta(before).get("translate", 0) == 0
        assert results[0].rows[0]["count(*)"] == len(data["hour"])
        assert results[1].rows[0]["count(*)"] == int((data["hour"] == 3).sum())
        assert results[2].rows[0]["count(*)"] == int((data["hour"] == 9).sum())

    def test_malformed_batch_items_rejected(self, sess):
        session, _ = sess
        with pytest.raises(TranslationError, match="batch tuples"):
            session.query_many([("a", "b", "c")])
        grouped = "SELECT hour, sum(value) FROM events GROUP BY hour"
        for stale in ((grouped, 4), (grouped, None)):  # a (query, group count) pair
            with pytest.raises(TranslationError, match="batch tuples"):
                session.query_many([stale])
        p = session.prepare("SELECT count(*) FROM events")
        with pytest.raises(TranslationError, match="parameter mapping"):
            session.query_many([(p, 3)])

    def test_batch_results_in_input_order(self, sess):
        session, data = sess
        queries = [
            f"SELECT sum(value), count(*) FROM events WHERE hour = {h}"
            for h in range(10)
        ]
        assert session.query_many([]) == []
        results = session.query_many(queries)
        for h, result in enumerate(results):
            mask = data["hour"] == h
            assert result.rows[0]["count(*)"] == int(mask.sum())
            assert result.rows[0]["sum(value)"] == int(data["value"][mask].sum())


class TestSessionSurface:
    def test_the_client_shims_no_longer_exist(self):
        import importlib

        import repro

        with pytest.raises(AttributeError):
            repro.SeabedClient
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.core.proxy")
        with pytest.raises(TypeError):
            SeabedSession(server=object())
        session = SeabedSession(mode="seabed", seed=5)
        with pytest.raises(AttributeError):
            session.server = object()

    def test_result_types_importable_from_session(self):
        from repro.core.session import LinRegResult, QueryResult, UploadStats

        assert QueryResult([]).rows == []
        assert UploadStats("t", 0, 0.0, 0).table == "t"
        assert LinRegResult(1.0, 0.0, 1.0, 1, 2).real_time == 0.0

    def test_unknown_mode_rejected(self):
        with pytest.raises(PlanningError, match="unknown client mode"):
            SeabedSession(mode="bogus")

    def test_unplanned_table_raises(self):
        session = SeabedSession(mode="seabed", seed=5)
        with pytest.raises(PlanningError, match="create_plan"):
            session.query("SELECT sum(v) FROM nope")
