"""SeabedSession facade: translation cache and constructor surface."""

import gc
import weakref

import numpy as np
import pytest

from repro.core.schema import ColumnSpec, TableSchema
from repro.core.session import (
    EncryptedTable,
    PreparedQuery,
    SeabedSession,
    TranslationCache,
)
from repro.errors import CryptoError, PlanningError, TranslationError
from repro.ops import OPS
from repro.query.parser import parse_query


def _populate(session, n=3000, seed=11, upload=True):
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
    if upload:
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
        with pytest.raises(TranslationError, match=unknown):
            session.query(parse_query(sql), expected_groups=4)
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


class TestSqlSurface:
    def test_parsed_query_runs_like_its_text(self, sess):
        session, data = sess
        sql = "SELECT hour, sum(value) FROM events WHERE hour > 20 GROUP BY hour"
        text_rows = session.query(sql).rows
        assert session.query(parse_query(sql)).rows == text_rows
        assert {r["hour"] for r in text_rows} == {21, 22, 23}
        for row in text_rows:
            assert row["sum(value)"] == int(
                data["value"][data["hour"] == row["hour"]].sum()
            )
        assert session.cache_stats()["size"] == 1  # one shape, one entry

    def test_grouped_params_bind_per_call(self, sess):
        session, data = sess
        sql = "SELECT hour, sum(value) FROM events WHERE hour <= :hi GROUP BY hour"
        before = OPS.snapshot()
        for hi in (3, 23):
            rows = session.query(sql, hi=hi).rows
            assert {r["hour"] for r in rows} == set(range(hi + 1))
            assert sum(r["sum(value)"] for r in rows) == int(
                data["value"][data["hour"] <= hi].sum()
            )
        assert OPS.delta(before).get("translate", 0) <= 1

    def test_scan_takes_a_parsed_query(self, sess):
        session, data = sess
        sql = "SELECT value FROM events WHERE hour = :h"
        got = session.scan(parse_query(sql), h=7).rows
        assert sorted(r["value"] for r in got) == sorted(
            data["value"][data["hour"] == 7].tolist()
        )


class TestSessionSurface:
    def test_the_client_shims_no_longer_exist(self):
        import importlib

        import repro
        import repro.query

        with pytest.raises(AttributeError):
            repro.SeabedClient
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.core.proxy")
        with pytest.raises(TypeError):
            SeabedSession(server=object())
        session = SeabedSession(mode="seabed", seed=5)
        with pytest.raises(AttributeError):
            session.server = object()
        # SQL text (or its parsed Query) is the one way to say a query.
        for name in ("QueryBuilder", "col"):
            assert not hasattr(repro, name)
        assert not hasattr(repro.query, "render_sql")
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.query.builder")
        for cls, name in ((SeabedSession, "table"), (SeabedSession, "query_many"),
                          (EncryptedTable, "builder"), (PreparedQuery, "sql")):
            assert not hasattr(cls, name), f"{cls.__name__}.{name}"

    def test_result_types_importable_from_session(self):
        from repro.core.session import AppendStats, LinRegResult, QueryResult

        assert QueryResult([]).rows == []
        assert AppendStats("t", 0, 1, 0.0, 0.0, 0).table == "t"
        assert LinRegResult(1.0, 0.0, 1.0, 1, 2).real_time == 0.0

    def test_unknown_mode_rejected(self):
        with pytest.raises(PlanningError, match="unknown client mode"):
            SeabedSession(mode="bogus")

    def test_prf_backend_aes_ni_is_the_default(self):
        assert SeabedSession(prf_backend="aes-ni").mode == SeabedSession().mode == "seabed"

    @pytest.mark.parametrize("name", ["splitmix64", "blake2", "aes-ctr", "AES-NI"])
    def test_any_other_prf_backend_is_refused(self, name):
        with pytest.raises(CryptoError, match="'aes-ni' PRF only"):
            SeabedSession(prf_backend=name)

    def test_unplanned_table_raises(self):
        session = SeabedSession(mode="seabed", seed=5)
        with pytest.raises(PlanningError, match="create_plan"):
            session.query("SELECT sum(v) FROM nope")


class TestSessionLifetime:
    """A session held by nothing is freed by reference counting: nothing
    it owns points back at it, so its stores unmap without waiting for a
    full garbage collection."""

    @staticmethod
    def _mapped(root):
        return [m for m in gc.get_objects()
                if isinstance(m, np.memmap) and str(m.filename).startswith(root)]

    def test_a_dropped_session_unmaps_its_store_without_a_collection(self, tmp_path):
        gc.collect()
        gc.disable()
        try:
            session = SeabedSession(mode="seabed", seed=5)
            data = _populate(session, upload=False)
            session.upload("events", data, num_partitions=4, path=tmp_path / "events")
            session.query("SELECT sum(value) FROM events WHERE hour > 3")
            session.scan("SELECT value FROM events WHERE hour > 20")
            assert session.cache_stats()["size"] == 2
            assert self._mapped(str(tmp_path)), "the store is expected to be mapped"
            ref = weakref.ref(session)
            del session
            assert ref() is None
            assert not self._mapped(str(tmp_path))
        finally:
            gc.enable()

    def test_a_prepared_query_keeps_its_session_working(self):
        session = SeabedSession(mode="seabed", seed=5)
        data = _populate(session, n=400)
        prepared = session.prepare("SELECT sum(value) FROM events WHERE hour > :h")
        session.query("SELECT sum(value) FROM events WHERE hour > 3")  # a cached entry
        del session
        gc.collect()
        assert prepared.execute(h=5).rows[0]["sum(value)"] == int(
            data["value"][data["hour"] > 5].sum())
