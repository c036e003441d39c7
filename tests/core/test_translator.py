"""Tests for the query translator (repro.core.translator).

These check the *structure* of rewrites (the paper's Table 2 claims);
value-level correctness is covered by the integration suite.
"""

import numpy as np
import pytest

from repro.core import server as srv
from repro.core.crypto_factory import CryptoFactory
from repro.core.encryptor import ClientTableState, EncryptionModule
from repro.core.planner import Planner
from repro.core.schema import ColumnSpec, TableSchema
from repro.core.translator import QueryTranslator
from repro.crypto.keys import KeyChain
from repro.errors import TranslationError
from repro.query.parser import parse_query


def build_state(mode="seabed"):
    schema = TableSchema("t", [
        ColumnSpec("amount", dtype="int", sensitive=True),
        ColumnSpec("country", dtype="str", sensitive=True,
                   distinct_values=["us", "ca", "in", "uk"],
                   value_counts={"us": 500, "ca": 400, "in": 60, "uk": 40}),
        ColumnSpec("gender", dtype="str", sensitive=True,
                   distinct_values=["m", "f"]),
        ColumnSpec("ts", dtype="int", sensitive=True, nbits=16),
        ColumnSpec("year", dtype="int", sensitive=False),
    ])
    samples = [
        parse_query("SELECT sum(amount), var(amount) FROM t WHERE country = 'us'"),
        parse_query("SELECT sum(amount) FROM t WHERE gender = 'f'"),
        parse_query("SELECT sum(amount) FROM t WHERE ts > 5"),
        parse_query("SELECT min(amount) FROM t"),
        parse_query("SELECT country, sum(amount) FROM t GROUP BY country"),
    ]
    enc, _ = Planner(mode=mode).plan(schema, samples)
    state = ClientTableState(schema=schema, enc_schema=enc)
    factory = CryptoFactory(KeyChain(b"k" * 32), "t")
    rng = np.random.default_rng(0)
    n = 300
    columns = {
        "amount": rng.integers(0, 100, n),
        "country": rng.choice(["us", "ca", "in", "uk"], n, p=[0.5, 0.4, 0.06, 0.04]),
        "gender": rng.choice(["m", "f"], n),
        "ts": rng.integers(0, 100, n),
        "year": rng.integers(2014, 2017, n),
    }
    module = EncryptionModule(factory, seed=0)
    module.encrypt_batch(state, columns, module.balance_splashe(state, columns),
                         num_partitions=2)
    return state, factory


@pytest.fixture(scope="module")
def translator():
    state, factory = build_state()
    return QueryTranslator(state, factory)


class TestBasicRewrites:
    def test_simple_sum_targets_cipher_column(self, translator):
        tq = translator.translate(parse_query("SELECT sum(amount) FROM t"))
        assert tq.shape == "flat"
        agg = tq.requests[0].aggs[0]
        assert isinstance(agg, srv.AsheSum)
        assert agg.column == "amount__ashe"

    def test_plain_predicate_stays_plain(self, translator):
        tq = translator.translate(
            parse_query("SELECT sum(amount) FROM t WHERE year = 2015")
        )
        assert isinstance(tq.requests[0].filter, srv.PlainCmp)

    def test_range_predicate_becomes_ore_token(self, translator):
        tq = translator.translate(
            parse_query("SELECT sum(amount) FROM t WHERE ts > 5")
        )
        f = tq.requests[0].filter
        assert isinstance(f, srv.OreCmp)
        assert f.column == "ts__ore"
        assert f.token != (5,)  # the constant is encrypted, not literal

    def test_between_becomes_and_of_ore(self, translator):
        tq = translator.translate(
            parse_query("SELECT sum(amount) FROM t WHERE ts BETWEEN 3 AND 9")
        )
        f = tq.requests[0].filter
        assert isinstance(f, srv.FilterAnd) and len(f.children) == 2

    def test_count_star_reuses_ashe_ids(self, translator):
        """Table 2's ID-preservation: the count comes off the sum's ID
        list, not a second scan."""
        tq = translator.translate(
            parse_query("SELECT sum(amount), count(*) FROM t WHERE ts > 5")
        )
        count_item = tq.outputs[1]
        assert count_item.count_mode == "ids"
        assert len(tq.requests[0].aggs) == 1  # no extra count op

    def test_avg_splits_into_sum_and_count(self, translator):
        tq = translator.translate(parse_query("SELECT avg(amount) FROM t"))
        item = tq.outputs[0]
        assert item.kind == "avg"
        assert item.sum_refs and item.count_refs

    def test_variance_uses_squares_column(self, translator):
        tq = translator.translate(parse_query("SELECT var(amount) FROM t"))
        item = tq.outputs[0]
        sq_alias = item.sumsq_refs[0][1]
        agg = {a.alias: a for a in tq.requests[0].aggs}[sq_alias]
        assert agg.column == "amount__sq__ashe"
        assert tq.category == "CPre"

    def test_min_uses_ore_with_ashe_payload(self, translator):
        tq = translator.translate(parse_query("SELECT min(amount) FROM t"))
        agg = tq.requests[0].aggs[0]
        assert isinstance(agg, srv.OreExtreme)
        assert agg.ore_column == "amount__ore"
        assert agg.payload_column == "amount__ashe"

    def test_projection_rejected(self, translator):
        with pytest.raises(TranslationError, match="aggregation queries"):
            translator.translate(parse_query("SELECT amount FROM t WHERE ts > 5"))


class TestSplasheRewrites:
    def test_equality_on_splashe_dim_vanishes(self, translator):
        """The Table 2 SPLASHE rewrite: the WHERE clause disappears and the
        aggregation retargets a splayed column."""
        tq = translator.translate(
            parse_query("SELECT sum(amount) FROM t WHERE gender = 'f'")
        )
        req = tq.requests[0]
        assert req.filter is None
        assert req.aggs[0].column.startswith("amount@gender@")

    def test_enhanced_frequent_value_uses_splayed_column(self, translator):
        tq = translator.translate(
            parse_query("SELECT sum(amount) FROM t WHERE country = 'us'")
        )
        req = tq.requests[0]
        assert req.filter is None
        assert "amount@country@" in req.aggs[0].column

    def test_enhanced_infrequent_value_uses_det_filtered_catchall(self, translator):
        tq = translator.translate(
            parse_query("SELECT sum(amount) FROM t WHERE country = 'uk'")
        )
        # Side request: catch-all column with a DET filter.
        assert len(tq.requests) == 2
        side = tq.requests[1]
        assert isinstance(side.filter, srv.DetEq)
        assert side.filter.column == "country__det"
        assert side.aggs[0].column == "amount@country@oth__ashe"

    def test_unknown_value_yields_no_refs(self, translator):
        tq = translator.translate(
            parse_query("SELECT sum(amount) FROM t WHERE gender = 'x'")
        )
        assert tq.outputs[0].sum_refs == []

    def test_count_uses_indicators(self, translator):
        tq = translator.translate(
            parse_query("SELECT count(*) FROM t WHERE gender = 'm'")
        )
        alias = tq.outputs[0].count_refs[0][1]
        agg = {a.alias: a for a in tq.requests[0].aggs}[alias]
        assert agg.column == "gender@0__ind"

    def test_in_list_sums_multiple_columns(self, translator):
        tq = translator.translate(
            parse_query("SELECT sum(amount) FROM t WHERE gender IN ('m', 'f')")
        )
        assert len(tq.outputs[0].sum_refs) == 2

    def test_or_with_splashe_rejected(self, translator):
        with pytest.raises(TranslationError, match="top-level"):
            translator.translate(parse_query(
                "SELECT sum(amount) FROM t WHERE gender = 'm' OR ts > 5"
            ))

    def test_range_on_splashe_rejected(self, translator):
        with pytest.raises(TranslationError, match="top-level equality"):
            translator.translate(parse_query(
                "SELECT sum(amount) FROM t WHERE gender > 'a'"
            ))


class TestGroupByRewrites:
    def test_group_by_plain(self, translator):
        tq = translator.translate(
            parse_query("SELECT year, sum(amount) FROM t GROUP BY year")
        )
        assert tq.shape == "grouped"
        assert tq.requests[0].group_by == "year"
        assert tq.group_decode == "plain"

    def test_group_by_splashe_basic(self, translator):
        tq = translator.translate(
            parse_query("SELECT gender, sum(amount) FROM t GROUP BY gender")
        )
        assert tq.shape == "splashe_group"
        assert tq.group_request is None  # basic: no grouped request at all
        assert tq.splashe_group_codes == [0, 1]

    def test_group_by_splashe_enhanced_adds_catchall_request(self, translator):
        tq = translator.translate(
            parse_query("SELECT country, sum(amount) FROM t GROUP BY country")
        )
        assert tq.shape == "splashe_group"
        assert tq.group_request == 1
        assert tq.requests[1].group_by == "country__det"

    def test_group_by_ore_rejected(self, translator):
        with pytest.raises(TranslationError, match="GROUP BY"):
            translator.translate(
                parse_query("SELECT ts, sum(amount) FROM t GROUP BY ts")
            )

    def test_multi_column_group_rejected(self, translator):
        with pytest.raises(TranslationError, match="single-column"):
            translator.translate(parse_query(
                "SELECT year, gender, sum(amount) FROM t GROUP BY year, gender"
            ))

    def test_group_codec_drops_ranges(self):
        """Section 4.5: the paper's group-by codec is VB+Diff without ranges."""
        codec = srv.get_codec("groupby")
        assert codec.use_diff and not codec.use_ranges


class TestCategories:
    def test_server_only(self, translator):
        tq = translator.translate(parse_query("SELECT sum(amount) FROM t"))
        assert tq.category == "S"

    def test_avg_is_still_server(self, translator):
        tq = translator.translate(parse_query("SELECT avg(amount) FROM t"))
        assert tq.category == "S"

    def test_stddev_is_cpre(self, translator):
        tq = translator.translate(parse_query("SELECT stddev(amount) FROM t"))
        assert tq.category == "CPre"
