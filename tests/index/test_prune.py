"""Pruning planner unit tests: sound skips, conservative keeps.

Every case is phrased against handcrafted zone maps so the soundness
argument is auditable: a partition may be dropped only when the stats
*prove* no row matches (or, under NOT, that every row matches the
negated child).
"""

import numpy as np

from repro.core.server import (
    DetEq,
    DetIn,
    FilterAnd,
    FilterNot,
    FilterOr,
    OreCmp,
    PlainCmp,
)
from repro.crypto.ore import OreScheme
from repro.index.bloom import BloomFilter
from repro.index.prune import (
    all_match,
    compile_zone_maps,
    extreme_candidates,
    may_match,
    survivors,
)

KEY = b"prune-unit-test-key-abcdefghijkl"
ORE = OreScheme(KEY, nbits=16)


def det_stats(*tokens):
    return {"rows": 4, "nulls": 0,
            "columns": {"c__det": {"kind": "det", "tokens": sorted(tokens)}}}


def bloom_stats(*tokens):
    bloom = BloomFilter.for_capacity(max(len(tokens), 65))
    bloom.add_tokens(np.asarray(tokens, dtype=np.uint64))
    return {"rows": 4, "nulls": 0,
            "columns": {"c__det": {"kind": "det", "bloom": bloom.to_dict()}}}


def ore_stats(lo, hi, column="t__ore"):
    return {"rows": 4, "nulls": 0, "columns": {column: {
        "kind": "ore",
        "min": list(ORE.encrypt_one(lo)),
        "max": list(ORE.encrypt_one(hi)),
    }}}


def plain_stats(lo, hi):
    return {"rows": 4, "nulls": 0,
            "columns": {"year": {"kind": "plain", "min": lo, "max": hi}}}


class TestDetEquality:
    def test_token_set_membership(self):
        assert may_match(det_stats(3, 7), DetEq("c__det", 7))
        assert not may_match(det_stats(3, 7), DetEq("c__det", 8))

    def test_bloom_membership_is_one_sided(self):
        stats = bloom_stats(3, 7)
        assert may_match(stats, DetEq("c__det", 7))  # never a false negative
        # An absent token is *usually* refuted; either answer is sound.
        assert may_match(stats, DetEq("c__det", 7)) in (True,)

    def test_negation_with_exact_sets(self):
        # Constant partition == token: no row satisfies !=.
        assert not may_match(det_stats(7), DetEq("c__det", 7, negate=True))
        assert may_match(det_stats(3, 7), DetEq("c__det", 7, negate=True))
        # all_match duality: token provably absent -> every row satisfies !=.
        assert all_match(det_stats(3, 9), DetEq("c__det", 7, negate=True))
        assert not all_match(det_stats(3, 7), DetEq("c__det", 7, negate=True))

    def test_in_list(self):
        assert may_match(det_stats(3, 7), DetIn("c__det", (1, 7)))
        assert not may_match(det_stats(3, 7), DetIn("c__det", (1, 2)))
        assert all_match(det_stats(3, 7), DetIn("c__det", (3, 7, 9)))
        assert not all_match(det_stats(3, 7), DetIn("c__det", (3,)))

    def test_missing_or_mismatched_stats_keep(self):
        assert may_match(None, DetEq("c__det", 1))
        assert may_match({"rows": 4, "columns": {}}, DetEq("c__det", 1))
        assert may_match(plain_stats(0, 1), DetEq("year", 1))


class TestOreRanges:
    def tok(self, v):
        return OreCmp("t__ore", self.op, ORE.token(v), 16)

    def test_all_six_operators(self):
        stats = ore_stats(10, 20)
        cases = [
            ("<", 10, False), ("<", 11, True),
            ("<=", 9, False), ("<=", 10, True),
            (">", 20, False), (">", 19, True),
            (">=", 21, False), (">=", 20, True),
            ("=", 9, False), ("=", 15, True), ("=", 21, False),
            ("!=", 15, True),
        ]
        for op, value, keep in cases:
            expr = OreCmp("t__ore", op, ORE.token(value), 16)
            assert may_match(stats, expr) is keep, (op, value)

    def test_constant_partition_not_equal(self):
        stats = ore_stats(15, 15)
        assert not may_match(stats, OreCmp("t__ore", "!=", ORE.token(15), 16))
        assert may_match(stats, OreCmp("t__ore", "!=", ORE.token(16), 16))

    def test_all_match_bounds(self):
        stats = ore_stats(10, 20)
        assert all_match(stats, OreCmp("t__ore", "<", ORE.token(21), 16))
        assert not all_match(stats, OreCmp("t__ore", "<", ORE.token(20), 16))
        assert all_match(stats, OreCmp("t__ore", ">=", ORE.token(10), 16))
        assert all_match(stats, OreCmp("t__ore", "!=", ORE.token(9), 16))
        assert not all_match(stats, OreCmp("t__ore", "!=", ORE.token(12), 16))


class TestPlainAndCombinators:
    def test_plain_bounds(self):
        stats = plain_stats(2014, 2016)
        assert not may_match(stats, PlainCmp("year", "=", 2013))
        assert may_match(stats, PlainCmp("year", "=", 2015))
        assert all_match(stats, PlainCmp("year", ">=", 2014))
        assert may_match(stats, PlainCmp("year", "=", "2015"))  # non-int: keep

    def test_and_intersects_or_unions(self):
        stats = plain_stats(2014, 2016)
        lo = PlainCmp("year", ">=", 2015)
        impossible = PlainCmp("year", ">", 2016)
        assert may_match(stats, FilterAnd((lo,)))
        assert not may_match(stats, FilterAnd((lo, impossible)))
        assert may_match(stats, FilterOr((impossible, lo)))
        assert not may_match(stats, FilterOr((impossible, impossible)))

    def test_not_uses_all_match_duality(self):
        stats = plain_stats(2014, 2016)
        assert not may_match(stats, FilterNot(PlainCmp("year", "<=", 2016)))
        assert may_match(stats, FilterNot(PlainCmp("year", "=", 2015)))
        assert all_match(stats, FilterNot(PlainCmp("year", ">", 2016)))

    def test_unknown_nodes_conservative(self):
        class Mystery:
            pass

        stats = plain_stats(0, 1)
        assert may_match(stats, Mystery())
        assert not all_match(stats, Mystery())


class TestSurvivors:
    MAPS = [plain_stats(2013, 2014), plain_stats(2015, 2016), None]

    def test_mask_keeps_uncertain_partitions(self):
        keep = survivors(self.MAPS, PlainCmp("year", "=", 2016))
        assert keep.tolist() == [False, True, True]

    def test_compiled_maps_answer_as_each_partition_does(self):
        """The compiled form's inverted token index (alone, or with the
        other conjuncts of an AND judged on what it keeps) keeps exactly
        what :func:`may_match` keeps, bloom and stat-less partitions
        included."""
        maps = [det_stats(3, 7), bloom_stats(7, 9), None, det_stats(9), det_stats(),
                plain_stats(2013, 2016)]
        compiled = compile_zone_maps(maps)
        year = PlainCmp("year", "<", 2014)
        for token in (3, 7, 9, 11):
            for expr in (DetEq("c__det", token), DetEq("c__det", token, negate=True),
                         FilterAnd((DetEq("c__det", token), year)),
                         FilterAnd((year, DetEq("c__det", token, negate=True),
                                    DetEq("c__det", 9))),
                         FilterOr((DetEq("c__det", token), DetEq("c__det", 3))),
                         DetEq("other__det", token)):
                want = [may_match(stats, expr) for stats in maps]
                assert survivors(compiled, expr).tolist() == want, expr
                assert survivors(maps, expr).tolist() == want, expr

    def test_no_filter_or_no_maps_is_none(self):
        assert survivors(self.MAPS, None) is None
        assert survivors(None, PlainCmp("year", "=", 1)) is None
        assert survivors([None, None], PlainCmp("year", "=", 1)) is None


class TestExtremeCandidates:
    def _aggs(self, kind):
        from repro.core.server import OreExtreme

        return (OreExtreme(kind=kind, ore_column="t__ore",
                           payload_column="p", alias="a"),)

    def test_only_winning_partitions_kept(self):
        maps = [ore_stats(10, 20), ore_stats(5, 8), ore_stats(5, 30)]
        assert extreme_candidates(maps, self._aggs("min")).tolist() == [
            False, True, True,
        ]
        assert extreme_candidates(maps, self._aggs("max")).tolist() == [
            False, False, True,
        ]

    def test_min_and_max_union(self):
        maps = [ore_stats(10, 20), ore_stats(5, 8)]
        aggs = self._aggs("min") + self._aggs("max")
        assert extreme_candidates(maps, aggs).tolist() == [True, True]

    def test_missing_bounds_disable_the_shortcut(self):
        maps = [ore_stats(10, 20), None]
        assert extreme_candidates(maps, self._aggs("min")) is None
        assert extreme_candidates(maps, ()) is None

    def test_non_extreme_aggs_disable_the_shortcut(self):
        from repro.core.server import PlainAgg

        maps = [ore_stats(10, 20)]
        aggs = self._aggs("min") + (PlainAgg(column="p", func="sum", alias="s"),)
        assert extreme_candidates(maps, aggs) is None
