"""Pruning planner unit tests: sound skips, conservative keeps.

Every case is phrased against handcrafted zone maps so the soundness
argument is auditable: a partition may be dropped only when the stats
*prove* no row matches (or, under NOT, that every row matches the
negated child).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

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

    def test_large_dictionaries_are_exact(self):
        """Every partition's artifact is its whole dictionary, so past 64
        tokens absence still refutes ``=`` and proves ``!=`` and NOT IN."""
        stats = det_stats(*range(0, 400, 2))
        assert may_match(stats, DetEq("c__det", 398))
        assert not may_match(stats, DetEq("c__det", 399))
        assert all_match(stats, DetEq("c__det", 399, negate=True))
        assert not may_match(stats, DetIn("c__det", (1, 3, 401)))
        everything = DetIn("c__det", tuple(range(0, 400, 2)))
        assert all_match(stats, everything)
        assert not may_match(stats, FilterNot(everything))
        assert may_match(stats, FilterNot(DetIn("c__det", tuple(range(0, 398, 2)))))

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

    def test_an_empty_dictionary_holds_no_token(self):
        """A zero-row partition's dictionary is empty: nothing matches
        ``=`` or ``IN`` in it, every (vacuous) row satisfies ``!=`` and
        ``IN``, and the inverted index keeps it for no token."""
        empty = det_stats()
        assert not may_match(empty, DetEq("c__det", 0))
        assert not may_match(empty, DetIn("c__det", (0, 2**64 - 1)))
        assert all_match(empty, DetEq("c__det", 0, negate=True))
        assert all_match(empty, DetIn("c__det", (5,)))
        compiled = compile_zone_maps([empty, det_stats(0)])
        assert compiled.det_keep(DetEq("c__det", 0)).tolist() == [False, True]
        assert compiled.det_keep(DetEq("c__det", 2**64 - 1)).tolist() == [False, False]

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
        what :func:`may_match` keeps, large-dictionary and stat-less
        partitions included."""
        maps = [det_stats(3, 7), det_stats(*range(7, 200)), None, det_stats(9), det_stats(),
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

    def test_the_index_is_per_table_version(self):
        """A compiled table answers from the index it built first; a new
        version (another partition appended) compiles a new index that
        sees the new partition's tokens."""
        maps = [det_stats(3, 7), det_stats(9)]
        first = compile_zone_maps(maps)
        assert first.det_keep(DetEq("c__det", 11)).tolist() == [False, False]
        second = compile_zone_maps(maps + [det_stats(11)])
        assert second.det_keep(DetEq("c__det", 11)).tolist() == [False, False, True]
        assert first.det_keep(DetEq("c__det", 11)).tolist() == [False, False]
        assert survivors(second, DetEq("c__det", 3)).tolist() == [True, False, False]

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


# -- the inverted index against each partition's judgement (hypothesis) -------

det_tokens = st.integers(min_value=0, max_value=12)
det_leaves = st.one_of(
    st.builds(lambda t, negate: DetEq("c__det", t, negate=negate), det_tokens, st.booleans()),
    st.builds(lambda ts: DetIn("c__det", tuple(ts)),
              st.lists(det_tokens, min_size=1, max_size=4)),
)
det_filters = st.recursive(det_leaves, lambda kids: st.one_of(
    st.builds(FilterNot, kids),
    st.builds(lambda cs: FilterAnd(tuple(cs)), st.lists(kids, min_size=1, max_size=3)),
    st.builds(lambda cs: FilterOr(tuple(cs)), st.lists(kids, min_size=1, max_size=3)),
), max_leaves=6)
dictionary_lists = st.lists(
    st.one_of(st.none(), st.lists(det_tokens, max_size=8, unique=True)),
    min_size=1, max_size=6,
)


def holds(expr, token):
    """Does a row holding ``token`` in ``c__det`` satisfy ``expr``?"""
    if isinstance(expr, DetEq):
        return (token == expr.token) != expr.negate
    if isinstance(expr, DetIn):
        return token in expr.tokens
    if isinstance(expr, FilterNot):
        return not holds(expr.child, token)
    combine = all if isinstance(expr, FilterAnd) else any
    return combine(holds(child, token) for child in expr.children)


@given(dictionaries=dictionary_lists, expr=det_filters, token=det_tokens)
@settings(max_examples=200, deadline=None)
def test_index_equals_brute_force_per_partition(dictionaries, expr, token):
    """``ZoneMaps.det_keep`` and :func:`survivors` keep exactly what
    :func:`may_match` keeps partition by partition; a point lookup keeps
    exactly the partitions whose dictionary holds the token; and no
    partition holding a matching row is ever dropped."""
    maps = [None if d is None else det_stats(*d) for d in dictionaries]
    compiled = compile_zone_maps(maps)
    point = DetEq("c__det", token)
    assert compiled.det_keep(point).tolist() == [
        d is None or token in d for d in dictionaries]
    assert compiled.det_keep(point).tolist() == [may_match(m, point) for m in maps]
    want = [may_match(m, expr) for m in maps]
    if all(d is None for d in dictionaries):
        assert survivors(compiled, expr) is None
        return
    assert survivors(compiled, expr).tolist() == want
    assert survivors(maps, expr).tolist() == want
    for d, keep in zip(dictionaries, want):
        if d is not None and any(holds(expr, t) for t in d):
            assert keep


@given(dictionaries=dictionary_lists,
       tokens=st.lists(st.integers(min_value=0, max_value=20), max_size=5),
       rest=st.one_of(st.none(), det_leaves))
@settings(max_examples=200, deadline=None)
def test_in_through_the_index_equals_per_partition(dictionaries, tokens, rest):
    """A ``DetIn`` -- alone or as a conjunct -- answered by one index lookup
    per token keeps exactly what :func:`may_match` keeps partition by
    partition, for tokens no partition holds (13-20 here) too."""
    maps = [None if d is None else det_stats(*d) for d in dictionaries]
    compiled = compile_zone_maps(maps)
    for expr in (DetIn("c__det", tuple(tokens)),
                 FilterAnd((DetIn("c__det", tuple(tokens)),) + (() if rest is None else (rest,)))):
        want = [may_match(m, expr) for m in maps]
        if isinstance(expr, DetIn):
            assert compiled.det_keep(expr).tolist() == want
        keep = survivors(compiled, expr)
        assert keep is None and all(d is None for d in dictionaries) or keep.tolist() == want
