"""Tests for the run-compressed IdList (repro.idlist.idlist)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import EncodingError
from repro.idlist import IdList

id_sets = st.sets(st.integers(min_value=0, max_value=10_000), max_size=200)


def make(ids) -> IdList:
    return IdList.from_ids(sorted(ids))


class TestConstruction:
    def test_empty(self):
        ids = IdList.empty()
        assert ids.is_empty() and ids.count() == 0 and len(ids) == 0

    def test_from_range(self):
        ids = IdList.from_range(5, 10)
        assert ids.count() == 5
        assert list(ids.runs()) == [(5, 9)]

    def test_from_empty_range(self):
        assert IdList.from_range(7, 7).is_empty()

    def test_from_ids_finds_runs(self):
        ids = IdList.from_ids([2, 3, 4, 9, 23])
        assert list(ids.runs()) == [(2, 4), (9, 9), (23, 23)]
        assert ids.num_runs == 3

    def test_from_ids_rejects_unsorted(self):
        with pytest.raises(EncodingError, match="strictly increasing"):
            IdList.from_ids([3, 2])

    def test_from_ids_rejects_duplicates(self):
        with pytest.raises(EncodingError, match="strictly increasing"):
            IdList.from_ids([2, 2])

    def test_from_mask(self):
        mask = np.array([True, False, True, True, False])
        ids = IdList.from_mask(mask, offset=100)
        assert ids.to_ids().tolist() == [100, 102, 103]

    def test_from_all_false_mask(self):
        assert IdList.from_mask(np.zeros(5, dtype=bool)).is_empty()

    def test_run_validation(self):
        with pytest.raises(EncodingError, match="end below"):
            IdList(np.array([5]), np.array([3]))
        with pytest.raises(EncodingError, match="overlap"):
            IdList(np.array([1, 2]), np.array([5, 9]))


class TestAccessors:
    def test_to_ids_round_trip(self):
        original = [1, 2, 3, 7, 8, 100]
        assert IdList.from_ids(original).to_ids().tolist() == original

    def test_contains(self):
        ids = IdList.from_ids([2, 3, 4, 9])
        assert ids.contains(3) and ids.contains(9)
        assert not ids.contains(5) and not ids.contains(1) and not ids.contains(10)

    def test_contains_on_empty(self):
        assert not IdList.empty().contains(0)

    def test_repr_is_compact(self):
        text = repr(IdList.from_ids([1, 2, 3, 10]))
        assert "1-3" in text and "runs=2" in text


class TestUnion:
    def test_disjoint(self):
        a = IdList.from_range(0, 5)
        b = IdList.from_range(10, 15)
        assert a.union(b).to_ids().tolist() == list(range(5)) + list(range(10, 15))

    def test_adjacent_runs_coalesce(self):
        a = IdList.from_range(0, 5)
        b = IdList.from_range(5, 10)
        u = a.union(b)
        assert u.num_runs == 1
        assert u.count() == 10

    def test_overlapping(self):
        a = IdList.from_range(0, 6)
        b = IdList.from_range(3, 10)
        u = a.union(b)
        assert u.num_runs == 1 and u.count() == 10

    def test_with_empty(self):
        a = IdList.from_range(3, 6)
        assert a.union(IdList.empty()) == a
        assert IdList.empty().union(a) == a

    def test_union_all(self):
        parts = [IdList.from_range(i * 10, i * 10 + 5) for i in range(4)]
        u = IdList.union_all(parts)
        assert u.count() == 20 and u.num_runs == 4

    def test_union_all_contiguous_partitions_single_run(self):
        """Driver merging contiguous partition results gets one run --
        this is what makes full-table ASHE decryption two PRF calls."""
        parts = [IdList.from_range(i * 100, (i + 1) * 100) for i in range(10)]
        u = IdList.union_all(parts)
        assert u.num_runs == 1 and u.count() == 1000

    def test_union_all_empty_input(self):
        assert IdList.union_all([]).is_empty()
        assert IdList.union_all([IdList.empty()]).is_empty()


class TestEquality:
    def test_eq_and_hash(self):
        a = IdList.from_ids([1, 2, 3])
        b = IdList.from_range(1, 4)
        assert a == b and hash(a) == hash(b)

    def test_neq(self):
        assert IdList.from_ids([1]) != IdList.from_ids([2])

    def test_eq_other_type(self):
        assert IdList.empty() != "not an idlist"


@given(a=id_sets, b=id_sets)
@settings(max_examples=80, deadline=None)
def test_property_union_matches_set_union(a, b):
    got = make(a).union(make(b))
    assert got.to_ids().tolist() == sorted(a | b)


dense_sets = st.sets(st.integers(min_value=0, max_value=400), max_size=250)


@st.composite
def cut_parts(draw):
    """One ID set cut into ascending, disjoint parts -- a reply's pieces:
    a cut inside a run leaves touching seams, a repeated cut an empty part."""
    ids = sorted(draw(dense_sets))
    cuts = sorted(draw(st.lists(st.integers(0, len(ids)), max_size=10)))
    bounds = [0, *cuts, len(ids)]
    return [make(ids[a:b]) for a, b in zip(bounds, bounds[1:])]


@pytest.mark.parametrize("arrangement", ["ordered", "shuffled", "overlapping"])
@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_property_union_all_matches_the_unique_ids(arrangement, data):
    """Ordered parts take the end-to-end join; shuffled and overlapping
    ones the sort.  Either way the union is the set of all IDs."""
    if arrangement == "overlapping":
        parts = data.draw(st.lists(dense_sets.map(make), max_size=8))
    else:
        parts = data.draw(cut_parts())
        if arrangement == "shuffled":
            parts = data.draw(st.permutations(parts))
    ids = np.concatenate([p.to_ids() for p in parts] + [np.empty(0, np.uint64)])
    assert IdList.union_all(parts) == IdList.from_ids(np.unique(ids))


@given(ids=id_sets)
@settings(max_examples=80, deadline=None)
def test_property_roundtrip_and_count(ids):
    lst = make(ids)
    assert lst.to_ids().tolist() == sorted(ids)
    assert lst.count() == len(ids)


@given(ids=id_sets)
@settings(max_examples=50, deadline=None)
def test_property_runs_partition_the_ids(ids):
    lst = make(ids)
    reconstructed = []
    for s, e in lst.runs():
        assert s <= e
        reconstructed.extend(range(s, e + 1))
    assert reconstructed == sorted(ids)
