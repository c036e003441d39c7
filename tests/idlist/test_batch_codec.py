"""Tests for the batched group-codec paths (repro.idlist.codec):
``encode_groups_vb_diff`` / ``decode_chunks_batch`` / varbyte offsets."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.idlist import IdList, get_codec
from repro.idlist.codec import (
    decode,
    decode_chunks_batch,
    decode_multiset,
    encode_groups_vb_diff,
    encode_multiset,
    is_multiset_payload,
)
from repro.idlist.varbyte import encode_with_offsets


class TestEncodeWithOffsets:
    def test_offsets_delimit_values(self):
        values = np.array([1, 200, 3, 2**40], dtype=np.uint64)
        payload, offsets = encode_with_offsets(values)
        assert len(offsets) == 5
        assert offsets[-1] == len(payload)
        from repro.idlist.varbyte import decode as vb_decode

        for i, v in enumerate(values.tolist()):
            piece = payload[offsets[i]:offsets[i + 1]]
            assert vb_decode(piece).tolist() == [v]

    def test_empty(self):
        payload, offsets = encode_with_offsets(np.empty(0, np.uint64))
        assert payload == b"" and offsets.tolist() == [0]


def _grouped_ids(rng, ngroups, per_group):
    """Sorted-by-(group, id) ids with group boundaries."""
    all_ids = []
    starts = []
    cursor = 0
    for g in range(ngroups):
        n = int(per_group[g])
        ids = np.sort(rng.choice(10_000, n, replace=False)) + g * 20_000
        starts.append(cursor)
        cursor += n
        all_ids.append(ids)
    bounds = np.append(np.asarray(starts), cursor)
    return np.concatenate(all_ids).astype(np.uint64), np.asarray(starts), bounds


class TestEncodeGroups:
    def test_chunks_decode_to_their_groups(self):
        rng = np.random.default_rng(0)
        ids, starts, bounds = _grouped_ids(rng, 5, [3, 10, 1, 7, 4])
        chunks = encode_groups_vb_diff(ids, starts, bounds)
        assert len(chunks) == 5
        for g, chunk in enumerate(chunks):
            lo, hi = int(bounds[g]), int(bounds[g + 1])
            assert decode(chunk).to_ids().tolist() == ids[lo:hi].tolist()

    def test_matches_per_group_codec(self):
        """Sliced chunks are byte-identical to individually encoded ones."""
        rng = np.random.default_rng(1)
        ids, starts, bounds = _grouped_ids(rng, 3, [4, 4, 4])
        chunks = encode_groups_vb_diff(ids, starts, bounds)
        codec = get_codec("groupby")
        for g, chunk in enumerate(chunks):
            lo, hi = int(bounds[g]), int(bounds[g + 1])
            individual = codec.encode(IdList.from_ids(ids[lo:hi]))
            assert chunk == individual

    def test_empty_input(self):
        assert encode_groups_vb_diff(
            np.empty(0, np.uint64), np.empty(0, np.int64), np.zeros(1, np.int64)
        ) == []


class TestDecodeChunksBatch:
    def test_fast_path_matches_scalar(self):
        rng = np.random.default_rng(2)
        ids, starts, bounds = _grouped_ids(rng, 6, [2, 9, 1, 5, 3, 8])
        chunks = encode_groups_vb_diff(ids, starts, bounds)
        batch_ids, counts = decode_chunks_batch(chunks)
        assert batch_ids.tolist() == ids.tolist()
        assert counts.tolist() == np.diff(bounds).tolist()

    def test_mixed_formats_fall_back(self):
        codec = get_codec("seabed")
        a = codec.encode(IdList.from_range(0, 10))
        b = encode_multiset(np.array([5, 5, 7], dtype=np.uint64))
        ids, counts = decode_chunks_batch([a, b])
        assert counts.tolist() == [10, 3]
        assert ids[:10].tolist() == list(range(10))
        assert ids[10:].tolist() == [5, 5, 7]

    def test_one_foreign_chunk_among_group_chunks_falls_back(self):
        """The fast path needs *every* chunk in VB+Diff form: one run-coded,
        multiset or header-only chunk anywhere sends the whole batch down
        the per-chunk path, with identical output."""
        rng = np.random.default_rng(3)
        ids, starts, bounds = _grouped_ids(rng, 4, [3, 7, 2, 5])
        vb = encode_groups_vb_diff(ids, starts, bounds)
        foreign = [
            get_codec("seabed").encode(IdList.from_range(100, 140)),
            encode_multiset(np.array([9, 9, 11], dtype=np.uint64)),
            get_codec("groupby").encode(IdList.empty()),  # header byte only
        ]
        for pos, chunk in enumerate(foreign):
            chunks = vb[: pos + 1] + [chunk] + vb[pos + 1:]
            got_ids, counts = decode_chunks_batch(chunks)
            want = [
                decode_multiset(c) if is_multiset_payload(c) else decode(c).to_ids()
                for c in chunks
            ]
            assert counts.tolist() == [len(w) for w in want]
            assert got_ids.tolist() == np.concatenate(want).tolist()

    def test_empty_list(self):
        ids, counts = decode_chunks_batch([])
        assert ids.size == 0 and counts.size == 0

    def test_single_chunk(self):
        chunks = encode_groups_vb_diff(
            np.array([42], dtype=np.uint64), np.array([0]), np.array([0, 1])
        )
        ids, counts = decode_chunks_batch(chunks)
        assert ids.tolist() == [42] and counts.tolist() == [1]


@given(
    per_group=st.lists(st.integers(min_value=1, max_value=30), min_size=1,
                       max_size=20),
    seed=st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=60, deadline=None)
def test_property_batch_round_trip(per_group, seed):
    rng = np.random.default_rng(seed)
    ids, starts, bounds = _grouped_ids(rng, len(per_group), per_group)
    chunks = encode_groups_vb_diff(ids, starts, bounds)
    batch_ids, counts = decode_chunks_batch(chunks)
    assert batch_ids.tolist() == ids.tolist()
    assert counts.tolist() == per_group
