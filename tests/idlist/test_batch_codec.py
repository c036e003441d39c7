"""Tests for the group codec's stream form (repro.idlist.codec):
``encode_groups_vb_diff`` / ``decode_chunks_batch`` over ``(stream,
seg_ends)`` and the value-sized varbyte passes beneath them."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import EncodingError
from repro.idlist import IdList, get_codec, varbyte
from repro.idlist.codec import (
    decode,
    decode_chunks_batch,
    decode_multiset,
    encode_groups_vb_diff,
    encode_multiset,
    is_multiset_payload,
)
from repro.idlist.varbyte import encode_with_offsets


def stream_of(chunks):
    """Chunks as one segment stream: ``(stream, seg_ends)``."""
    seg_ends = np.cumsum([len(c) for c in chunks], dtype=np.int64)
    return np.frombuffer(b"".join(chunks), dtype=np.uint8), seg_ends


def segments(stream, seg_ends):
    starts = np.append(0, seg_ends[:-1])
    return [stream[lo:hi].tobytes() for lo, hi in zip(starts, seg_ends)]


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


class TestValueSizedPasses:
    @given(st.lists(st.integers(0, 2**64 - 1), max_size=40))
    @settings(max_examples=80, deadline=None)
    def test_match_the_reference_coder(self, values):
        arr = np.array(values, dtype=np.uint64)
        nbytes = varbyte.byte_lengths(arr)
        out = np.zeros(int(nbytes.sum()), dtype=np.uint8)
        varbyte.write_at(arr, nbytes, out, np.cumsum(nbytes, dtype=np.int64) - nbytes)
        assert out.tobytes() == varbyte.encode_scalar(values)
        decoded, ends = varbyte.decode_with_ends(out)
        assert decoded.tolist() == values
        assert ends.tolist() == (np.cumsum(nbytes, dtype=np.int64) - 1).tolist()

    @pytest.mark.parametrize("data", [b"\x85", b"\x01\x80", b"\xff" * 10 + b"\x01"])
    def test_damaged_streams_are_typed(self, data):
        with pytest.raises(EncodingError):
            varbyte.decode_with_ends(np.frombuffer(data, dtype=np.uint8))


def _grouped_ids(rng, ngroups, per_group):
    """Sorted-by-(group, id) ids with group starts."""
    all_ids = []
    starts = []
    cursor = 0
    for g in range(ngroups):
        n = int(per_group[g])
        ids = np.sort(rng.choice(10_000, n, replace=False)) + g * 20_000
        starts.append(cursor)
        cursor += n
        all_ids.append(ids)
    return np.concatenate(all_ids).astype(np.uint64), np.asarray(starts)


class TestEncodeGroups:
    def test_segments_decode_to_their_groups(self):
        rng = np.random.default_rng(0)
        ids, starts = _grouped_ids(rng, 5, [3, 10, 1, 7, 4])
        stream, seg_ends = encode_groups_vb_diff(ids, starts)
        assert stream.dtype == np.uint8 and seg_ends.tolist()[-1] == stream.size
        bounds = np.append(starts, ids.size)
        for g, chunk in enumerate(segments(stream, seg_ends)):
            assert decode(chunk).to_ids().tolist() == ids[bounds[g]:bounds[g + 1]].tolist()

    def test_segments_match_the_per_group_codec(self):
        """Each segment is byte-identical to its group encoded alone."""
        rng = np.random.default_rng(1)
        ids, starts = _grouped_ids(rng, 3, [4, 4, 4])
        codec = get_codec("groupby")
        bounds = np.append(starts, ids.size)
        got = segments(*encode_groups_vb_diff(ids, starts))
        assert got == [
            codec.encode(IdList.from_ids(ids[bounds[g]:bounds[g + 1]])) for g in range(3)
        ]

    def test_empty_input(self):
        stream, seg_ends = encode_groups_vb_diff(np.empty(0, np.uint64), np.empty(0, np.int64))
        assert stream.size == 0 and seg_ends.size == 0


class TestDecodeChunksBatch:
    def test_fast_path_matches_scalar(self):
        rng = np.random.default_rng(2)
        ids, starts = _grouped_ids(rng, 6, [2, 9, 1, 5, 3, 8])
        batch_ids, counts = decode_chunks_batch(*encode_groups_vb_diff(ids, starts))
        assert batch_ids.tolist() == ids.tolist()
        assert counts.tolist() == np.diff(np.append(starts, ids.size)).tolist()

    def test_multiset_segments(self):
        """A join's multiset segments decode segment by segment."""
        a = encode_multiset(np.array([5, 5, 7], dtype=np.uint64))
        b = get_codec("groupby").encode(IdList.from_range(0, 10))
        ids, counts = decode_chunks_batch(*stream_of([a, b]))
        assert counts.tolist() == [3, 10]
        assert ids.tolist() == [5, 5, 7] + list(range(10))

    def test_one_multiset_segment_among_group_segments(self):
        """The fast path needs *every* segment in VB+Diff form: one
        multiset or header-only segment anywhere sends the whole stream
        down the per-segment path, with identical output."""
        rng = np.random.default_rng(3)
        ids, starts = _grouped_ids(rng, 4, [3, 7, 2, 5])
        vb = segments(*encode_groups_vb_diff(ids, starts))
        foreign = [
            encode_multiset(np.array([9, 9, 11], dtype=np.uint64)),
            get_codec("groupby").encode(IdList.empty()),  # header byte only
        ]
        for pos, chunk in enumerate(foreign):
            chunks = vb[: pos + 1] + [chunk] + vb[pos + 1:]
            got_ids, counts = decode_chunks_batch(*stream_of(chunks))
            want = [
                decode_multiset(c) if is_multiset_payload(c) else decode(c).to_ids()
                for c in chunks
            ]
            assert counts.tolist() == [len(w) for w in want]
            assert got_ids.tolist() == np.concatenate(want).tolist()

    def test_empty_stream(self):
        ids, counts = decode_chunks_batch(np.empty(0, np.uint8), np.empty(0, np.int64))
        assert ids.size == 0 and counts.size == 0

    def test_single_segment(self):
        stream, seg_ends = encode_groups_vb_diff(np.array([42], dtype=np.uint64), np.array([0]))
        ids, counts = decode_chunks_batch(stream, seg_ends)
        assert ids.tolist() == [42] and counts.tolist() == [1]

    @pytest.mark.parametrize("stream, seg_ends", [
        (b"\x02\x05\x02\x07", [2, 3]),  # segments stop short of the stream
        (b"\x02\x05\x02\x07", [2, 2, 4]),  # an empty segment
        (b"\x02\x85\x02\x07", [2, 4]),  # a segment ends inside a value
        (b"\x02\x05\x02\x87", [2, 4]),  # the stream ends inside a value
        (b"\x02\x05\x07\x07", [2, 4]),  # a run-coded flag among group segments
        (b"\x00\x05", [2]),  # a flag no grouped reply carries
    ], ids=["short", "empty-segment", "split-value", "truncated", "foreign-flag", "no-flag"])
    def test_damaged_streams_are_typed(self, stream, seg_ends):
        with pytest.raises(EncodingError):
            decode_chunks_batch(np.frombuffer(stream, dtype=np.uint8),
                                np.array(seg_ends, dtype=np.int64))


@given(
    per_group=st.lists(st.integers(min_value=1, max_value=30), min_size=1,
                       max_size=20),
    seed=st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=60, deadline=None)
def test_property_batch_round_trip(per_group, seed):
    rng = np.random.default_rng(seed)
    ids, starts = _grouped_ids(rng, len(per_group), per_group)
    batch_ids, counts = decode_chunks_batch(*encode_groups_vb_diff(ids, starts))
    assert batch_ids.tolist() == ids.tolist()
    assert counts.tolist() == per_group
