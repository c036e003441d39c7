"""Tests for the composable codec pipelines (repro.idlist.codec)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import EncodingError
from repro.idlist import CODECS, IdList, get_codec
from repro.idlist.codec import decode, decode_multiset, encode_multiset

ALL_CODEC_NAMES = sorted(CODECS)

id_sets = st.sets(st.integers(min_value=0, max_value=20_000), max_size=150)


@pytest.mark.parametrize("name", ALL_CODEC_NAMES)
class TestRoundTripAllCodecs:
    def test_typical(self, name):
        codec = get_codec(name)
        ids = IdList.from_ids([2, 3, 4, 9, 23, 24, 25, 1000])
        assert codec.decode(codec.encode(ids)) == ids

    def test_single_id(self, name):
        codec = get_codec(name)
        ids = IdList.from_ids([777])
        assert codec.decode(codec.encode(ids)) == ids

    def test_long_contiguous_run(self, name):
        codec = get_codec(name)
        ids = IdList.from_range(0, 5000)
        assert codec.decode(codec.encode(ids)) == ids

    def test_self_describing_decode(self, name):
        codec = get_codec(name)
        ids = IdList.from_ids([1, 5, 6])
        assert decode(codec.encode(ids)) == ids


class TestSizeBehaviour:
    """The size relationships the paper relies on (Section 4.5, Fig 8a)."""

    def test_range_encoding_bounds_dense_lists(self):
        """A fully contiguous selection encodes to O(1) bytes with ranges,
        O(n) without."""
        ids = IdList.from_range(0, 100_000)
        with_ranges = get_codec("ranges+vb+diff").encoded_size(ids)
        without = get_codec("vb+diff").encoded_size(ids)
        assert with_ranges < 20
        assert without > 50_000

    def test_range_encoding_bloats_sparse_lists(self):
        """Isolated IDs cost two numbers under range encoding -- the reason
        Seabed drops ranges on the group-by path."""
        sparse = IdList.from_ids(list(range(0, 10_000, 7)))  # no two adjacent
        with_ranges = get_codec("ranges+vb").encoded_size(sparse)
        without = get_codec("vb").encoded_size(sparse)
        assert with_ranges > without

    def test_alternating_ids_compress_with_deflate(self):
        """Paper Section 6.1: every-other-row selection looks adversarial
        for range encoding but deflate exploits the regular structure."""
        alternating = IdList.from_ids(list(range(0, 40_000, 2)))
        plain = get_codec("ranges+vb+diff").encoded_size(alternating)
        deflated = get_codec("ranges+vb+diff+deflate_fast").encoded_size(alternating)
        assert deflated < plain / 10

    def test_compact_deflate_not_larger_than_fast(self):
        rng = np.random.default_rng(0)
        ids = IdList.from_mask(rng.random(50_000) < 0.5)
        fast = get_codec("ranges+vb+diff+deflate_fast").encoded_size(ids)
        compact = get_codec("ranges+vb+diff+deflate_compact").encoded_size(ids)
        assert compact <= fast

    def test_fixed64_is_the_upper_baseline(self):
        ids = IdList.from_ids(list(range(0, 9_000, 3)))
        fixed = get_codec("fixed64").encoded_size(ids)
        assert fixed >= 8 * ids.count()

    def test_bitmap_good_when_dense_bad_when_wide(self):
        dense = IdList.from_range(0, 8_000)
        assert get_codec("bitmap").encoded_size(dense) <= 8_000 / 8 + 16
        wide = IdList.from_ids([0, 10_000_000])
        assert get_codec("bitmap").encoded_size(wide) > 1_000_000
        # WAH fixes the wide case via fill words
        assert get_codec("bitmap_wah").encoded_size(wide) < 100


class TestErrors:
    def test_unknown_codec(self):
        with pytest.raises(EncodingError, match="unknown ID-list codec"):
            get_codec("gzip9000")

    def test_empty_payload(self):
        with pytest.raises(EncodingError, match="empty"):
            decode(b"")

    @pytest.mark.parametrize("name", ALL_CODEC_NAMES + ["multiset"])
    def test_damaged_chunk_is_an_encoding_error(self, name):
        """Truncated anywhere, or with a byte flipped, a chunk decodes to
        some ID list or raises EncodingError -- zlib's and numpy's own
        exceptions never leave the codec, by either of its decoders."""
        ids = np.array([3, 4, 5, 90, 91, 700, 70_000], dtype=np.uint64)
        if name == "multiset":
            chunk, one = encode_multiset(np.repeat(ids, 2)), decode_multiset
        else:
            chunk, one = get_codec(name).encode(IdList.from_ids(ids)), decode
        damaged = [chunk[:cut] for cut in range(len(chunk))]
        damaged += [
            chunk[:i] + bytes([chunk[i] ^ bit]) + chunk[i + 1:]
            for i in range(1, len(chunk)) for bit in (0x01, 0x80)
        ]
        for data in damaged:
            try:
                one(data)
            except EncodingError:
                pass

    def test_wah_fill_run_cannot_outgrow_its_header(self):
        """A fill word claiming 2**61 words is refused before it is expanded."""
        hostile = bytes([0x10, 0x00, 0x3F]) + ((1 << 63) | (1 << 61)).to_bytes(8, "little")
        with pytest.raises(EncodingError, match="do not cover"):
            decode(hostile)


@pytest.mark.parametrize("name", ALL_CODEC_NAMES)
@given(ids=id_sets)
@settings(max_examples=25, deadline=None)
def test_property_round_trip(name, ids):
    codec = get_codec(name)
    lst = IdList.from_ids(sorted(ids))
    assert codec.decode(codec.encode(lst)) == lst


class TestIdSpans:
    """The partition-store span serialisation (manifest row-ID intervals)."""

    def test_round_trip(self):
        from repro.idlist.codec import decode_id_spans, encode_id_spans

        starts = np.array([0, 100, 250, 1000], dtype=np.uint64)
        counts = np.array([100, 150, 750, 3], dtype=np.uint64)
        out_starts, out_counts = decode_id_spans(encode_id_spans(starts, counts))
        assert np.array_equal(out_starts, starts)
        assert np.array_equal(out_counts, counts)

    def test_empty(self):
        from repro.idlist.codec import decode_id_spans, encode_id_spans

        starts, counts = decode_id_spans(
            encode_id_spans(np.empty(0, np.uint64), np.empty(0, np.uint64))
        )
        assert starts.size == 0 and counts.size == 0

    def test_mismatched_lengths_rejected(self):
        from repro.idlist.codec import encode_id_spans

        with pytest.raises(EncodingError, match="one count per start"):
            encode_id_spans(np.array([0, 5], np.uint64), np.array([1], np.uint64))

    def test_unsorted_starts_rejected(self):
        from repro.idlist.codec import encode_id_spans

        with pytest.raises(EncodingError, match="sorted"):
            encode_id_spans(np.array([5, 0], np.uint64), np.array([1, 1], np.uint64))

    def test_bad_payload_rejected(self):
        from repro.idlist.codec import decode_id_spans

        with pytest.raises(EncodingError, match="id-span"):
            decode_id_spans(b"\x40abc")

    @given(spans=st.lists(
        st.tuples(st.integers(0, 5000), st.integers(0, 10_000)), max_size=40
    ))
    @settings(deadline=None, max_examples=50)
    def test_property_round_trip(self, spans):
        from repro.idlist.codec import decode_id_spans, encode_id_spans

        gaps = np.array([g for g, _ in spans], dtype=np.uint64)
        counts = np.array([c for _, c in spans], dtype=np.uint64)
        starts = np.cumsum(gaps, dtype=np.uint64)
        out_starts, out_counts = decode_id_spans(encode_id_spans(starts, counts))
        assert np.array_equal(out_starts, starts)
        assert np.array_equal(out_counts, counts)
