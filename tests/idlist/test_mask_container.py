"""The flat row set's chunk picks its container from the mask's shape.

``encode_mask`` writes a plain bitmap where the run-coded stream cannot be
smaller even before Deflate (``2 * runs >= ceil(span / 8)``) and the
``seabed`` codec's bytes otherwise.  Whatever it writes decodes, through
the one self-describing decoder, to ``IdList.from_mask(mask, start)``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import EncodingError
from repro.idlist import IdList, get_codec
from repro.idlist.codec import decode, encode_mask
from repro.idlist.varbyte import encode_scalar

BITMAP, RUNS = 0x08, 0x01 | 0x02 | 0x04  # flag bytes: plain bitmap / seabed
ROWS = 9_600
START = 1_234_567
DENSITIES = {
    "1%": 0.01, "5%": 0.05, "12.5%": 0.125, "50%": 0.5, "87.5%": 0.875,
}


def scattered(density: float, rows: int = ROWS, seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).random(rows) < density


def clustered(density: float, rows: int = ROWS, seed: int = 0) -> np.ndarray:
    """The same share of rows in three contiguous stretches."""
    mask = np.zeros(rows, dtype=bool)
    length = max(int(rows * density) // 3, 1)
    for lo in np.random.default_rng(seed).choice(rows // length, 3, replace=False):
        mask[lo * length : (lo + 1) * length] = True
    return mask


def runs_and_span(mask: np.ndarray) -> tuple[int, int]:
    idx = np.flatnonzero(mask)
    return int(np.count_nonzero(np.diff(idx) != 1)) + 1, int(idx[-1] - idx[0]) + 1


def check(mask: np.ndarray, start: int = START) -> bytes:
    """Round trip + the byte rule; returns the chunk."""
    chunk = encode_mask(mask, start)
    want = IdList.from_mask(mask, start)
    assert decode(chunk) == want
    assert decode(chunk).to_ids().tolist() == (np.flatnonzero(mask) + start).tolist()
    runs, span = runs_and_span(mask)
    if 2 * runs >= (span + 7) // 8:
        assert chunk[0] == BITMAP
    else:
        assert chunk == get_codec("seabed").encode(want)
        assert chunk[0] == RUNS
    return chunk


class TestEveryShape:
    def test_no_row_selected(self):
        assert encode_mask(np.zeros(ROWS, dtype=bool), START) is None
        assert encode_mask(np.zeros(0, dtype=bool), START) is None

    @pytest.mark.parametrize("row", [0, 1, 4_321, ROWS - 1])
    def test_one_row(self, row):
        mask = np.zeros(ROWS, dtype=bool)
        mask[row] = True
        assert check(mask)[0] == BITMAP

    @pytest.mark.parametrize("density", DENSITIES.values(), ids=DENSITIES.keys())
    @pytest.mark.parametrize("rows", [ROWS, ROWS - 3], ids=["aligned", "ragged"])
    @pytest.mark.parametrize("shape", [scattered, clustered])
    def test_densities(self, shape, rows, density):
        for seed in range(3):
            mask = shape(density, rows, seed)
            check(mask)
            edged = mask.copy()  # first and last row set: span == the partition
            edged[[0, -1]] = True
            check(edged)
            check(mask[5:-6], start=0)  # span not a multiple of 8, offset 0

    def test_all_but_one_and_all(self):
        mask = np.ones(ROWS, dtype=bool)
        assert check(mask)[0] == RUNS
        for hole in (0, 1, 777, ROWS - 1):
            holed = mask.copy()
            holed[hole] = False
            assert check(holed)[0] == RUNS

    def test_the_scatter_sizes_the_docstring_quotes(self):
        """50% scattered: the bitmap of the partition (1,206 B) instead of
        ~1.9 kB of Deflated runs; <= 5%: the paper's codec, untouched."""
        mask = scattered(0.5)
        mask[[0, -1]] = True
        half = check(mask)
        assert half[0] == BITMAP and len(half) == 1 + 3 + 2 + ROWS // 8
        assert len(half) < len(get_codec("seabed").encode(decode(half)))
        assert check(scattered(0.05))[0] == RUNS
        assert check(scattered(0.01))[0] == RUNS

    def test_contiguous_and_clustered_keep_the_papers_codec_byte_for_byte(self):
        contiguous = np.zeros(ROWS, dtype=bool)
        contiguous[1_000:5_800] = True
        for mask in (contiguous, clustered(0.5), clustered(0.125), clustered(0.01)):
            ids = IdList.from_mask(mask, START)
            assert encode_mask(mask, START) == get_codec("seabed").encode(ids)

    @settings(deadline=None, max_examples=60)
    @given(
        bits=st.lists(st.booleans(), min_size=1, max_size=300),
        start=st.integers(0, 2**40),
    )
    def test_random_masks(self, bits, start):
        mask = np.array(bits, dtype=bool)
        if mask.any():
            check(mask, start)
        else:
            assert encode_mask(mask, start) is None


class TestOneBitmapFormat:
    def test_mask_chunks_and_the_bitmap_codec_write_the_same_bytes(self):
        mask = scattered(0.5)
        ids = IdList.from_mask(mask, START)
        assert encode_mask(mask, START) == get_codec("bitmap").encode(ids)

    def test_a_parent_tree_client_decodes_the_chunk(self):
        """The bitmap flag predates this writer; this is the decoder the
        parent commit ships, spelled out: flag 0x08, two LEB128 varints
        (offset, nbits), then ``packbits`` of the span, MSB first."""
        mask = scattered(0.5, seed=9)
        chunk = encode_mask(mask, START)
        assert chunk[0] == 0x08
        values, pos = [], 1
        while len(values) < 2:
            acc = shift = 0
            while True:
                byte = chunk[pos]
                pos += 1
                acc |= (byte & 0x7F) << shift
                shift += 7
                if not byte & 0x80:
                    break
            values.append(acc)
        offset, nbits = values
        payload = np.frombuffer(chunk[pos:], dtype=np.uint8)
        assert payload.size == (nbits + 7) // 8
        bits = np.unpackbits(payload)[:nbits].astype(bool)
        assert (np.flatnonzero(bits) + offset).tolist() == (np.flatnonzero(mask) + START).tolist()

    @pytest.mark.parametrize("name", ["bitmap", "bitmap_wah"])
    def test_span_bits_handles_touching_and_long_runs(self, name):
        # Touching runs are legal in a hand-built IdList (only union coalesces).
        ids = IdList(np.array([5, 9, 12, 400], np.uint64), np.array([8, 11, 300, 400], np.uint64))
        codec = get_codec(name)
        assert codec.decode(codec.encode(ids)).to_ids().tolist() == ids.to_ids().tolist()
        assert codec.decode(codec.encode(IdList.empty())).is_empty()


class TestDamagedBitmaps:
    def test_header_payload_mismatch(self):
        chunk = encode_mask(scattered(0.5), START)
        for damaged in (chunk[:-1], chunk + b"\x00"):
            with pytest.raises(EncodingError, match="does not match"):
                decode(damaged)

    def test_truncated_header(self):
        for damaged in (b"\x08", b"\x08\x80", b"\x08\x05", b"\x08\x85\x80"):
            with pytest.raises(EncodingError, match="truncated bitmap header"):
                decode(damaged)

    def test_zero_bits_with_a_payload(self):
        assert decode(b"\x08\x05\x00").is_empty()
        with pytest.raises(EncodingError, match="does not match"):
            decode(b"\x08\x05\x00\xff")

    def test_span_outside_the_id_space(self):
        for header, payload in (((2**64 - 4, 8), b"\xff"), ((2**64, 0), b"")):
            with pytest.raises(EncodingError, match="64-bit"):
                decode(b"\x08" + encode_scalar(header) + payload)
        with pytest.raises(EncodingError):  # an 11-byte varint is no uint64
            decode(b"\x08" + b"\x80" * 10 + b"\x01\x00")
        assert decode(b"\x08" + encode_scalar((2**64 - 8, 8)) + b"\x81").to_ids().tolist() == [
            2**64 - 8, 2**64 - 1,
        ]


class TestFromMask:
    @settings(deadline=None, max_examples=60)
    @given(bits=st.lists(st.booleans(), max_size=200), offset=st.integers(0, 2**63))
    def test_runs_match_the_id_array(self, bits, offset):
        mask = np.array(bits, dtype=bool)
        ids = IdList.from_mask(mask, offset)
        assert ids == IdList.from_ids(np.flatnonzero(mask).astype(np.uint64) + np.uint64(offset))
        assert ids.starts.dtype == ids.ends.dtype == np.uint64

    def test_accepts_lists_and_zero_one_bytes(self):
        assert IdList.from_mask([True, True, False, True]).to_ids().tolist() == [0, 1, 3]
        assert IdList.from_mask(np.array([0, 1, 1], np.uint8), 10).to_ids().tolist() == [11, 12]
