"""Tests for vectorised variable-byte coding (repro.idlist.varbyte)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import EncodingError
from repro.idlist import varbyte

u64_lists = st.lists(st.integers(min_value=0, max_value=2**64 - 1), max_size=300)


class TestKnownEncodings:
    def test_small_values_one_byte(self):
        assert varbyte.encode(np.array([0, 1, 127], dtype=np.uint64)) == bytes(
            [0, 1, 127]
        )

    def test_128_takes_two_bytes(self):
        assert varbyte.encode(np.array([128], dtype=np.uint64)) == bytes([0x80, 0x01])

    def test_empty(self):
        assert varbyte.encode(np.empty(0, dtype=np.uint64)) == b""
        assert varbyte.decode(b"").size == 0

    def test_max_uint64_takes_ten_bytes(self):
        data = varbyte.encode(np.array([2**64 - 1], dtype=np.uint64))
        assert len(data) == 10
        assert varbyte.decode(data).tolist() == [2**64 - 1]

    def test_minimum_bytes_used(self):
        # Value v needs ceil(bitlen/7) bytes.
        for v in (1, 127, 128, 2**14 - 1, 2**14, 2**21 - 1, 2**21):
            encoded = varbyte.encode(np.array([v], dtype=np.uint64))
            expected = max(1, -(-v.bit_length() // 7))
            assert len(encoded) == expected, v


class TestErrors:
    def test_truncated_stream(self):
        with pytest.raises(EncodingError, match="truncated"):
            varbyte.decode(bytes([0x80]))

    def test_a_ten_byte_group_wraps_at_64_bits_either_way(self):
        short = bytes([0xFF] * 9 + [0x7F])
        assert len(short) <= varbyte.SCALAR_MAX < len(short * 2)
        assert varbyte.decode(short).tolist() == [2**64 - 1]
        assert varbyte.decode(short * 2).tolist() == [2**64 - 1] * 2

    def test_overlong_group(self):
        with pytest.raises(EncodingError, match="longer than 10"):
            varbyte.decode(bytes([0x80] * 11 + [0x01]))

    def test_scalar_rejects_negative(self):
        with pytest.raises(EncodingError, match="unsigned"):
            varbyte.encode_scalar([-1])

    def test_scalar_truncated(self):
        with pytest.raises(EncodingError, match="truncated"):
            varbyte.decode_scalar(bytes([0x80]))


@given(values=u64_lists)
@settings(max_examples=100, deadline=None)
def test_property_round_trip(values):
    arr = np.array(values, dtype=np.uint64)
    assert varbyte.decode(varbyte.encode(arr)).tolist() == values


@given(values=u64_lists)
@settings(max_examples=100, deadline=None)
def test_property_vectorised_matches_scalar_reference(values):
    arr = np.array(values, dtype=np.uint64)
    assert varbyte.encode(arr) == varbyte.encode_scalar(values)
    assert varbyte.encode_with_offsets(arr)[0] == varbyte.encode_scalar(values)
    encoded = varbyte.encode_scalar(values)
    assert varbyte.decode_scalar(encoded) == values
