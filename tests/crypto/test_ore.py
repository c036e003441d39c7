"""Tests for the Chenette et al. ORE scheme (repro.crypto.ore)."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.ore import OreScheme, argextreme_packed
from repro.errors import CryptoError

KEY = b"0123456789abcdef0123456789abcdef"


@pytest.fixture(params=[8, 32, 64], ids=lambda n: f"{n}bit")
def ore(request) -> OreScheme:
    return OreScheme(KEY, nbits=request.param)


def domain_values(nbits: int) -> list[int]:
    top = 1 << (nbits - 1)
    return [-top, -top // 2, -3, -1, 0, 1, 2, 3, top // 2, top - 1]


class TestOrderCorrectness:
    def test_pairwise_order(self, ore):
        vals = domain_values(ore.nbits)
        cts = {v: ore.encrypt_one(v) for v in vals}
        for a, b in itertools.product(vals, vals):
            expect = (a > b) - (a < b)
            assert ore.compare_words(cts[a], cts[b]) == expect, (a, b)

    def test_equal_plaintexts_equal_ciphertexts(self, ore):
        assert ore.encrypt_one(5) == ore.encrypt_one(5)

    def test_column_compare_matches_scalar(self, ore):
        vals = np.array(domain_values(ore.nbits))
        col = ore.encrypt_column(vals)
        pivot = 2
        cmp = ore.compare_column(col, ore.token(pivot))
        expected = [(v > pivot) - (v < pivot) for v in vals.tolist()]
        assert cmp.tolist() == expected

    def test_column_matches_encrypt_one(self, ore):
        vals = np.array(domain_values(ore.nbits))
        col = ore.encrypt_column(vals)
        for j, v in enumerate(vals.tolist()):
            assert tuple(int(w) for w in col[j]) == ore.encrypt_one(v)


class TestFilters:
    def test_all_operators(self):
        ore = OreScheme(KEY, nbits=16)
        vals = np.array([-5, 0, 3, 7, 7, 100])
        col = ore.encrypt_column(vals)
        tok = ore.token(7)
        assert ore.filter_column(col, "<", tok).tolist() == (vals < 7).tolist()
        assert ore.filter_column(col, "<=", tok).tolist() == (vals <= 7).tolist()
        assert ore.filter_column(col, ">", tok).tolist() == (vals > 7).tolist()
        assert ore.filter_column(col, ">=", tok).tolist() == (vals >= 7).tolist()
        assert ore.filter_column(col, "=", tok).tolist() == (vals == 7).tolist()
        assert ore.filter_column(col, "!=", tok).tolist() == (vals != 7).tolist()

    def test_bad_operator(self):
        ore = OreScheme(KEY, nbits=16)
        col = ore.encrypt_column(np.array([1]))
        with pytest.raises(CryptoError, match="operator"):
            ore.filter_column(col, "~", ore.token(0))

    def test_argmax_argmin(self):
        ore = OreScheme(KEY, nbits=32)
        vals = np.array([5, -9, 100, 3, 42])
        col = ore.encrypt_column(vals)
        assert argextreme_packed(col, "max") == 2
        assert argextreme_packed(col, "min") == 1

    def test_argmax_empty_rejected(self):
        with pytest.raises(CryptoError, match="empty"):
            argextreme_packed(np.empty((0, 1), dtype=np.uint64), "max")


class TestLeakageProfile:
    """The scheme leaks order and inddiff -- and must leak nothing *less*
    (correctness) while the prefix construction hides lower bits."""

    def test_first_diff_index(self):
        ore = OreScheme(KEY, nbits=8, signed=False)
        a = ore.encrypt_one(0b10110000)
        b = ore.encrypt_one(0b10100000)
        # bits differ first at position 4 (1-indexed from the MSB)
        assert ore.first_diff_index(a, b) == 4

    def test_equal_messages_no_diff(self):
        ore = OreScheme(KEY, nbits=8, signed=False)
        assert ore.first_diff_index(ore.encrypt_one(9), ore.encrypt_one(9)) is None

    def test_shared_prefix_shared_trits(self):
        """Messages agreeing on a prefix produce identical leading trits."""
        ore = OreScheme(KEY, nbits=8, signed=False)
        a = ore.encrypt_one(0b11000001)[0]
        b = ore.encrypt_one(0b11000010)[0]
        # First 6 bit positions agree -> first 6 trit pairs equal.
        mask = (1 << 12) - 1
        assert a & mask == b & mask

    def test_64bit_uses_two_words(self):
        ore = OreScheme(KEY, nbits=64)
        assert ore.num_words == 2
        assert len(ore.encrypt_one(0)) == 2


class TestDomainValidation:
    def test_out_of_domain_scalar(self):
        ore = OreScheme(KEY, nbits=8)
        with pytest.raises(CryptoError, match="domain"):
            ore.encrypt_one(1 << 10)

    def test_out_of_domain_column(self):
        ore = OreScheme(KEY, nbits=8)
        with pytest.raises(CryptoError, match="domain"):
            ore.encrypt_column(np.array([0, 5000]))

    def test_unsigned_mode(self):
        ore = OreScheme(KEY, nbits=8, signed=False)
        cts = [ore.encrypt_one(v) for v in (0, 100, 255)]
        assert ore.compare_words(cts[0], cts[1]) == -1
        assert ore.compare_words(cts[2], cts[1]) == 1
        with pytest.raises(CryptoError):
            ore.encrypt_one(-1)

    def test_bad_nbits(self):
        with pytest.raises(CryptoError, match="1..64"):
            OreScheme(KEY, nbits=65)

    def test_bad_backend(self):
        with pytest.raises(CryptoError, match="backend"):
            OreScheme(KEY, backend="none")


class TestBlake2Backend:
    def test_order_preserved(self):
        ore = OreScheme(KEY, nbits=16, backend="blake2")
        vals = [-100, -1, 0, 7, 300]
        cts = [ore.encrypt_one(v) for v in vals]
        for i in range(len(vals) - 1):
            assert ore.compare_words(cts[i], cts[i + 1]) == -1

    def test_column_matches_scalar(self):
        ore = OreScheme(KEY, nbits=16, backend="blake2")
        vals = np.array([-3, 0, 9])
        col = ore.encrypt_column(vals)
        for j, v in enumerate(vals.tolist()):
            assert tuple(int(w) for w in col[j]) == ore.encrypt_one(v)


@given(
    a=st.integers(min_value=-(2**31), max_value=2**31 - 1),
    b=st.integers(min_value=-(2**31), max_value=2**31 - 1),
)
@settings(max_examples=150, deadline=None)
def test_property_order_revealed_correctly(a, b):
    ore = OreScheme(KEY, nbits=32)
    ca, cb = ore.encrypt_one(a), ore.encrypt_one(b)
    assert ore.compare_words(ca, cb) == (a > b) - (a < b)


@given(values=st.lists(st.integers(min_value=-(2**15), max_value=2**15 - 1),
                       min_size=1, max_size=40),
       pivot=st.integers(min_value=-(2**15), max_value=2**15 - 1))
@settings(max_examples=50, deadline=None)
def test_property_column_filter_matches_plaintext(values, pivot):
    ore = OreScheme(KEY, nbits=16)
    arr = np.array(values)
    col = ore.encrypt_column(arr)
    got = ore.filter_column(col, ">", ore.token(pivot))
    assert got.tolist() == (arr > pivot).tolist()
