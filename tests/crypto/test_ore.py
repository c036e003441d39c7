"""Tests for the Chenette et al. ORE scheme (repro.crypto.ore).

Ciphertexts are checked against an oracle that follows CLWW's definition
one bit position at a time: ``u_i = (F(i, prefix) + b_i) mod 3`` with
``F(i, p) = floor(3h / 2^32)``, ``h`` the first four big-endian bytes of
``E_k(i.to_bytes(8, "big") + p.to_bytes(8, "big"))``.  ``E_k`` is a fresh
ECB cipher per block, pinned to AES-128 by the FIPS-197 vector below
(which ``test_aes.py`` checks through the scheme's own ECB pass).
"""

import itertools

import numpy as np
import pytest
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.ore import OreScheme, argextreme_packed
from repro.crypto.prf import CHUNK
from repro.errors import CryptoError

KEY = b"0123456789abcdef0123456789abcdef"


def aes_block(key: bytes, hi: int, lo: int) -> bytes:
    """``E_k`` of the block ``hi || lo`` (two big-endian 64-bit words),
    one fresh cipher per call."""
    enc = Cipher(algorithms.AES(key[:16]), modes.ECB()).encryptor()
    return enc.update(hi.to_bytes(8, "big") + lo.to_bytes(8, "big")) + enc.finalize()


def oracle(key: bytes, nbits: int, signed: bool, m: int) -> tuple[int, ...]:
    """CLWW by definition: one AES block per bit position."""
    v = m + (1 << (nbits - 1) if signed else 0)
    words = [0] * ((nbits + 31) // 32)
    for i in range(1, nbits + 1):
        prefix = v >> (nbits - i + 1)
        bit = (v >> (nbits - i)) & 1
        f = (3 * int.from_bytes(aes_block(key, i, prefix)[:4], "big")) >> 32
        words[(i - 1) // 32] |= ((f + bit) % 3) << (2 * ((i - 1) % 32))
    return tuple(words)


@st.composite
def domain(draw, max_size=8):
    """``(nbits, signed, values)`` over the widths the scheme takes."""
    nbits = draw(st.sampled_from([1, 8, 16, 32, 63, 64]))
    signed = draw(st.booleans())
    lo = -(1 << (nbits - 1)) if signed else 0
    value = st.integers(min_value=lo, max_value=lo + (1 << nbits) - 1)
    return nbits, signed, draw(st.lists(value, min_size=1, max_size=max_size))


@pytest.fixture(params=[8, 32, 64], ids=lambda n: f"{n}bit")
def ore(request) -> OreScheme:
    return OreScheme(KEY, nbits=request.param)


def domain_values(nbits: int) -> list[int]:
    top = 1 << (nbits - 1)
    return [-top, -top // 2, -3, -1, 0, 1, 2, 3, top // 2, top - 1]


class TestOracle:
    def test_block_function_is_aes128(self):
        # FIPS-197 Appendix C.1.
        key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
        block = aes_block(key, 0x0011223344556677, 0x8899AABBCCDDEEFF)
        assert block.hex() == "69c4e0d86a7b0430d8cdb78070b4c55a"

    @given(key=st.binary(min_size=16, max_size=32), case=domain())
    @settings(max_examples=60, deadline=None)
    def test_clww_trits(self, key, case):
        nbits, signed, values = case
        ore = OreScheme(key, nbits=nbits, signed=signed)
        expect = [oracle(key, nbits, signed, m) for m in values]
        assert [ore.encrypt_one(m) for m in values] == expect
        column = ore.encrypt_column(np.array(values, dtype=np.int64 if signed else np.uint64))
        assert column.shape == (len(values), ore.num_words)
        assert [tuple(int(w) for w in row) for row in column] == expect

    @pytest.mark.parametrize("nbits", [8, 63])
    def test_column_across_row_blocks(self, nbits):
        """Row blocks of CHUNK // nbits rows; 63 does not divide CHUNK."""
        ore = OreScheme(KEY, nbits=nbits)
        top = 1 << (nbits - 1)
        values = np.random.default_rng(nbits).integers(-top, top, 2 * CHUNK // nbits + 3)
        column = ore.encrypt_column(values)
        for j, m in enumerate(values.tolist()):
            assert tuple(int(w) for w in column[j]) == oracle(KEY, nbits, True, m)

    def test_empty_column(self):
        assert OreScheme(KEY).encrypt_column(np.array([], dtype=np.int64)).shape == (0, 1)


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

    def test_short_key_rejected(self):
        with pytest.raises(CryptoError, match="16 bytes"):
            OreScheme(b"short")


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
