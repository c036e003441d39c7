"""Tests for DET (repro.crypto.det): PRP round-trip, determinism,
the equality leakage that motivates SPLASHE, and dictionary encoding.

The scheme is checked against an oracle that follows the construction's
definition one value at a time: a 4-round Feistel over 32-bit halves
whose round ``r`` of half ``h`` is the first four big-endian bytes of
``E_k(r.to_bytes(8, "big") + h.to_bytes(8, "big"))``.  ``E_k`` is a fresh
ECB cipher per block, pinned to AES-128 by the FIPS-197 vector below
(which ``test_aes.py`` checks through the scheme's own ECB pass).
"""

import numpy as np
import pytest
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.det import DetScheme, DictionaryEncoder
from repro.crypto.prf import CHUNK
from repro.errors import CryptoError

KEY = b"0123456789abcdef0123456789abcdef"
MASK32 = 0xFFFFFFFF

u64 = st.integers(min_value=0, max_value=2**64 - 1)
keys = st.binary(min_size=16, max_size=32)


def aes_block(key: bytes, hi: int, lo: int) -> bytes:
    """``E_k`` of the block ``hi || lo`` (two big-endian 64-bit words),
    one fresh cipher per call."""
    enc = Cipher(algorithms.AES(key[:16]), modes.ECB()).encryptor()
    return enc.update(hi.to_bytes(8, "big") + lo.to_bytes(8, "big")) + enc.finalize()


def round_fn(key: bytes, r: int, half: int) -> int:
    return int.from_bytes(aes_block(key, r, half)[:4], "big")


def oracle_encrypt(key: bytes, m: int) -> int:
    left, right = m >> 32, m & MASK32
    for r in range(4):
        left, right = right, left ^ round_fn(key, r, right)
    return (left << 32) | right


def oracle_decrypt(key: bytes, c: int) -> int:
    left, right = c >> 32, c & MASK32
    for r in reversed(range(4)):
        left, right = right ^ round_fn(key, r, left), left
    return (left << 32) | right


@pytest.fixture
def det() -> DetScheme:
    return DetScheme(KEY)


class TestOracle:
    def test_block_function_is_aes128(self):
        # FIPS-197 Appendix C.1.
        key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
        block = aes_block(key, 0x0011223344556677, 0x8899AABBCCDDEEFF)
        assert block.hex() == "69c4e0d86a7b0430d8cdb78070b4c55a"

    @given(key=keys, m=u64)
    @settings(max_examples=60, deadline=None)
    def test_feistel_round_trip(self, key, m):
        det = DetScheme(key)
        c = det.encrypt_one(m)
        assert c == oracle_encrypt(key, m)
        assert oracle_decrypt(key, c) == m
        assert det.decrypt_one(c) == m

    @given(key=keys, values=st.lists(u64, max_size=24))
    @settings(max_examples=30, deadline=None)
    def test_column_is_the_oracle(self, key, values):
        det = DetScheme(key)
        cipher = det.encrypt_column(np.array(values, dtype=np.uint64))
        assert cipher.dtype == np.uint64
        assert cipher.tolist() == [oracle_encrypt(key, m) for m in values]
        assert det.decrypt_column(cipher).view(np.uint64).tolist() == values

    def test_column_across_chunks(self, det):
        values = np.arange(-3, CHUNK + 5, dtype=np.int64) * 7919
        cipher = det.encrypt_column(values)
        for j in (0, 1, CHUNK - 1, CHUNK, CHUNK + 1, values.size - 1):
            assert int(cipher[j]) == oracle_encrypt(KEY, int(values[j]) & (2**64 - 1))
        assert det.decrypt_column(cipher).tolist() == values.tolist()

    def test_shape_kept(self, det):
        values = np.arange(6, dtype=np.int64).reshape(2, 3)
        cipher = det.encrypt_column(values)
        assert cipher.shape == (2, 3)
        assert det.decrypt_column(cipher).tolist() == values.tolist()


class TestPrpRoundTrip:
    def test_scalar(self, det):
        for m in [0, 1, 2**32, 2**63, 2**64 - 1]:
            assert det.decrypt_one(det.encrypt_one(m)) == m

    def test_column(self, det):
        values = np.array([0, 5, 5, 7, 2**40], dtype=np.int64)
        cipher = det.encrypt_column(values)
        assert det.decrypt_column(cipher).tolist() == values.tolist()

    def test_column_matches_scalar(self, det):
        values = np.arange(16)
        cipher = det.encrypt_column(values)
        for j, v in enumerate(values.tolist()):
            assert int(cipher[j]) == det.encrypt_one(v)

    @given(m=u64)
    @settings(max_examples=100, deadline=None)
    def test_property_bijection(self, m):
        det = DetScheme(KEY)
        assert det.decrypt_one(det.encrypt_one(m)) == m


class TestDeterminismAndLeakage:
    def test_equal_plaintexts_equal_ciphertexts(self, det):
        assert det.encrypt_one(42) == det.encrypt_one(42)

    def test_token_matches_column(self, det):
        col = det.encrypt_column(np.array([1, 2, 3, 2]))
        token = det.token(2)
        mask = col == np.uint64(token)
        assert mask.tolist() == [False, True, False, True]

    def test_frequency_is_visible(self, det):
        """DET leaks the histogram -- the very weakness SPLASHE removes."""
        values = np.array([0] * 70 + [1] * 30)
        cipher = det.encrypt_column(values)
        _, counts = np.unique(cipher, return_counts=True)
        assert sorted(counts.tolist()) == [30, 70]

    def test_key_separation(self):
        a = DetScheme(KEY)
        b = DetScheme(b"fedcba9876543210fedcba9876543210")
        assert a.encrypt_one(7) != b.encrypt_one(7)

    def test_no_fixed_points_in_small_range(self, det):
        # A random permutation of 2^64 elements has ~0 fixed points in any
        # small sample.
        hits = sum(det.encrypt_one(m) == m for m in range(512))
        assert hits == 0


class TestKey:
    def test_short_key_rejected(self):
        with pytest.raises(CryptoError, match="16 bytes"):
            DetScheme(b"short")


class TestDictionaryEncoder:
    def test_first_seen_order(self):
        enc = DictionaryEncoder()
        codes = enc.encode_column(["ca", "us", "ca", "in"])
        assert codes.tolist() == [0, 1, 0, 2]
        assert enc.cardinality == 3

    def test_decode_round_trip(self):
        enc = DictionaryEncoder()
        values = ["x", "y", "z", "y", "x"]
        codes = enc.encode_column(values)
        assert enc.decode_column(codes) == values

    def test_lookup_known(self):
        enc = DictionaryEncoder()
        enc.encode_column(["a", "b"])
        assert enc.lookup("b") == 1

    def test_lookup_unknown_raises(self):
        enc = DictionaryEncoder()
        with pytest.raises(CryptoError, match="not present"):
            enc.lookup("nope")

    def test_bad_code_raises(self):
        enc = DictionaryEncoder()
        enc.code("a")
        with pytest.raises(CryptoError, match="out of range"):
            enc.value(5)

    def test_shared_encoder_supports_joins(self):
        """Join columns encoded with one dictionary produce equal codes."""
        shared = DictionaryEncoder()
        left = shared.encode_column(["url1", "url2"])
        right = shared.encode_column(["url2", "url1", "url3"])
        assert left[1] == right[0]
        assert shared.known_values() == ["url1", "url2", "url3"]

    @given(values=st.lists(st.text(max_size=8), max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_property_round_trip(self, values):
        enc = DictionaryEncoder()
        codes = enc.encode_column(values)
        assert enc.decode_column(codes) == values
