"""Tests for ASHE's PRF, AES-128-CTR on AES-NI (repro.crypto.prf).

The batch paths are checked against a scalar oracle that follows the
construction's definition one ID at a time: ID ``i`` is lane ``i & 1`` of
``E_k((i >> 1).to_bytes(16, "big"))``, lane 0 the first eight big-endian
bytes.  ``E_k`` is a fresh ECB cipher per call, whose AES is pinned by
the known-answer vectors in ``test_aes.py``.
"""

import sys
import threading

import numpy as np
import pytest
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.prf import CHUNK, HAVE_AESNI, MASK64, AesNiCtrPrf
from repro.errors import CryptoError

KEY = b"0123456789abcdef0123456789abcdef"
OTHER_KEY = b"fedcba9876543210fedcba9876543210"

keys = st.binary(min_size=16, max_size=32)
ids64 = st.integers(min_value=0, max_value=MASK64)


def oracle(key: bytes, i: int) -> int:
    """``F_k(i)`` by definition, one AES block per call."""
    enc = Cipher(algorithms.AES(key[:16]), modes.ECB()).encryptor()
    block = enc.update(((i & MASK64) >> 1).to_bytes(16, "big")) + enc.finalize()
    lane = i & 1
    return int.from_bytes(block[8 * lane : 8 * lane + 8], "big")


@pytest.fixture
def prf() -> AesNiCtrPrf:
    return AesNiCtrPrf(KEY)


class TestOracle:
    @settings(max_examples=60, deadline=None)
    @given(key=keys, i=ids64)
    def test_eval_one(self, key, i):
        assert AesNiCtrPrf(key).eval_one(i) == oracle(key, i)

    @settings(max_examples=40, deadline=None)
    @given(key=keys, ids=st.lists(ids64, max_size=24))
    def test_eval_many(self, key, ids):
        got = AesNiCtrPrf(key).eval_many(np.array(ids, dtype=np.uint64))
        assert got.dtype == np.uint64
        assert got.tolist() == [oracle(key, i) for i in ids]

    @settings(max_examples=40, deadline=None)
    @given(
        key=keys,
        start=st.one_of(ids64, st.integers(min_value=MASK64 - 40, max_value=MASK64)),
        count=st.integers(min_value=0, max_value=48),
    )
    def test_eval_range(self, key, start, count):
        got = AesNiCtrPrf(key).eval_range(start, count)
        assert got.tolist() == [oracle(key, start + j) for j in range(count)]

    @pytest.mark.parametrize("start", [MASK64 - 4, MASK64 - 3, MASK64, -1, -2])
    def test_eval_range_splits_at_the_2_64_wraparound(self, prf, start):
        got = prf.eval_range(start, 9)
        assert got.tolist() == [oracle(KEY, start + j) for j in range(9)]
        assert got[(-start) % 2**64] == oracle(KEY, 0)  # ID 0 follows 2^64 - 1

    @pytest.mark.parametrize("count", [1, 2, 3])
    @pytest.mark.parametrize("start", [0, 1, 2, 3])
    def test_eval_range_at_every_lane_alignment(self, prf, start, count):
        """A stream may start and end on either lane of a block."""
        got = prf.eval_range(start, count)
        assert got.tolist() == [oracle(KEY, start + j) for j in range(count)]

    def test_eval_many_keeps_the_shape(self, prf):
        ids = np.arange(12, dtype=np.uint64).reshape(3, 4)
        got = prf.eval_many(ids)
        assert got.shape == (3, 4)
        assert got.ravel().tolist() == [oracle(KEY, i) for i in range(12)]


class TestChunks:
    """Evaluation runs :data:`CHUNK` counter blocks per ECB call; every
    count around a chunk edge, on either lane, matches the oracle."""

    COUNTS = [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1]

    @pytest.mark.parametrize("count", COUNTS)
    @pytest.mark.parametrize("lane", [0, 1])
    def test_eval_many_across_chunk_edges(self, prf, count, lane):
        ids = np.arange(count, dtype=np.uint64) * np.uint64(3) + np.uint64(10 + lane)
        got = prf.eval_many(ids)
        assert got.tolist() == [oracle(KEY, int(i)) for i in ids]

    @pytest.mark.parametrize("blocks", COUNTS)
    @pytest.mark.parametrize("lane", [0, 1])
    def test_eval_range_across_chunk_edges(self, prf, blocks, lane):
        """``2 * blocks`` IDs from an even start fill whole blocks; from an
        odd one they straddle one more block."""
        start = 1000 + lane
        got = prf.eval_range(start, 2 * blocks)
        assert got.tolist() == [oracle(KEY, start + j) for j in range(2 * blocks)]

    @pytest.mark.parametrize("lane", [0, 1])
    def test_the_2_64_wraparound_split_spans_chunks(self, prf, lane):
        start = (1 << 64) - 2 * CHUNK - 1 - lane
        count = 4 * CHUNK + 3
        got = prf.eval_range(start, count)
        assert got.tolist() == [oracle(KEY, start + j) for j in range(count)]


class TestThreads:
    def test_threads_share_a_prf_not_a_context(self):
        """Eight threads hammering one PRF (single IDs and a stream across
        a chunk boundary) at a short switch interval each read the
        single-thread answers: every thread encrypts through an ECB
        context of its own."""
        prf = AesNiCtrPrf(KEY)
        want_range = AesNiCtrPrf(KEY).eval_range(5, CHUNK + 7)
        want_one = [oracle(KEY, i) for i in range(16)]
        errors: list[Exception] = []
        start = threading.Barrier(8)

        def hammer():
            try:
                start.wait(timeout=10)
                for _ in range(20):
                    assert np.array_equal(prf.eval_range(5, CHUNK + 7), want_range)
                    assert [prf.eval_one(i) for i in range(16)] == want_one
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors


class TestDeterminism:
    def test_same_input_same_output(self, prf):
        assert prf.eval_one(42) == prf.eval_one(42) == AesNiCtrPrf(KEY).eval_one(42)

    def test_different_inputs_differ(self, prf):
        assert len(set(prf.eval_range(0, 256).tolist())) == 256

    def test_key_separation(self, prf):
        other = AesNiCtrPrf(OTHER_KEY)
        assert not np.any(prf.eval_range(0, 64) == other.eval_range(0, 64))

    def test_output_in_range(self, prf):
        for i in [0, 1, 2**32, MASK64]:
            assert 0 <= prf.eval_one(i) <= MASK64

    def test_two_lanes_per_block(self, prf):
        """IDs 2k and 2k+1 come from the same AES block, different halves."""
        block = prf._cipher.encryptor().update((7).to_bytes(16, "big"))
        assert prf.eval_one(14) == int.from_bytes(block[:8], "big")
        assert prf.eval_one(15) == int.from_bytes(block[8:], "big")


class TestVectorisedConsistency:
    def test_eval_range_matches_eval_one(self, prf):
        out = prf.eval_range(100, 16)
        for j in range(16):
            assert out[j] == prf.eval_one(100 + j)

    def test_eval_range_negative_start_wraps(self, prf):
        out = prf.eval_range(-1, 2)
        assert out[0] == prf.eval_one(MASK64)
        assert out[1] == prf.eval_one(0)

    def test_eval_range_empty(self, prf):
        assert prf.eval_range(0, 0).size == 0
        assert prf.eval_many(np.empty(0, dtype=np.uint64)).size == 0

    def test_eval_range_negative_count_rejected(self, prf):
        with pytest.raises(CryptoError, match="negative"):
            prf.eval_range(0, -1)


class TestStatisticalQuality:
    """The PRF output should look uniform; coarse chi-square style checks."""

    def test_bit_balance(self, prf):
        bits = np.unpackbits(prf.eval_range(0, 4096).view(np.uint8))
        assert 0.48 < bits.mean() < 0.52

    def test_avalanche(self, prf):
        flips = [bin(prf.eval_one(i) ^ prf.eval_one(i ^ 2)).count("1") for i in range(200)]
        assert 24 < np.mean(flips) < 40  # expect ~32 of 64 bits


class TestKeys:
    def test_short_key_rejected(self):
        with pytest.raises(CryptoError, match="at least 16 bytes"):
            AesNiCtrPrf(b"short")

    def test_non_bytes_key_rejected(self):
        with pytest.raises(CryptoError, match="must be bytes"):
            AesNiCtrPrf("not-bytes" * 4)  # type: ignore[arg-type]

    @pytest.mark.parametrize("extra", [0, 8, 16])
    def test_only_the_first_16_key_bytes_key_the_prf(self, extra):
        key = KEY[:16] + bytes(range(extra))
        assert AesNiCtrPrf(key).eval_range(0, 8).tolist() == [oracle(KEY, i) for i in range(8)]

    def test_bytearray_key_is_the_same_key(self):
        assert AesNiCtrPrf(bytearray(KEY)).eval_one(3) == AesNiCtrPrf(KEY).eval_one(3)

    def test_hardware_aes_is_always_there(self):
        assert HAVE_AESNI is True
