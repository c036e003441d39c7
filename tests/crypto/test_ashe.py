"""Tests for ASHE (repro.crypto.ashe): correctness, homomorphism,
telescoping, and the semantic-security sanity properties from Appendix A."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.ashe import (
    AsheCiphertext,
    AsheScheme,
    check_overflow_headroom,
    from_signed,
    to_signed,
)
from repro.crypto.prf import Blake2Prf, SplitMix64Prf
from repro.errors import CryptoError, DecryptionError

KEY = b"0123456789abcdef0123456789abcdef"

signed_values = st.integers(min_value=-(2**40), max_value=2**40)


@pytest.fixture(params=[Blake2Prf, SplitMix64Prf], ids=lambda c: c.name)
def scheme(request) -> AsheScheme:
    return AsheScheme(request.param(KEY))


class TestScalarRoundTrip:
    def test_single_value(self, scheme):
        ct = scheme.encrypt(12345, 7)
        assert scheme.decrypt(ct) == 12345

    def test_negative_value(self, scheme):
        ct = scheme.encrypt(-99, 3)
        assert scheme.decrypt(ct) == -99

    def test_zero(self, scheme):
        assert scheme.decrypt(scheme.encrypt(0, 0)) == 0

    def test_identifier_zero_wraps_pad(self, scheme):
        # i=0 uses F(2^64 - 1) as the previous pad; must still round-trip.
        assert scheme.decrypt(scheme.encrypt(77, 0)) == 77

    def test_ciphertext_hides_plaintext(self, scheme):
        # The group element must differ from the plaintext (overwhelmingly).
        hits = sum(scheme.encrypt(m, i).value == m for i, m in enumerate(range(100)))
        assert hits == 0


class TestHomomorphism:
    def test_two_values(self, scheme):
        ct = scheme.encrypt(10, 1) + scheme.encrypt(32, 2)
        assert scheme.decrypt(ct) == 42

    def test_noncontiguous_ids(self, scheme):
        ct = scheme.encrypt(5, 10) + scheme.encrypt(6, 99) + scheme.encrypt(7, 55)
        assert scheme.decrypt(ct) == 18
        assert ct.ids.num_runs == 3

    def test_contiguous_ids_merge_runs(self, scheme):
        cts = [scheme.encrypt(m, i) for i, m in enumerate([1, 2, 3, 4])]
        total = cts[0] + cts[1] + cts[2] + cts[3]
        assert total.ids.num_runs == 1  # the compactness optimisation
        assert scheme.decrypt(total) == 10

    def test_sum_builtin(self, scheme):
        cts = [scheme.encrypt(m, i) for i, m in enumerate([5, 6, 7])]
        assert scheme.decrypt(sum(cts)) == 18

    def test_zero_identity(self, scheme):
        ct = scheme.encrypt(9, 4) + AsheCiphertext.zero()
        assert scheme.decrypt(ct) == 9


class TestColumnInterface:
    def test_round_trip(self, scheme):
        values = np.array([3, -1, 4, -1, 5, -9, 2, 6], dtype=np.int64)
        enc = scheme.encrypt_column(values, start_id=1000)
        assert enc.dtype == np.uint64
        assert scheme.decrypt_column(enc, 1000).tolist() == values.tolist()

    def test_column_matches_scalar(self, scheme):
        values = np.array([10, 20, 30], dtype=np.int64)
        enc = scheme.encrypt_column(values, start_id=5)
        for j in range(3):
            scalar = scheme.encrypt(int(values[j]), 5 + j)
            assert int(enc[j]) == scalar.value

    def test_empty_column(self, scheme):
        assert scheme.encrypt_column(np.array([], dtype=np.int64), 0).size == 0

    def test_2d_rejected(self, scheme):
        with pytest.raises(CryptoError, match="1-D"):
            scheme.encrypt_column(np.zeros((2, 2), dtype=np.int64), 0)


class TestAggregation:
    def test_full_aggregate_telescopes(self, scheme):
        values = np.arange(100, dtype=np.int64)
        enc = scheme.encrypt_column(values, start_id=0)
        ct = scheme.aggregate(enc, None, start_id=0)
        assert ct.ids.num_runs == 1
        assert scheme.decrypt_sum(ct.value, ct.ids) == values.sum()

    def test_masked_aggregate(self, scheme):
        values = np.array([1, 2, 3, 4, 5, 6], dtype=np.int64)
        mask = np.array([True, False, True, False, True, False])
        enc = scheme.encrypt_column(values, start_id=50)
        ct = scheme.aggregate(enc, mask, start_id=50)
        assert scheme.decrypt_sum(ct.value, ct.ids) == 9
        assert ct.ids.count() == 3

    def test_empty_selection(self, scheme):
        values = np.array([1, 2, 3], dtype=np.int64)
        enc = scheme.encrypt_column(values, start_id=0)
        ct = scheme.aggregate(enc, np.zeros(3, dtype=bool), start_id=0)
        assert scheme.decrypt_sum(ct.value, ct.ids) == 0

    def test_partition_merge(self, scheme):
        """Worker partials union into a driver result (the Figure 2 flow)."""
        v1 = np.array([10, 20], dtype=np.int64)
        v2 = np.array([30, 40], dtype=np.int64)
        e1 = scheme.encrypt_column(v1, start_id=0)
        e2 = scheme.encrypt_column(v2, start_id=2)
        partial = scheme.aggregate(e1, None, 0) + scheme.aggregate(e2, None, 2)
        assert partial.ids.num_runs == 1  # contiguous partitions coalesce
        assert scheme.decrypt_sum(partial.value, partial.ids) == 100

    def test_decrypt_needs_two_prf_evals_per_run(self, scheme):
        values = np.arange(1000, dtype=np.int64)
        enc = scheme.encrypt_column(values, start_id=0)
        ct = scheme.aggregate(enc, None, start_id=0)
        before = scheme.prf_evals
        scheme.decrypt_sum(ct.value, ct.ids)
        assert scheme.prf_evals - before == 2


class TestPadArray:
    """Per-ID pads: one stream over a dense hull, one per dense stretch of
    pieces when the hull spans several ID spaces (a sharded reply), two
    evaluations per ID otherwise -- the same pads every way."""

    STRIDE = 1 << 44  # the shard ID stride

    def ids_and_pieces(self, rng, spaces):
        pieces = [np.sort(rng.choice(2000, 1500, replace=False)).astype(np.uint64)
                  + np.uint64(space * self.STRIDE) for space in spaces for _ in range(3)]
        return np.concatenate(pieces), np.array([len(p) for p in pieces])

    def reference(self, scheme, ids):
        return scheme._prf.eval_many(ids) - scheme._prf.eval_many(ids - np.uint64(1))

    @pytest.mark.parametrize("spaces", [[0], [0, 1], [2, 0, 1]])
    def test_stretches_pad_like_the_reference(self, scheme, spaces):
        ids, pieces = self.ids_and_pieces(np.random.default_rng(len(spaces)), spaces)
        before = scheme.prf_evals
        assert scheme.pad_array(ids, pieces).tolist() == self.reference(scheme, ids).tolist()
        hull = scheme.prf_evals - before
        assert hull <= 2 * ids.size
        if len(spaces) > 1:
            before = scheme.prf_evals
            assert scheme.pad_array(ids).tolist() == self.reference(scheme, ids).tolist()
            assert scheme.prf_evals - before == 2 * ids.size > hull

    def test_scattered_pieces_fall_back(self, scheme):
        ids = np.array([5, 10**6, 3 * 10**9], dtype=np.uint64)
        pads = scheme.pad_array(ids, np.array([1, 0, 1, 1]))
        assert pads.tolist() == self.reference(scheme, ids).tolist()

    def test_many_small_stretches_fall_back(self, scheme):
        # 400 isolated IDs: 400 one-ID streams would make as many
        # evaluations as the scattered path, but 400 pad_range calls.
        ids = np.arange(400, dtype=np.uint64) * np.uint64(1000)
        before = scheme.prf_evals
        pads = scheme.pad_array(ids, np.ones(400, dtype=np.int64))
        assert pads.tolist() == self.reference(scheme, ids).tolist()
        assert scheme.prf_evals - before == 2 * ids.size


class TestSecuritySanity:
    """Cheap observable consequences of IND-CPA (Appendix A.1)."""

    def test_same_plaintext_distinct_ids_distinct_ciphertexts(self, scheme):
        cts = {scheme.encrypt(42, i).value for i in range(200)}
        assert len(cts) == 200

    def test_ciphertext_bits_balanced(self):
        scheme = AsheScheme(SplitMix64Prf(KEY))
        enc = scheme.encrypt_column(np.zeros(4096, dtype=np.int64), start_id=0)
        bits = np.unpackbits(enc.view(np.uint8))
        assert 0.48 < bits.mean() < 0.52

    def test_wrong_key_garbage(self):
        enc = AsheScheme(SplitMix64Prf(KEY))
        dec = AsheScheme(SplitMix64Prf(b"fedcba9876543210fedcba9876543210"))
        ct = enc.encrypt(1234, 9)
        assert dec.decrypt(ct) != 1234


class TestSignedEncoding:
    @given(v=st.integers(min_value=-(2**63), max_value=2**63 - 1))
    @settings(max_examples=200, deadline=None)
    def test_to_from_signed_roundtrip(self, v):
        assert to_signed(from_signed(v)) == v

    def test_overflow_guard(self):
        check_overflow_headroom(1000, 10**6)  # fine
        with pytest.raises(DecryptionError, match="overflow"):
            check_overflow_headroom(2**40, 2**24)

    def test_overflow_guard_rejects_negative(self):
        with pytest.raises(CryptoError):
            check_overflow_headroom(-1, 10)


@given(values=st.lists(signed_values, min_size=1, max_size=60),
       start=st.integers(min_value=0, max_value=2**48))
@settings(max_examples=60, deadline=None)
def test_property_sum_of_any_subset(values, start):
    """decrypt(sum(Enc(m_i))) == sum(m_i) for arbitrary subsets and IDs."""
    scheme = AsheScheme(SplitMix64Prf(KEY))
    enc = scheme.encrypt_column(np.array(values, dtype=np.int64), start_id=start)
    rng = np.random.default_rng(len(values))
    mask = rng.random(len(values)) < 0.5
    ct = scheme.aggregate(enc, mask, start_id=start)
    expected = int(np.array(values, dtype=np.int64)[mask].sum())
    assert scheme.decrypt_sum(ct.value, ct.ids) == expected


@given(values=st.lists(signed_values, min_size=2, max_size=30))
@settings(max_examples=40, deadline=None)
def test_property_addition_associative_commutative(values):
    scheme = AsheScheme(SplitMix64Prf(KEY))
    cts = [scheme.encrypt(v, i) for i, v in enumerate(values)]
    forward = sum(cts)
    backward = sum(reversed(cts))
    assert forward.value == backward.value
    assert forward.ids == backward.ids
    assert scheme.decrypt(forward) == sum(values)
