"""Tests for ASHE (repro.crypto.ashe): correctness, homomorphism,
telescoping, and the semantic-security sanity properties from Appendix A."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import server as srv
from repro.core.crypto_factory import CryptoFactory
from repro.core.decryptor import DecryptionModule
from repro.core.encryptor import ClientTableState
from repro.core.grouped import GroupedRows, IdPiece, code_dtype
from repro.core.planner import Planner
from repro.core.schema import ColumnSpec, TableSchema
from repro.core.translator import QueryTranslator
from repro.crypto import prf as prf_module
from repro.crypto.ashe import (
    AsheCiphertext,
    AsheScheme,
    check_overflow_headroom,
    from_signed,
    to_signed,
)
from repro.crypto.keys import KeyChain
from repro.crypto.prf import MASK64, AesNiCtrPrf
from repro.errors import CryptoError, DecryptionError
from repro.idlist import IdList, get_codec
from repro.idlist.codec import encode_multiset
from repro.query.executor import execute_plain
from repro.query.parser import parse_query

KEY = b"0123456789abcdef0123456789abcdef"

signed_values = st.integers(min_value=-(2**40), max_value=2**40)


@pytest.fixture
def scheme() -> AsheScheme:
    return AsheScheme(AesNiCtrPrf(KEY))


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

    def test_a_pad_sum_folds_several_prf_chunks(self, scheme):
        """Runs of one to three IDs, two apart: four PRF calls of
        ``CHUNK / 2`` runs' ends, summed to the per-ID pads' total."""
        lengths = np.random.default_rng(3).integers(1, 4, 3 * prf_module.CHUNK // 2 + 5)
        starts = 1 + np.concatenate(([0], np.cumsum(lengths + 2)[:-1]))
        ids = IdList(starts, starts + lengths - 1)
        prf = scheme._prf
        reference = sum(prf.eval_one(i) - prf.eval_one(i - 1) for i in ids.to_ids().tolist())
        before = scheme.prf_evals
        assert scheme.pad_for(ids) == reference & MASK64
        assert scheme.prf_evals - before == 2 * ids.num_runs


def _run(lo, hi):
    return np.arange(lo, hi, dtype=np.uint64)


STRIDE = 1 << 44  # the shard ID stride
CHUNK = {"run": get_codec("seabed").encode, "runs": get_codec("seabed").encode,
         "bitmap": get_codec("bitmap").encode}


class TestPadArray:
    """Per-ID pads as the grouped decryptor takes them: its blocked open
    (:mod:`repro.core.decryptor`) over pieces of every chunk kind and
    layout decrypts to the plaintext executor's rows, within two PRF
    evaluations per ID, and a contiguous selection costs rows + 1."""

    SQL = "SELECT g, sum(x), count(*) FROM t GROUP BY g"

    @pytest.fixture(scope="class")
    def env(self):
        schema = TableSchema("t", [ColumnSpec("x", dtype="int", sensitive=True),
                                   ColumnSpec("g", dtype="int", sensitive=True)])
        enc, _ = Planner("seabed").plan(schema, [parse_query(self.SQL)])
        state = ClientTableState(schema=schema, enc_schema=enc)
        factory = CryptoFactory(KeyChain(KEY), "t")
        return state, factory, QueryTranslator(state, factory).translate(parse_query(self.SQL))

    def open(self, env, pieces, seed=0):
        """Encrypt one row per ID occurrence in ``pieces`` ((chunk kind,
        IDs) pairs), decrypt the grouped reply they make; returns the rows,
        ``execute_plain``'s rows, the ASHE PRF evaluations and the IDs."""
        state, factory, tq = env
        scheme = factory.ashe("x__ashe")
        rng = np.random.default_rng(seed)
        ids = np.concatenate([np.sort(piece) for _, piece in pieces])
        distinct, at = np.unique(ids, return_inverse=True)  # a row per distinct ID
        x = rng.integers(-1000, 1000, distinct.size)[at]
        g = rng.integers(0, 5, distinct.size)[at]
        prf = scheme.wrapped._prf
        cipher = x.view(np.uint64) - (prf.eval_many(ids) - prf.eval_many(ids - np.uint64(1)))
        present = np.unique(g)
        tokens = factory.det("g__det").encrypt_column(present)
        rank = np.empty(present.size, dtype=np.int64)
        rank[np.argsort(tokens)] = np.arange(present.size)
        codes = rank[np.searchsorted(present, g)].astype(code_dtype(present.size))
        sums = np.zeros(present.size, dtype=np.uint64)
        np.add.at(sums, codes, cipher)
        bounds = np.cumsum([0] + [piece.size for _, piece in pieces])
        chunks = [IdPiece(encode_multiset(np.sort(piece)) if kind == "multiset"
                          else CHUNK[kind](IdList.from_ids(np.sort(piece))), codes[lo:hi])
                  for (kind, piece), lo, hi in zip(pieces, bounds[:-1], bounds[1:])]
        reply = srv.ServerResponse(groups=GroupedRows(
            np.sort(tokens), {tq.requests[0].aggs[0].alias: sums}, {srv.ROW_IDS: chunks}))
        before = scheme.prf_evals
        rows = DecryptionModule(state, factory).decrypt(tq, [reply])
        evals = scheme.prf_evals - before
        expected = execute_plain({"t": {"x": x, "g": g}}, tq.query)
        by_g = sorted(rows, key=lambda r: r["g"]), sorted(expected, key=lambda r: r["g"])
        return *by_g, evals, ids.size

    CONTIGUOUS = {
        "one-run": [("run", _run(0, 100)), ("run", _run(100, 250)), ("run", _run(250, 400))],
        "boundary-inside-a-run": [("run", _run(5, 9005)), ("run", _run(9005, 18005)),
                                  ("run", _run(18005, 27005))],
        "piece-larger-than-a-block": [("run", _run(0, 700)), ("run", _run(700, 40700)),
                                      ("run", _run(40700, 40701))],
        "one-id-pieces": [("run", _run(i, i + 1)) for i in range(3, 40)],
    }

    @pytest.mark.parametrize("case", sorted(CONTIGUOUS))
    def test_contiguous_selection_costs_rows_plus_one(self, env, case):
        rows, expected, evals, n = self.open(env, self.CONTIGUOUS[case])
        assert rows == expected
        assert evals == n + 1

    SCATTERED = {
        "run-coded": [("runs", _run(0, 3000)[np.arange(3000) % 7 != 3]),
                      ("runs", _run(3000, 5000)[np.arange(2000) % 5 < 3])],
        "plain-bitmap": [("bitmap", _run(0, 4000)[::3]), ("bitmap", _run(4000, 8000)[1::2])],
        "sparse-bitmap": [("bitmap", _run(0, 50_000)[::10])],
        "join-multiset": [("multiset", np.repeat(_run(0, 300), 3)),
                          ("multiset", np.repeat(_run(300, 600)[::2], 2))],
        "out-of-order": [("run", _run(500, 800)), ("runs", _run(0, 300)[::2]),
                         ("run", _run(300, 500)), ("bitmap", _run(800, 1200)[::2])],
        "one-id-pieces": [("run", _run(i, i + 1)) for i in (7, 900, 3, 5, 10**6, 4, 2**40)],
        "two-shards": [("run", _run(s * STRIDE, s * STRIDE + 3000)) for s in (0, 1)]
        + [("runs", _run(s * STRIDE + 3000, s * STRIDE + 9000)[::4]) for s in (0, 1)],
        "three-shards": [("run", _run(s * STRIDE + 1, s * STRIDE + 20_000)) for s in (2, 0, 1)]
        + [("multiset", np.repeat(_run(s * STRIDE + 50, s * STRIDE + 90), 2)) for s in (1, 2)],
    }

    @pytest.mark.parametrize("case", sorted(SCATTERED))
    def test_pieces_decrypt_within_two_evaluations_per_id(self, env, case):
        rows, expected, evals, n = self.open(env, self.SCATTERED[case], seed=len(case))
        assert rows == expected
        assert evals <= 2 * n

    def test_shard_spaces_cost_one_stream_each(self, env):
        # Blocks never span two ID spaces: each shard's run is one stream.
        pieces = [("run", _run(s * STRIDE, s * STRIDE + 5000)) for s in (2, 0, 1)]
        rows, expected, evals, n = self.open(env, pieces)
        assert rows == expected
        assert evals == n + 3

    def test_pad_array_matches_the_reference(self, scheme):
        for ids in (_run(10, 60), _run(0, 10**6)[::10**4], np.array([5, 10**9, 3], np.uint64)):
            reference = scheme._prf.eval_many(ids) - scheme._prf.eval_many(ids - np.uint64(1))
            assert scheme.pad_array(ids).tolist() == reference.tolist()

    def test_a_stream_continued_from_its_prior_is_one_stream(self, scheme):
        before = scheme.prf_evals
        head, last = scheme.pad_stream(100, 40)
        tail, end = scheme.pad_stream(140, 60, last)
        assert scheme.prf_evals - before == 101
        assert np.concatenate([head, tail]).tolist() == scheme.pad_range(100, 100).tolist()
        assert end == scheme._prf.eval_one(199)


class TestIndicatorWidth:
    """ASHE over Z_2^32, the group of every SPLASHE indicator column."""

    @pytest.fixture
    def narrow(self) -> AsheScheme:
        return AsheScheme(AesNiCtrPrf(KEY), bits=32)

    def test_round_trip(self, narrow):
        values = np.array([0, 1, 1, 0, 1, 0, 0, 1], dtype=np.int64)
        enc = narrow.encrypt_column(values, start_id=1000)
        assert enc.dtype == np.uint32
        assert narrow.decrypt_column(enc, 1000).tolist() == values.tolist()
        assert narrow.decrypt_rows(enc[::3], np.arange(1000, 1008, 3)).tolist() == [0, 0, 0]
        assert narrow.decrypt(narrow.encrypt(1, 7)) == 1

    def test_wrapping_sums_decrypt_exactly_to_the_largest_count(self, narrow):
        # Plaintexts summing to 2^32 - 1, under ciphertexts whose sum wraps
        # 2^32 many times: the native uint32 reduce, a uint64 partial and a
        # grouped reduceat all decrypt to the exact unsigned count.
        values = np.ones(1000, dtype=np.int64)
        values[0] = 2**32 - 1000
        enc = narrow.encrypt_column(values, start_id=50)
        assert int(enc.astype(np.uint64).sum()) >= 2**32
        ids = IdList.from_range(50, 1050)
        native = int(np.add.reduce(enc, dtype=enc.dtype))
        assert narrow.decrypt_sum(native, ids) == 2**32 - 1
        assert narrow.decrypt_sum(int(enc.astype(np.uint64).sum()), ids) == 2**32 - 1
        ct = narrow.aggregate(enc, None, start_id=50)
        assert narrow.decrypt(ct) == 2**32 - 1
        grouped = np.add.reduceat(enc, [0, 500]).astype(np.uint64)
        pads = np.array([narrow.pad_for(IdList.from_range(50, 550)),
                         narrow.pad_for(IdList.from_range(550, 1050))], dtype=np.uint64)
        assert narrow.wrap(grouped + pads).tolist() == [2**32 - 501, 500]

    def test_narrow_ciphertext_is_the_low_half_of_the_wide_one(self, narrow):
        wide = AsheScheme(narrow._prf)
        values = np.array([0, 1, 1, 0, 1, 5, -3], dtype=np.int64)
        for start in (0, 12345, 2**44):
            low = narrow.encrypt_column(values, start)
            full = wide.encrypt_column(values, start)
            assert low.tolist() == (full & np.uint64(0xFFFFFFFF)).tolist()
        assert narrow.encrypt(1, 9).value == wide.encrypt(1, 9).value & 0xFFFFFFFF

    def test_only_the_two_groups(self):
        with pytest.raises(CryptoError, match="Z_2\\^16"):
            AsheScheme(AesNiCtrPrf(KEY), bits=16)

    def test_factory_takes_the_width_from_its_map(self):
        factory = CryptoFactory(KeyChain(KEY), "t", ashe_bits={"d@0__ind": 32})
        assert factory.ashe("d@0__ind").bits == 32
        assert factory.ashe("m__ashe").bits == 64
        wide = CryptoFactory(KeyChain(KEY), "t").ashe("d@0__ind")
        ones = np.ones(4, dtype=np.int64)
        assert factory.ashe("d@0__ind").encrypt_column(ones, 3).tolist() == (
            wide.encrypt_column(ones, 3) & np.uint64(0xFFFFFFFF)).tolist()


class TestSecuritySanity:
    """Cheap observable consequences of IND-CPA (Appendix A.1)."""

    def test_same_plaintext_distinct_ids_distinct_ciphertexts(self, scheme):
        cts = {scheme.encrypt(42, i).value for i in range(200)}
        assert len(cts) == 200

    def test_ciphertext_bits_balanced(self):
        scheme = AsheScheme(AesNiCtrPrf(KEY))
        enc = scheme.encrypt_column(np.zeros(4096, dtype=np.int64), start_id=0)
        bits = np.unpackbits(enc.view(np.uint8))
        assert 0.48 < bits.mean() < 0.52

    def test_wrong_key_garbage(self):
        enc = AsheScheme(AesNiCtrPrf(KEY))
        dec = AsheScheme(AesNiCtrPrf(b"fedcba9876543210fedcba9876543210"))
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
    scheme = AsheScheme(AesNiCtrPrf(KEY))
    enc = scheme.encrypt_column(np.array(values, dtype=np.int64), start_id=start)
    rng = np.random.default_rng(len(values))
    mask = rng.random(len(values)) < 0.5
    ct = scheme.aggregate(enc, mask, start_id=start)
    expected = int(np.array(values, dtype=np.int64)[mask].sum())
    assert scheme.decrypt_sum(ct.value, ct.ids) == expected


@given(values=st.lists(signed_values, min_size=2, max_size=30))
@settings(max_examples=40, deadline=None)
def test_property_addition_associative_commutative(values):
    scheme = AsheScheme(AesNiCtrPrf(KEY))
    cts = [scheme.encrypt(v, i) for i, v in enumerate(values)]
    forward = sum(cts)
    backward = sum(reversed(cts))
    assert forward.value == backward.value
    assert forward.ids == backward.ids
    assert scheme.decrypt(forward) == sum(values)
