"""Tests for the schemes' batch crypto operations and their
instrumentation (repro.crypto.kernel).

Four concerns live here:

- **Instrumentation**: each batch operation a
  :class:`~repro.core.crypto_factory.CryptoFactory` scheme is wrapped for
  feeds ``seabed_kernel_values_total`` and ``seabed_kernel_ns_per_op``
  through :class:`InstrumentedKernel` and returns the scheme's own result.
- **Bit-identity**: every batch kernel is proven identical to the
  per-row reference path (``encrypt_one`` / ``decrypt_one`` /
  ``compare_words``) with hypothesis, across dtypes, empty arrays, and
  the edge identifiers 0 and ``2^64 - 1`` (wraparound).  The ``aes-ni``
  PRF backend is cross-checked against the from-scratch FIPS-197 AES on
  random keys and blocks.
- **Counters**: ``AsheScheme.prf_evals`` stays exact when
  ``decrypt_column`` is hammered from many threads.
"""

import copy
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.crypto_factory import CryptoFactory
from repro.crypto.ashe import AsheScheme
from repro.crypto.det import DetScheme
from repro.crypto.kernel import InstrumentedKernel, observe_kernel_op
from repro.crypto.keys import KeyChain
from repro.crypto.ore import OreScheme, argextreme_packed
from repro.crypto.paillier import PaillierKeyPair, PaillierScheme
from repro.crypto.prf import HAVE_AESNI, MASK64, AesCtrPrf, AesNiCtrPrf, SplitMix64Prf
from repro.errors import CryptoError
from repro.obs import metrics as obs_metrics
from repro.obs.metrics import MetricsRegistry

KEY = b"0123456789abcdef"


# Module scope is deliberate: the schemes are deterministic and stateless
# apart from counters, so hypothesis may safely reuse one instance across
# generated inputs (function scope trips its fixture health check).
@pytest.fixture(scope="module")
def ashe() -> AsheScheme:
    return AsheScheme(SplitMix64Prf(KEY))


@pytest.fixture(scope="module")
def det() -> DetScheme:
    return DetScheme(KEY)


@pytest.fixture(scope="module")
def ore() -> OreScheme:
    return OreScheme(KEY, nbits=32)


@pytest.fixture(scope="module")
def paillier() -> PaillierScheme:
    return PaillierScheme(PaillierKeyPair.generate(bits=256, seed=7), seed=7)


# -- instrumentation ---------------------------------------------------------


@pytest.fixture
def registry(monkeypatch):
    """A fresh process-wide metrics registry for one test."""
    reg = MetricsRegistry()
    monkeypatch.setattr(obs_metrics, "_REGISTRY", reg)
    return reg


@pytest.fixture(scope="module")
def factory() -> CryptoFactory:
    return CryptoFactory(KeyChain(KEY), "t")


_VALUES = np.array([3, -1, 4, 1, -5], dtype=np.int64)


def _call(factory, scheme: str, op: str):
    """One (scheme, op) the factory wraps: the wrapped instance, the bare
    scheme behind it, and a call of ``op`` on either with ``len(_VALUES)``
    values."""
    wrapped = {"ashe": factory.ashe, "det": factory.det, "ore": factory.ore}[scheme]("c")
    bare = wrapped.wrapped
    if op == "encrypt_column":
        return wrapped, bare, lambda k: k.encrypt_column(_VALUES, 7)
    if op == "pad_range":
        return wrapped, bare, lambda k: k.pad_range(7, len(_VALUES))
    cipher = bare.encrypt_column(_VALUES, 7)
    if op == "decrypt_column":
        return wrapped, bare, lambda k: k.decrypt_column(cipher, 7)
    token = bare.token(4)
    return wrapped, bare, lambda k: k.compare_column(cipher, token)


#: Every batch operation a :class:`CryptoFactory` scheme is wrapped for.
WRAPPED_OPS = [
    ("ashe", "encrypt_column"), ("ashe", "decrypt_column"), ("ashe", "pad_range"),
    ("det", "encrypt_column"), ("det", "decrypt_column"), ("det", "compare_column"),
    ("ore", "encrypt_column"), ("ore", "compare_column"),
]


class TestInstrumentedKernel:
    @pytest.mark.parametrize("scheme,op", WRAPPED_OPS)
    def test_call_records_values_and_one_observation(self, factory, registry, scheme, op):
        wrapped, bare, call = _call(factory, scheme, op)
        call(wrapped)
        values = registry.counter("seabed_kernel_values_total")
        ns = registry.histogram("seabed_kernel_ns_per_op")
        assert values.value(scheme=scheme, op=op) == len(_VALUES)
        assert values.total() == len(_VALUES)
        assert ns.count(scheme=scheme, op=op) == 1
        assert ns.sum(scheme=scheme, op=op) > 0

    @pytest.mark.parametrize("scheme,op", WRAPPED_OPS)
    def test_returns_the_wrapped_result(self, factory, scheme, op):
        wrapped, bare, call = _call(factory, scheme, op)
        out = call(wrapped)
        assert out.dtype == call(bare).dtype
        assert np.array_equal(out, call(bare))

    def test_missing_batch_op_is_an_attribute_error(self, factory):
        with pytest.raises(AttributeError):
            factory.ore("c").decrypt_column(np.zeros((1, 2), np.uint64))
        with pytest.raises(AttributeError):
            factory.det("c").pad_range(0, 4)

    def test_forwards_other_attributes(self, factory):
        det, ore, ashe = factory.det("c"), factory.ore("c"), factory.ashe("c")
        assert det.token(9) == det.wrapped.token(9) == det.encrypt_one(9)
        assert ore.token(-2) == ore.wrapped.encrypt_one(-2)
        before = ashe.prf_evals
        ashe.pad_range(0, 10)
        assert ashe.prf_evals == ashe.wrapped.prf_evals == before + 11

    def test_copy_round_trips_through_reduce(self, factory):
        wrapped = factory.det("c")
        clone = copy.copy(wrapped)
        assert isinstance(clone, InstrumentedKernel)
        assert clone.wrapped is wrapped.wrapped
        assert repr(clone) == repr(wrapped)
        assert np.array_equal(clone.encrypt_column(_VALUES), wrapped.encrypt_column(_VALUES))


class TestObserveKernelOp:
    def test_zero_values_record_nothing(self, registry):
        observe_kernel_op("ashe", "pad_range", 0.001, 0)
        assert registry.metrics() == []

    def test_disabled_registry_records_nothing(self, registry):
        obs_metrics.set_enabled(False)
        try:
            observe_kernel_op("ashe", "pad_range", 0.001, 10)
        finally:
            obs_metrics.set_enabled(True)
        assert registry.metrics() == []

    def test_records_ns_per_value(self, registry):
        observe_kernel_op("ore", "compare_column", 2e-6, 100)
        ns = registry.histogram("seabed_kernel_ns_per_op")
        assert ns.count(scheme="ore", op="compare_column") == 1
        assert ns.sum(scheme="ore", op="compare_column") == pytest.approx(20.0)


# -- batch kernels vs the per-row reference path -----------------------------

#: Start identifiers covering both edges: 0 (pad reaches back to
#: ``F(2^64 - 1)``) and values near ``2^64 - 1`` (the range itself wraps).
edge_start_ids = st.sampled_from([0, 1, 1000, 2**32, MASK64 - 3, MASK64])
int64_columns = st.lists(
    st.integers(min_value=-(2**63), max_value=2**63 - 1), max_size=40
)


class TestAsheBatchVsReference:
    @settings(deadline=None, max_examples=40)
    @given(values=int64_columns, start=edge_start_ids)
    def test_encrypt_column_matches_encrypt_one(self, ashe, values, start):
        arr = np.array(values, dtype=np.int64)
        batch = ashe.encrypt_column(arr, start_id=start)
        reference = [
            ashe.encrypt(m, (start + j) & MASK64).value
            for j, m in enumerate(values)
        ]
        assert batch.dtype == np.uint64
        assert batch.tolist() == reference

    @settings(deadline=None, max_examples=40)
    @given(values=int64_columns, start=edge_start_ids)
    def test_decrypt_column_round_trips(self, ashe, values, start):
        arr = np.array(values, dtype=np.int64)
        assert np.array_equal(
            ashe.decrypt_column(ashe.encrypt_column(arr, start), start), arr
        )

    @settings(deadline=None, max_examples=40)
    @given(start=edge_start_ids, count=st.integers(min_value=0, max_value=40))
    def test_pad_range_matches_scalar_boundary_evals(self, ashe, start, count):
        prf = SplitMix64Prf(KEY)
        batch = ashe.pad_range(start, count)
        reference = [
            (prf.eval_one((start + j) & MASK64)
             - prf.eval_one((start + j - 1) & MASK64)) & int(MASK64)
            for j in range(count)
        ]
        assert batch.tolist() == reference

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.int16, np.uint64])
    def test_dtypes(self, ashe, dtype):
        arr = np.array([0, 1, 117, 2**14], dtype=dtype)
        plain = ashe.decrypt_column(ashe.encrypt_column(arr, 9), 9)
        assert plain.tolist() == arr.astype(np.int64).tolist()

    def test_empty_column(self, ashe):
        empty = np.empty(0, dtype=np.int64)
        assert ashe.encrypt_column(empty, 5).size == 0
        assert ashe.decrypt_column(np.empty(0, np.uint64), 5).size == 0
        assert ashe.pad_range(5, 0).size == 0

    def test_wraparound_range_covers_both_edge_ids(self, ashe):
        # IDs MASK64-1, MASK64, 0, 1: the range crosses 2^64 and the
        # telescoping stream must stay consistent with per-row pads.
        arr = np.array([11, -22, 33, -44], dtype=np.int64)
        cipher = ashe.encrypt_column(arr, start_id=MASK64 - 1)
        assert np.array_equal(ashe.decrypt_column(cipher, MASK64 - 1), arr)
        per_row = [
            ashe.encrypt(int(m), (MASK64 - 1 + j) & MASK64).value
            for j, m in enumerate(arr.tolist())
        ]
        assert cipher.tolist() == per_row


class TestDetBatchVsReference:
    @settings(deadline=None, max_examples=40)
    @given(values=int64_columns)
    def test_encrypt_decrypt_match_per_row(self, det, values):
        arr = np.array(values, dtype=np.int64)
        cipher = det.encrypt_column(arr)
        assert cipher.tolist() == [det.encrypt_one(m) for m in values]
        # decrypt_one returns the raw Z_{2^64} element; decrypt_column
        # reinterprets it as two's-complement int64.
        assert det.decrypt_column(cipher).view(np.uint64).tolist() == [
            det.decrypt_one(int(c)) for c in cipher.tolist()
        ]
        assert np.array_equal(det.decrypt_column(cipher), arr)

    @settings(deadline=None, max_examples=25)
    @given(
        values=st.lists(st.integers(min_value=-50, max_value=50), max_size=30),
        needle=st.integers(min_value=-50, max_value=50),
    )
    def test_compare_column_is_equality(self, det, values, needle):
        cipher = det.encrypt_column(np.array(values, dtype=np.int64))
        cmp = det.compare_column(cipher, det.token(needle))
        assert cmp.dtype == np.int8
        assert cmp.tolist() == [0 if v == needle else 1 for v in values]

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.int16])
    def test_dtypes(self, det, dtype):
        arr = np.array([-3, 0, 41], dtype=dtype)
        assert det.decrypt_column(det.encrypt_column(arr)).tolist() == arr.tolist()

    def test_empty_column(self, det):
        assert det.encrypt_column(np.empty(0, np.int64)).size == 0
        assert det.decrypt_column(np.empty(0, np.uint64)).size == 0


class TestOreBatchVsReference:
    @settings(deadline=None, max_examples=25)
    @given(values=st.lists(st.integers(min_value=-(2**31), max_value=2**31 - 1),
                           max_size=25))
    def test_encrypt_column_matches_encrypt_one(self, ore, values):
        cipher = ore.encrypt_column(np.array(values, dtype=np.int64))
        for row, m in zip(cipher, values):
            assert tuple(int(w) for w in row) == ore.encrypt_one(m)

    @settings(deadline=None, max_examples=25)
    @given(
        values=st.lists(st.integers(min_value=-(2**31), max_value=2**31 - 1),
                        min_size=1, max_size=25),
        needle=st.integers(min_value=-(2**31), max_value=2**31 - 1),
    )
    def test_compare_column_matches_compare_words(self, ore, values, needle):
        cipher = ore.encrypt_column(np.array(values, dtype=np.int64))
        token = ore.token(needle)
        batch = ore.compare_column(cipher, token)
        per_row = [
            OreScheme.compare_words(tuple(int(w) for w in row), token)
            for row in cipher
        ]
        assert batch.tolist() == per_row

    @settings(deadline=None, max_examples=25)
    @given(values=st.lists(st.integers(min_value=-(2**31), max_value=2**31 - 1),
                           min_size=1, max_size=25))
    def test_argextreme_matches_python_loop(self, ore, values):
        cipher = ore.encrypt_column(np.array(values, dtype=np.int64))
        # The tournament's tie-break is pairwise, so with duplicated
        # extremes any tied index is a valid winner; the contract is
        # that the returned row *holds* the extreme, deterministically.
        lo = argextreme_packed(cipher, "min")
        hi = argextreme_packed(cipher, "max")
        assert values[lo] == min(values)
        assert values[hi] == max(values)
        assert lo == argextreme_packed(cipher, "min")
        assert hi == argextreme_packed(cipher, "max")

    def test_empty_column(self, ore):
        assert ore.encrypt_column(np.empty(0, np.int64)).shape[0] == 0
        with pytest.raises(CryptoError):
            argextreme_packed(np.empty((0, 4), np.uint64), "min")


class TestPaillierBatch:
    def test_decrypt_column_inverts_encrypt_column(self, paillier):
        values = np.array([-9, 0, 1, 123456], dtype=np.int64)
        cipher = paillier.encrypt_column(values)
        plain = paillier.decrypt_column(cipher)
        assert plain.dtype == np.int64
        assert np.array_equal(plain, values)

    def test_empty_column(self, paillier):
        assert paillier.decrypt_column(np.empty(0, dtype=object)).size == 0


# -- aes-ni backend vs the from-scratch FIPS-197 reference ------------------


@pytest.mark.skipif(not HAVE_AESNI, reason="cryptography not installed")
class TestAesNiCrossCheck:
    @settings(deadline=None, max_examples=20)
    @given(
        key=st.binary(min_size=16, max_size=16),
        ids=st.lists(st.integers(min_value=0, max_value=int(MASK64)), max_size=20),
    )
    def test_eval_many_matches_from_scratch(self, key, ids):
        ni, ref = AesNiCtrPrf(key), AesCtrPrf(key)
        arr = np.array(ids, dtype=np.uint64)
        assert np.array_equal(ni.eval_many(arr), ref.eval_many(arr))
        for i in ids[:4]:
            assert ni.eval_one(i) == ref.eval_one(i)

    @settings(deadline=None, max_examples=20)
    @given(
        key=st.binary(min_size=16, max_size=16),
        start=st.sampled_from([0, 1, 2**33 - 1, MASK64 - 5, MASK64]),
        count=st.integers(min_value=0, max_value=32),
    )
    def test_eval_range_matches_including_wraparound(self, key, start, count):
        ni, ref = AesNiCtrPrf(key), AesCtrPrf(key)
        assert np.array_equal(ni.eval_range(start, count), ref.eval_range(start, count))

    def test_negative_start_wraps(self):
        ni, ref = AesNiCtrPrf(KEY), AesCtrPrf(KEY)
        assert np.array_equal(ni.eval_range(-1, 3), ref.eval_range(-1, 3))


# -- counter thread-safety ---------------------------------------------------


class TestCounterThreadSafety:
    def test_prf_evals_exact_under_concurrent_decrypt_column(self):
        ashe = AsheScheme(SplitMix64Prf(KEY))  # fresh counter for exactness
        rows, n_threads, iterations = 512, 8, 20
        values = np.arange(rows, dtype=np.int64)
        cipher = ashe.encrypt_column(values, start_id=1)
        after_encrypt = ashe.prf_evals
        assert after_encrypt == rows + 1

        errors: list[Exception] = []
        start = threading.Barrier(n_threads)

        def hammer():
            try:
                start.wait()
                for _ in range(iterations):
                    out = ashe.decrypt_column(cipher, start_id=1)
                    assert np.array_equal(out, values)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert not errors
        # Every decrypt_column costs exactly rows+1 evaluations; a racy
        # `+=` would lose increments under this load.
        expected = after_encrypt + n_threads * iterations * (rows + 1)
        assert ashe.prf_evals == expected
