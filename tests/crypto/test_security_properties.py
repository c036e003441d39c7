"""Statistical security properties from the paper's Appendix A.

These are not proofs (Appendix A has those); they are the observable
consequences a practitioner can check:

- ASHE ciphertexts are indistinguishable from uniform regardless of the
  plaintext (Lemma 1's consequence), including across chosen-plaintext
  pairs -- a distinguishing experiment run statistically.
- Enhanced SPLASHE's released view depends only on (n, c, j)
  (Definition 1 / Lemma 2): two databases with wildly different value
  distributions but equal (n, c, j) produce DET columns with identical
  frequency profiles.
"""

import numpy as np
from scipy import stats

from repro.core import splashe
from repro.crypto.ashe import AsheScheme
from repro.crypto.det import DetScheme
from repro.crypto.prf import AesNiCtrPrf

KEY = b"0123456789abcdef0123456789abcdef"


class TestAsheIndistinguishability:
    """IND-CPA flavour: ciphertext distribution does not depend on m."""

    def test_ciphertexts_uniform_over_bytes(self):
        scheme = AsheScheme(AesNiCtrPrf(KEY))
        cipher = scheme.encrypt_column(np.zeros(4096, dtype=np.int64), start_id=0)
        counts = np.bincount(cipher.view(np.uint8), minlength=256)
        p = stats.chisquare(counts).pvalue
        assert p > 1e-4  # not rejectably non-uniform

    def test_chosen_plaintext_distinguisher_fails(self):
        """Encrypt m0=0 or m1=2^40 under fresh IDs; a threshold
        distinguisher on the ciphertext value should be at chance."""
        scheme = AsheScheme(AesNiCtrPrf(KEY))
        n = 2000
        c0 = scheme.encrypt_column(np.zeros(n, dtype=np.int64), start_id=0)
        c1 = scheme.encrypt_column(
            np.full(n, 1 << 40, dtype=np.int64), start_id=n
        )
        # Best threshold distinguisher: compare medians / KS statistic.
        ks = stats.ks_2samp(
            c0.astype(np.float64), c1.astype(np.float64)
        )
        assert ks.pvalue > 1e-3

    def test_identical_plaintexts_distinct_ids_look_independent(self):
        scheme = AsheScheme(AesNiCtrPrf(KEY))
        cipher = scheme.encrypt_column(np.full(4096, 7, dtype=np.int64), 0)
        # Lag-1 serial correlation of ciphertext words should vanish.
        x = cipher.astype(np.float64)
        r = np.corrcoef(x[:-1], x[1:])[0, 1]
        assert abs(r) < 0.05


class TestSplasheSimulationProperty:
    """The adversary's view depends only on (n, c, j)."""

    @staticmethod
    def _balanced_histogram(counts_by_code: dict[int, int], frequent: list[int],
                            cardinality: int, seed: int) -> np.ndarray:
        codes = np.concatenate([
            np.full(count, code, dtype=np.int64)
            for code, count in counts_by_code.items()
        ])
        rng = np.random.default_rng(seed)
        rng.shuffle(codes)
        det = splashe.balance_det_codes(codes, frequent, cardinality, rng)
        return np.sort(np.bincount(det, minlength=cardinality))

    def test_same_n_c_j_same_view(self):
        """Two very different distributions with equal (n, c, j) yield the
        same (sorted) DET histogram -- what a simulator would output."""
        n, j, c = 1200, 2, 4  # rows, frequent values, infrequent values
        dist_a = {0: 500, 1: 400, 2: 150, 3: 100, 4: 40, 5: 10}
        dist_b = {0: 600, 1: 300, 2: 75, 3: 75, 4: 75, 5: 75}
        assert sum(dist_a.values()) == sum(dist_b.values()) == n
        h_a = self._balanced_histogram(dist_a, [0, 1], 6, seed=1)
        h_b = self._balanced_histogram(dist_b, [0, 1], 6, seed=2)
        assert np.array_equal(h_a, h_b)

    def test_det_ciphertext_column_reveals_only_counts(self):
        """After balancing + DET, the server-visible column is a uniform
        histogram over c distinct ciphertexts: exactly (n, c)."""
        rng = np.random.default_rng(3)
        codes = np.concatenate([
            np.zeros(800, dtype=np.int64), rng.integers(1, 5, 200)
        ])
        rng.shuffle(codes)
        det_codes = splashe.balance_det_codes(codes, [0], 5, rng)
        det = DetScheme(KEY)
        cipher = det.encrypt_column(det_codes)
        _, counts = np.unique(cipher, return_counts=True)
        assert len(counts) == 4  # c infrequent values
        assert counts.max() - counts.min() <= 1
        assert counts.sum() == 1000  # n


class TestOreLeakageBound:
    """ORE leaks order + inddiff and nothing about the shared prefix."""

    def test_prefix_trits_identical_below_diff(self):
        from repro.crypto.ore import OreScheme

        ore = OreScheme(KEY, nbits=16, signed=False)
        a = ore.encrypt_one(0b1010_1010_0000_0000)
        b = ore.encrypt_one(0b1010_1010_1111_1111)
        diff = ore.first_diff_index(a, b)
        assert diff == 9
        mask = (1 << (2 * (diff - 1))) - 1
        assert a[0] & mask == b[0] & mask

    def test_trits_uniform_across_keys(self):
        """For a fixed message, each trit is uniform over {0,1,2} across
        keys (the PRF term re-randomises per key).  Note that *within* one
        key the first trit only takes two values -- the leakage the scheme
        is allowed: u_1 = F_k(empty prefix) + b_1."""
        from repro.crypto.ore import OreScheme

        rng = np.random.default_rng(0)
        trits = []
        for trial in range(600):
            key = rng.bytes(32)
            ct = OreScheme(key, nbits=8, signed=False).encrypt_one(0b10110100)
            trits.append(ct[0] & 3)  # the MSB trit
        counts = np.bincount(np.asarray(trits), minlength=3)
        p = stats.chisquare(counts).pvalue
        assert p > 1e-4

    def test_first_trit_binary_within_one_key(self):
        """Within one key the MSB trit takes exactly two values over all
        messages: (F + 0) and (F + 1) mod 3."""
        from repro.crypto.ore import OreScheme

        ore = OreScheme(KEY, nbits=8, signed=False)
        cipher = ore.encrypt_column(np.arange(256))
        first_trits = set((cipher[:, 0] & np.uint64(3)).tolist())
        assert len(first_trits) == 2
