"""The bit-parallel ORE Compare kernel against the scalar reference.

``OreScheme.compare_words`` (first differing trit by ``bit_length``, then
the mod-3 test) is the ground truth; the batch kernel must agree with it
row for row on every width, sign convention and operator, including the
cases its shortcuts could get wrong: equal ciphertexts (``low == 0``),
values that differ only in the last trit of the last word, and two-word
ciphertexts whose first words are equal.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import server as srv
from repro.crypto import ore as ore_mod
from repro.crypto.ore import OreScheme, argextreme_packed, compare_packed_arrays
from repro.errors import CryptoError

KEY = b"0123456789abcdef"
WIDTHS = (1, 2, 7, 31, 32, 33, 63, 64)
OPS = {
    "<": lambda c: c < 0, "<=": lambda c: c <= 0, ">": lambda c: c > 0,
    ">=": lambda c: c >= 0, "=": lambda c: c == 0, "!=": lambda c: c != 0,
}


def _domain(nbits: int, signed: bool) -> tuple[int, int]:
    return (-(1 << (nbits - 1)), (1 << (nbits - 1)) - 1) if signed else (0, (1 << nbits) - 1)


def _column(values: list[int], signed: bool) -> np.ndarray:
    return np.array(values, dtype=np.int64 if signed else np.uint64)


def _words(row: np.ndarray) -> tuple[int, ...]:
    return tuple(int(w) for w in row)


@pytest.mark.parametrize("signed", [True, False], ids=["signed", "unsigned"])
@pytest.mark.parametrize("nbits", WIDTHS)
class TestKernelMatchesCompareWords:
    @settings(deadline=None, max_examples=20)
    @given(data=st.data())
    def test_column_vs_token_every_operator(self, nbits, signed, data):
        lo, hi = _domain(nbits, signed)
        value = st.integers(min_value=lo, max_value=hi)
        values = data.draw(st.lists(value, min_size=1, max_size=20))
        needle = data.draw(value)
        # Always present: the needle itself, its last-bit neighbour, and --
        # on two-word widths -- a value sharing the needle's whole first word.
        values += [needle, needle ^ 1 if lo <= needle ^ 1 <= hi else needle]
        if nbits > 32:
            values.append(needle ^ data.draw(st.integers(0, (1 << (nbits - 32)) - 1)))
        ore = OreScheme(KEY, nbits=nbits, signed=signed)
        cipher = ore.encrypt_column(_column(values, signed))
        token = ore.token(needle)
        want = np.array([OreScheme.compare_words(_words(row), token) for row in cipher])
        got = ore.compare_column(cipher, token)
        assert got.dtype == np.int8
        assert got.tolist() == want.tolist()
        for op, pick in OPS.items():
            mask = ore.filter_column(cipher, op, token)
            assert mask.dtype == np.bool_
            assert mask.tolist() == pick(want).tolist(), op

    @settings(deadline=None, max_examples=20)
    @given(data=st.data())
    def test_array_vs_array(self, nbits, signed, data):
        lo, hi = _domain(nbits, signed)
        pair = st.tuples(st.integers(lo, hi), st.integers(lo, hi))
        pairs = data.draw(st.lists(pair, min_size=1, max_size=20))
        pairs += [(pairs[0][0], pairs[0][0])]
        ore = OreScheme(KEY, nbits=nbits, signed=signed)
        a = ore.encrypt_column(_column([p[0] for p in pairs], signed))
        b = ore.encrypt_column(_column([p[1] for p in pairs], signed))
        want = [OreScheme.compare_words(_words(x), _words(y)) for x, y in zip(a, b)]
        assert compare_packed_arrays(a, b).tolist() == want
        assert want == [(x > y) - (x < y) for x, y in pairs]


class TestEdges:
    def test_two_word_ciphertexts_with_equal_first_words(self):
        """The second word decides exactly the rows the first left equal."""
        ore = OreScheme(KEY, nbits=64, signed=False)
        base = 0xDEADBEEF << 32
        values = [base + 5, base + 6, base + 4, base + 5, (0xDEADBEEE << 32) + 9, 0]
        cipher = ore.encrypt_column(np.array(values, dtype=np.uint64))
        assert len({int(w) for w in cipher[:4, 0]}) == 1
        cmp = ore.compare_column(cipher, ore.token(base + 5))
        assert cmp.tolist() == [0, 1, -1, 0, -1, -1]

    def test_blocks_agree_with_one_pass(self):
        """Columns longer than the kernel's row block are stitched in order."""
        ore = OreScheme(KEY, nbits=40)
        rows = 2 * ore_mod._BLOCK_ROWS + 17
        values = np.random.default_rng(5).integers(-(1 << 39), 1 << 39, rows)
        cipher = ore.encrypt_column(values)
        below = ore.filter_column(cipher, "<", ore.token(12345))
        assert below.tolist() == (values < 12345).tolist()
        other = cipher[::-1].copy()
        want = np.sign(values - values[::-1])
        assert compare_packed_arrays(cipher, other).tolist() == want.tolist()

    def test_memmap_column_and_non_contiguous_view(self, tmp_path):
        ore = OreScheme(KEY, nbits=32)
        values = np.random.default_rng(6).integers(-1000, 1000, 300)
        cipher = ore.encrypt_column(values)
        token = ore.token(17)
        want = ore.compare_column(cipher, token).tolist()
        path = tmp_path / "ore.bin"
        cipher.tofile(path)
        mapped = np.memmap(path, dtype=np.uint64, mode="r", shape=(300, 1))
        try:
            assert ore.compare_column(mapped, token).tolist() == want
            assert ore.filter_column(mapped, ">=", token).tolist() == (values >= 17).tolist()
        finally:
            del mapped
        wide = np.zeros((300, 3), dtype=np.uint64)
        wide[:, 1:2] = cipher
        view = wide[::2, 1:2]
        assert not view.flags.c_contiguous
        assert ore.compare_column(view, token).tolist() == want[::2]

    def test_empty_column(self):
        ore = OreScheme(KEY, nbits=33)
        empty = np.empty((0, 2), dtype=np.uint64)
        assert ore.compare_column(empty, ore.token(1)).shape == (0,)
        assert ore.filter_column(empty, "<=", ore.token(1)).shape == (0,)

    def test_shape_and_operator_errors(self):
        ore = OreScheme(KEY, nbits=32)
        cipher = ore.encrypt_column(np.arange(4))
        with pytest.raises(CryptoError):
            ore.compare_column(cipher.reshape(2, 2), ore.token(1))
        with pytest.raises(CryptoError):
            compare_packed_arrays(cipher, cipher[:2])
        with pytest.raises(CryptoError):
            ore.filter_column(cipher, "~", ore.token(1))


class TestWinnersPinnedToTheParent:
    """Tournament and quickselect tie-breaks are observable (which of
    several equal rows is returned), so the kernel swap must not move them:
    these are the parent commit's answers on this seed."""

    @pytest.mark.parametrize("nbits", [32, 64])
    def test_argextreme_and_quickselect(self, nbits):
        values = np.random.default_rng(20).integers(-50, 50, 1001)
        cipher = OreScheme(KEY, nbits=nbits).encrypt_column(values)
        ids = np.arange(1001, dtype=np.uint64) + np.uint64(7000)
        assert argextreme_packed(cipher, "min") == 493
        assert argextreme_packed(cipher, "max") == 571
        picked = [srv._ore_quickselect(cipher, values, ids, k) for k in (0, 250, 500, 1000)]
        assert picked == [(-50, 7035), (-26, 7006), (-2, 7175), (49, 7149)]


class TestEvalFilter:
    """``eval_filter`` asks for one mask and stops doing discarded work."""

    def _columns(self):
        ore = OreScheme(KEY, nbits=16)
        values = np.arange(10)
        return ore, {"o": ore.encrypt_column(values), "p": values}

    @pytest.mark.parametrize("op", list(OPS))
    def test_ore_cmp_every_operator(self, op):
        ore, cols = self._columns()
        mask = srv.eval_filter(cols, srv.OreCmp("o", op, ore.token(4), 16), 10)
        assert mask.tolist() == OPS[op](np.sign(np.arange(10) - 4)).tolist()

    def test_and_starts_from_its_first_child_and_stops_when_empty(self):
        ore, cols = self._columns()
        expr = srv.FilterAnd((
            srv.PlainCmp("p", ">", 100),
            srv.PlainCmp("missing-column", "=", 1),  # never evaluated
        ))
        assert not srv.eval_filter(cols, expr, 10).any()
        both = srv.FilterAnd((
            srv.OreCmp("o", ">=", ore.token(3), 16), srv.PlainCmp("p", "<", 6),
        ))
        assert np.flatnonzero(srv.eval_filter(cols, both, 10)).tolist() == [3, 4, 5]

    def test_select_all_children(self):
        _, cols = self._columns()
        everything = srv.FilterAnd(())
        assert srv.eval_filter(cols, everything, 10) is None
        either = srv.FilterOr((srv.PlainCmp("p", "<", 2), everything))
        assert srv.eval_filter(cols, either, 10) is None
        narrowed = srv.FilterAnd((everything, srv.PlainCmp("p", "<", 2)))
        assert srv.eval_filter(cols, narrowed, 10).tolist() == [True] * 2 + [False] * 8
        assert not srv.eval_filter(cols, srv.FilterNot(everything), 10).any()
        assert not srv.eval_filter(cols, srv.FilterOr(()), 10).any()
