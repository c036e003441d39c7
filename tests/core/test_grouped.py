"""GroupedRows and IdPiece: one row set per group key, columns only."""

import numpy as np
import pytest

from repro.core.grouped import GroupedRows, IdPiece, code_dtype
from repro.errors import EncodingError
from repro.idlist.codec import get_codec
from repro.idlist.idlist import IdList

ADD = {"s": np.add.reduceat}


def rows(keys, sums, pieces=()):
    """Row sets with keys ``keys``, one ``s`` sum each, and row-ID pieces
    given as (ids, the index of each ID's row set) pairs."""
    dtype = code_dtype(len(keys))
    codec = get_codec("seabed")
    return GroupedRows(
        np.array(keys, dtype=np.uint64),
        {"s": np.array(sums, dtype=np.uint64)},
        {"rows": [IdPiece(codec.encode(IdList.from_ids(np.array(ids, dtype=np.int64))),
                          np.array(codes, dtype=dtype)) for ids, codes in pieces]},
    )


def id_sets(grouped, ids):
    """Key -> the (sorted) IDs the pieces put in its row set."""
    codec = get_codec("seabed")
    out: dict[int, list[int]] = {}
    for piece in ids:
        for row_id, code in zip(codec.decode(piece.chunk).to_ids().tolist(),
                                piece.codes.tolist()):
            out.setdefault(int(grouped.keys[code]), []).append(row_id)
    return {k: sorted(v) for k, v in out.items()}


class TestCodeDtype:
    @pytest.mark.parametrize("entries,dtype", [
        (1, np.uint8), (255, np.uint8), (256, np.uint16), (65536, np.uint32)])
    def test_narrowest_width_that_holds_the_count(self, entries, dtype):
        assert code_dtype(entries) == np.dtype(dtype)


class TestValidate:
    def test_a_well_formed_reply_passes(self):
        rows([2, 5, 9], [1, 2, 3], [([0, 3, 4], [0, 2, 1])]).validate(distinct=True)

    @pytest.mark.parametrize("keys", [[5, 5], [9, 2]], ids=["repeated", "decreasing"])
    def test_distinct_requires_strictly_increasing_keys(self, keys):
        grouped = rows(keys, [1, 2])
        grouped.validate()  # a partial may hold a key twice, in any order
        with pytest.raises(EncodingError, match="not sorted and distinct"):
            grouped.validate(distinct=True)

    def test_keys_must_be_uint64(self):
        grouped = rows([1, 2], [1, 2])
        grouped.keys = grouped.keys.astype(np.int64)
        with pytest.raises(EncodingError, match="keys are not uint64"):
            grouped.validate()

    def test_a_value_column_of_the_wrong_length_is_rejected(self):
        grouped = rows([1, 2], [1, 2])
        grouped.values["s"] = grouped.values["s"][:1]
        with pytest.raises(EncodingError, match="one value per row set"):
            grouped.validate()

    def test_a_code_past_the_row_sets_is_rejected(self):
        with pytest.raises(EncodingError, match="names no row set"):
            rows([1, 2], [1, 2], [([0, 1], [0, 2])]).validate()

    def test_a_code_column_wider_than_the_count_needs_is_rejected(self):
        grouped = rows([1, 2], [1, 2], [([0, 1], [0, 1])])
        piece = grouped.ids["rows"][0]
        piece.codes = piece.codes.astype(np.uint16)
        with pytest.raises(EncodingError, match="row-set count's width"):
            grouped.validate()


class TestNbytes:
    def test_eight_bytes_per_row_set_and_per_value(self):
        assert rows([1, 2, 3], [4, 5, 6]).nbytes() == 3 * 8 + 3 * 8

    def test_ids_add_their_chunks_and_codes(self):
        grouped = rows([1, 2], [4, 5], [([0, 1, 7], [1, 0, 1])])
        piece = grouped.ids["rows"][0]
        assert grouped.nbytes(ids=False) == 2 * 8 + 2 * 8
        assert grouped.nbytes() == grouped.nbytes(ids=False) + len(piece.chunk) + 3

    def test_paillier_products_count_their_length(self):
        grouped = GroupedRows(np.array([1], dtype=np.uint64),
                              {"p": np.array([2**64], dtype=object)}, {})
        assert grouped.nbytes() == 8 + 9


class TestMerge:
    def test_run_starts_mark_each_run_of_equal_key(self):
        assert rows([1, 1, 4, 7, 7, 7], [0] * 6).run_starts().tolist() == [0, 2, 3]
        assert rows([], []).run_starts().size == 0

    def test_one_row_set_per_key_with_its_ids(self):
        grouped = rows([3, 3, 8], [1, 2, 5], [([0, 1, 2], [0, 1, 2])]).merge(ADD)
        assert grouped.keys.tolist() == [3, 8]
        assert grouped.values["s"].tolist() == [3, 5]
        assert id_sets(grouped, grouped.ids["rows"]) == {3: [0, 1], 8: [2]}
        grouped.validate(distinct=True)

    def test_distinct_keys_merge_to_themselves(self):
        grouped = rows([3, 8], [1, 5])
        assert grouped.merge(ADD) is grouped

    def test_ashe_sums_wrap_modulo_2_to_the_64(self):
        grouped = rows([1, 1], [2**64 - 1, 2]).merge(ADD)
        assert grouped.values["s"].tolist() == [1]


class TestShuffle:
    def test_sorts_by_key_and_renumbers_every_parts_codes(self):
        a = rows([9, 4], [1, 2], [([0, 1], [0, 1])])
        b = rows([4, 6], [10, 20], [([5, 6, 7], [1, 0, 1])])
        merged_rows, ids = GroupedRows.shuffle([a, b])
        assert merged_rows.keys.tolist() == [4, 4, 6, 9]
        merged = merged_rows.merge(ADD)  # the codes already name its row sets
        assert merged.keys.tolist() == [4, 6, 9]
        assert merged.values["s"].tolist() == [12, 20, 1]
        assert id_sets(merged, ids["rows"]) == {4: [1, 6], 6: [5, 7], 9: [0]}

    def test_is_stable_so_equal_keys_keep_part_order(self):
        # Enough entries that an unstable sort would reorder them.
        parts = [rows([7, 3], [n, 100 + n]) for n in range(40)]
        merged_rows, _ = GroupedRows.shuffle(parts)
        assert merged_rows.values["s"].tolist() == [100 + n for n in range(40)] + list(range(40))

    def test_pieces_stay_in_part_order(self):
        a = rows([2], [1], [([0], [0])])
        b = rows([1], [1], [([9], [0])])
        _, ids = GroupedRows.shuffle([a, b])
        assert [p.chunk for p in ids["rows"]] == [a.ids["rows"][0].chunk,
                                                  b.ids["rows"][0].chunk]

    def test_empty_parts_are_skipped(self):
        empty = GroupedRows(np.zeros(0, dtype=np.uint64), {"s": np.zeros(0, dtype=np.int64)},
                            {"rows": []})
        merged_rows, ids = GroupedRows.shuffle([empty, rows([5], [3], [([1], [0])]), empty])
        assert merged_rows.keys.tolist() == [5]
        assert merged_rows.values["s"].dtype == np.uint64
        assert len(ids["rows"]) == 1

    def test_slice_drops_the_pieces(self):
        grouped = rows([1, 2, 3], [4, 5, 6], [([0], [2])]).slice(1, 3)
        assert grouped.keys.tolist() == [2, 3]
        assert grouped.values["s"].tolist() == [5, 6]
        assert grouped.ids == {}
