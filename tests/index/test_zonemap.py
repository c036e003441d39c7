"""Zone-map statistics builder: correctness and ciphertext-only inputs."""

import numpy as np

from repro.crypto.ore import OreScheme
from repro.index.zonemap import (
    build_partition_stats,
    classify_column,
    join_dictionaries,
    stats_summary,
)

KEY = b"zonemap-unit-test-key-0123456789"


def _part(columns):
    from repro.engine.table import Partition

    return Partition(columns=columns, start_id=0)


def _specs(columns, enc=None):
    specs = {}
    for name, arr in columns.items():
        specs[name] = {
            "dtype": {"uint64": "<u8", "int64": "<i8", "float64": "<f8",
                      "bool": "|b1"}[arr.dtype.name],
            "ndim": arr.ndim,
            "width": 1 if arr.ndim == 1 else arr.shape[1],
        }
        if enc and name in enc:
            specs[name]["enc"] = enc[name]
    return specs


class TestOreStats:
    def test_min_max_match_plaintext_order(self):
        ore = OreScheme(KEY, nbits=16)
        values = np.array([500, -3, 42, 999, -3, 17], dtype=np.int64)
        cipher = ore.encrypt_column(values)
        columns = {"v__ore": cipher}
        stats = build_partition_stats(_part(columns), _specs(columns))
        col = stats["columns"]["v__ore"]
        assert col["kind"] == "ore"
        lo_rows = np.flatnonzero(values == values.min())
        hi_rows = np.flatnonzero(values == values.max())
        assert tuple(col["min"]) in {tuple(int(w) for w in cipher[r]) for r in lo_rows}
        assert tuple(col["max"]) in {tuple(int(w) for w in cipher[r]) for r in hi_rows}
        # The public Compare confirms the bounds bracket every row.
        for row in cipher:
            assert OreScheme.compare_words(tuple(col["min"]), tuple(int(w) for w in row)) <= 0
            assert OreScheme.compare_words(tuple(col["max"]), tuple(int(w) for w in row)) >= 0


class TestDetStats:
    def test_det_columns_are_not_persisted(self):
        tokens = np.array([5, 9, 5, 5, 9, 123], dtype=np.uint64)
        columns = {"c__det": tokens}
        stats = build_partition_stats(_part(columns), _specs(columns))
        assert stats == {"rows": 6, "nulls": 0, "columns": {}}

    def test_the_dictionary_is_the_artifact(self):
        """A coded column's zone-map artifact is its dictionary itself,
        whatever its size, and a partition without stats gets none."""
        dictionary = np.arange(200, dtype=np.uint64) * np.uint64(7919)
        stats = {"rows": 400, "nulls": 0, "columns": {"year": {
            "kind": "plain", "min": 2013, "max": 2016}}}
        joined = join_dictionaries(stats, {"c__det": dictionary})
        assert joined["columns"]["c__det"]["kind"] == "det"
        assert joined["columns"]["c__det"]["tokens"] is dictionary
        assert joined["columns"]["year"] == stats["columns"]["year"]
        assert "c__det" not in stats["columns"]  # the persisted dict is untouched
        assert join_dictionaries(None, {"c__det": dictionary}) is None

    def test_a_dictionary_joins_a_partition_without_bounds(self):
        """A partition whose persisted stats hold no bounds (an empty
        partition, or one with only DET columns) still gets its
        dictionary, and a stored table's DET columns all join."""
        rng = np.random.default_rng(4)
        columns = {"a__det": rng.integers(0, 90, 300, dtype=np.uint64),
                   "b__det": rng.integers(0, 3, 300, dtype=np.uint64)}
        stats = build_partition_stats(_part(columns), _specs(columns))
        dictionaries = {name: np.unique(col) for name, col in columns.items()}
        joined = join_dictionaries(stats, dictionaries)
        assert joined["rows"] == 300
        assert sorted(joined["columns"]) == ["a__det", "b__det"]
        for name, dictionary in dictionaries.items():
            assert joined["columns"][name]["kind"] == "det"
            assert joined["columns"][name]["tokens"] is dictionary
        empty = join_dictionaries({"rows": 0, "nulls": 0, "columns": {}},
                                  {"a__det": np.empty(0, dtype=np.uint64)})
        assert empty["columns"]["a__det"]["tokens"].size == 0

    def test_ashe_ciphertexts_never_indexed(self):
        columns = {
            "m__ashe": np.arange(10, dtype=np.uint64),
            "d@0__ind": np.arange(10, dtype=np.uint64),
        }
        stats = build_partition_stats(
            _part(columns), _specs(columns, enc={"m__ashe": "ashe"})
        )
        assert stats["columns"] == {}


class TestPlainAndShape:
    def test_plain_bounds_and_counts(self):
        columns = {
            "year": np.array([2014, 2016, 2013], dtype=np.int64),
            "flag": np.array([True, False, True]),
        }
        stats = build_partition_stats(_part(columns), _specs(columns))
        assert stats["rows"] == 3 and stats["nulls"] == 0
        assert stats["columns"]["year"] == {"kind": "plain", "min": 2013, "max": 2016}
        assert stats["columns"]["flag"] == {"kind": "plain", "min": 0, "max": 1}

    def test_empty_partition_has_no_column_stats(self):
        columns = {"year": np.empty(0, dtype=np.int64)}
        stats = build_partition_stats(_part(columns), _specs(columns))
        assert stats == {"rows": 0, "nulls": 0, "columns": {}}

    def test_determinism(self):
        """The leakage audit recomputes stats and expects equality."""
        rng = np.random.default_rng(3)
        columns = {
            "u__det": rng.integers(0, 500, 400, dtype=np.uint64),
            "year": rng.integers(2013, 2017, 400).astype(np.int64),
        }
        part = _part(columns)
        specs = _specs(columns)
        assert build_partition_stats(part, specs) == build_partition_stats(part, specs)


class TestClassify:
    def test_structural_rules(self):
        assert classify_column("x__ore", {"dtype": "<u8", "ndim": 2}) == "ore"
        assert classify_column("x__det", {"dtype": "<u8", "ndim": 1}) == "det"
        assert classify_column("year", {"dtype": "<i8", "ndim": 1}) == "plain"
        assert classify_column("x__ashe", {"dtype": "<u8", "ndim": 1}) is None
        assert classify_column("p", {"dtype": "object", "ndim": 1}) is None
        assert classify_column("f", {"dtype": "<f8", "ndim": 1}) is None

    def test_legacy_plan_kind_meta_still_classifies_companions(self):
        # Pre-v3 manifests recorded the *plan* kind, so an ASHE measure's
        # ORE/DET companion columns say enc=ashe; structure wins.
        assert classify_column(
            "m__ore", {"dtype": "<u8", "ndim": 2, "enc": "ashe"}
        ) == "ore"
        assert classify_column(
            "m__det", {"dtype": "<u8", "ndim": 1, "enc": "ashe"}
        ) == "det"
        assert classify_column(
            "m__ashe", {"dtype": "<u8", "ndim": 1, "enc": "ashe"}
        ) is None


def test_stats_summary_coverage():
    maps = [
        {"rows": 10, "nulls": 0, "columns": {
            "u__det": {"kind": "det", "tokens": [1]},
            "t__ore": {"kind": "ore", "min": [0], "max": [1]},
        }},
        {"rows": 5, "nulls": 0, "columns": {
            "u__det": {"kind": "det", "tokens": np.arange(100, dtype=np.uint64)},
        }},
        None,
    ]
    summary = stats_summary(maps)
    assert summary["partitions"] == 3
    assert summary["partitions_with_stats"] == 2
    assert summary["rows"] == 15
    assert summary["columns"]["u__det"] == {"kind": "det", "partitions": 2}
    assert summary["columns"]["t__ore"]["partitions"] == 1
