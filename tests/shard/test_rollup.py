"""Unit tests for shard-level zone-map rollups (repro.index.rollup)."""

import numpy as np

from repro.crypto.ore import OreScheme
from repro.core.server import DetEq
from repro.index.prune import may_match
from repro.index.rollup import rollup_zone_maps


_ORE = OreScheme(b"r" * 32, nbits=16)


def ore_words(value):
    return list(_ORE.encrypt_one(value))


def stats(rows, columns):
    return {"rows": rows, "nulls": 0, "columns": columns}


class TestMerging:
    def test_ore_envelope_widens(self):
        parts = [
            stats(10, {"c": {"kind": "ore", "min": ore_words(5),
                             "max": ore_words(20)}}),
            stats(10, {"c": {"kind": "ore", "min": ore_words(1),
                             "max": ore_words(9)}}),
        ]
        merged = rollup_zone_maps(parts)
        assert merged["rows"] == 20
        col = merged["columns"]["c"]
        assert tuple(col["min"]) == tuple(ore_words(1))
        assert tuple(col["max"]) == tuple(ore_words(20))

    def test_plain_envelope_widens(self):
        parts = [
            stats(5, {"p": {"kind": "plain", "min": -3, "max": 7}}),
            stats(5, {"p": {"kind": "plain", "min": 0, "max": 40}}),
        ]
        col = rollup_zone_maps(parts)["columns"]["p"]
        assert (col["min"], col["max"]) == (-3, 40)

    def test_det_tokens_union_exactly(self):
        parts = [
            stats(4, {"d": {"kind": "det", "tokens": [1, 2]}}),
            stats(4, {"d": {"kind": "det", "tokens": [2, 9]}}),
        ]
        col = rollup_zone_maps(parts)["columns"]["d"]
        assert col["tokens"].tolist() == [1, 2, 9]

    def test_det_union_of_large_dictionaries_stays_exact(self):
        evens = np.arange(0, 400, 2, dtype=np.uint64)
        parts = [
            stats(200, {"d": {"kind": "det", "tokens": evens[:100]}}),
            stats(200, {"d": {"kind": "det", "tokens": evens[100:]}}),
        ]
        merged = rollup_zone_maps(parts)
        assert np.array_equal(merged["columns"]["d"]["tokens"], evens)
        assert may_match(merged, DetEq("d", 398))
        assert not may_match(merged, DetEq("d", 399))


class TestConservatism:
    def test_uncovered_partition_poisons_the_rollup(self):
        parts = [stats(4, {"p": {"kind": "plain", "min": 0, "max": 1}}), None]
        assert rollup_zone_maps(parts) is None

    def test_no_partitions_is_none(self):
        assert rollup_zone_maps([]) is None
        assert rollup_zone_maps(None) is None

    def test_column_missing_in_one_partition_is_dropped(self):
        parts = [
            stats(4, {"p": {"kind": "plain", "min": 0, "max": 1}}),
            stats(4, {}),
        ]
        assert "p" not in rollup_zone_maps(parts)["columns"]

    def test_empty_partitions_do_not_narrow(self):
        parts = [
            stats(0, {}),
            stats(4, {"p": {"kind": "plain", "min": 2, "max": 3}}),
        ]
        col = rollup_zone_maps(parts)["columns"]["p"]
        assert (col["min"], col["max"]) == (2, 3)


class TestPruningIntegration:
    def test_rollup_flows_through_may_match(self):
        from repro.core.server import PlainCmp

        merged = rollup_zone_maps([
            stats(4, {"p": {"kind": "plain", "min": 0, "max": 9}}),
            stats(4, {"p": {"kind": "plain", "min": 20, "max": 30}}),
        ])
        assert may_match(merged, PlainCmp("p", ">", 25))
        assert not may_match(merged, PlainCmp("p", ">", 31))
