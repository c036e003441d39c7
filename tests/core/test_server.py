"""Tests for the untrusted server's physical operators (repro.core.server).

These operate on raw ciphertext-free columns (plain ints) or synthetic
ciphertexts, checking filter/aggregate/group mechanics in isolation; the
full encrypted pipeline is covered by the integration tests.
"""

import dataclasses

import numpy as np
import pytest

from repro.core import server as srv
from repro.crypto.ashe import AsheScheme
from repro.crypto.ore import OreScheme
from repro.crypto.prf import AesNiCtrPrf
from repro.engine.cluster import ClusterConfig, SimulatedCluster
from repro.engine.table import Partition, Table
from repro.errors import ExecutionError
from repro.idlist import codec as idcodec
from repro.idlist.codec import decode as codec_decode

KEY = b"0123456789abcdef0123456789abcdef"


@pytest.fixture
def cluster() -> SimulatedCluster:
    return SimulatedCluster(ClusterConfig(cores=4, task_startup_s=0.0, job_startup_s=0.0))


def make_server(cluster, columns, parts=4) -> srv.SeabedServer:
    server = srv.SeabedServer(cluster)
    server.register(Table.from_columns("t", columns, num_partitions=parts))
    return server


class TestFilters:
    def test_plain_cmp(self):
        cols = {"a": np.array([1, 5, 9])}
        mask = srv.eval_filter(cols, srv.PlainCmp("a", ">", 4), 3)
        assert mask.tolist() == [False, True, True]

    def test_det_eq_and_negate(self):
        cols = {"d": np.array([7, 8, 7], dtype=np.uint64)}
        assert srv.eval_filter(cols, srv.DetEq("d", 7), 3).tolist() == [True, False, True]
        assert srv.eval_filter(cols, srv.DetEq("d", 7, negate=True), 3).tolist() == [
            False, True, False,
        ]

    def test_det_in(self):
        cols = {"d": np.array([1, 2, 3], dtype=np.uint64)}
        mask = srv.eval_filter(cols, srv.DetIn("d", (1, 3)), 3)
        assert mask.tolist() == [True, False, True]

    def test_ore_cmp(self):
        ore = OreScheme(KEY, nbits=16)
        cols = {"o": ore.encrypt_column(np.array([5, 10, 15]))}
        mask = srv.eval_filter(cols, srv.OreCmp("o", ">", ore.token(7), 16), 3)
        assert mask.tolist() == [False, True, True]

    def test_boolean_combinators(self):
        cols = {"a": np.array([1, 2, 3, 4])}
        expr = srv.FilterAnd((
            srv.PlainCmp("a", ">", 1),
            srv.FilterNot(srv.PlainCmp("a", "=", 3)),
        ))
        assert srv.eval_filter(cols, expr, 4).tolist() == [False, True, False, True]
        expr = srv.FilterOr((srv.PlainCmp("a", "=", 1), srv.PlainCmp("a", "=", 4)))
        assert srv.eval_filter(cols, expr, 4).tolist() == [True, False, False, True]

    def test_none_means_select_all(self):
        assert srv.eval_filter({"a": np.array([1])}, None, 1) is None


def flat_values(resp):
    """A flat reply's one row set: each alias's value (``None``: no row
    selected) or, for a side aggregate, its one merged piece."""
    rows = resp.groups
    assert rows.keys is None and len(rows) <= 1
    values = {a: c.tolist()[0] if len(rows) else None for a, c in rows.values.items()}
    for alias, pieces in rows.side.items():
        (values[alias],) = pieces
    return values


def flat_chunks(resp, source=srv.ROW_IDS):
    """A flat reply's ID chunks under ``source``: their codes are implied."""
    pieces = resp.groups.ids[source]
    assert all(p.codes is None for p in pieces)
    return [p.chunk for p in pieces]


class TestFlatAggregation:
    def test_plain_sum_and_count(self, cluster):
        server = make_server(cluster, {"v": np.arange(100, dtype=np.int64)})
        q = srv.ServerQuery(table="t", aggs=(
            srv.PlainAgg("v", "sum", "s"), srv.PlainAgg(None, "count", "c"),
        ))
        resp = server.execute(q)
        assert flat_values(resp) == {"s": 4950, "c": 100}
        assert resp.payload_bytes == 16

    def test_plain_min_max_sumsq_median(self, cluster):
        server = make_server(cluster, {"v": np.array([3, 1, 4, 1, 5], dtype=np.int64)})
        q = srv.ServerQuery(table="t", aggs=(
            srv.PlainAgg("v", "min", "lo"), srv.PlainAgg("v", "max", "hi"),
            srv.PlainAgg("v", "sumsq", "sq"), srv.PlainAgg("v", "median", "md"),
        ))
        got = flat_values(server.execute(q))
        assert got["lo"] == 1 and got["hi"] == 5
        assert got["sq"] == 9 + 1 + 16 + 1 + 25
        assert got["md"] == ("plain", 3.0)

    def test_ashe_sum_round_trip(self, cluster):
        scheme = AsheScheme(AesNiCtrPrf(KEY))
        values = np.arange(200, dtype=np.int64)
        enc = scheme.encrypt_column(values, start_id=0)
        server = make_server(cluster, {"v__ashe": enc, "f": values})
        q = srv.ServerQuery(
            table="t",
            aggs=(srv.AsheSum("v__ashe", "s"),),
            filter=srv.PlainCmp("f", "<", 50),
        )
        resp = server.execute(q)
        total = flat_values(resp)["s"]
        assert resp.groups.values["s"].dtype == np.uint64
        ids = [codec_decode(c) for c in flat_chunks(resp)]
        combined = ids[0]
        for extra in ids[1:]:
            combined = combined.union(extra)
        assert scheme.decrypt_sum(
            (total + scheme.pad_for(combined) - scheme.pad_for(combined)) & (2**64 - 1),
            combined,
        ) == values[:50].sum()

    @pytest.mark.parametrize("bits", [64, 32])
    @pytest.mark.parametrize("select", ["all", "partial", "none"])
    def test_ashe_partial_matches_the_reference_sum(self, bits, select):
        # The server sums ASHE ciphertexts itself; AsheScheme.aggregate is
        # the reference sum it must equal (None for an empty selection).
        scheme = AsheScheme(AesNiCtrPrf(KEY), bits)
        values = np.arange(1, 301, dtype=np.int64) * 7919
        cipher = scheme.encrypt_column(values, start_id=1000)
        assert cipher.dtype == np.dtype("<u8" if bits == 64 else "<u4")
        mask = {
            "all": None,
            "partial": np.arange(cipher.size) % 3 != 1,
            "none": np.zeros(cipher.size, dtype=bool),
        }[select]
        part = Partition({"c": cipher, "m": np.ones(cipher.size, dtype=bool) if mask is None
                          else mask}, start_id=1000)
        q = srv.ServerQuery(table="t", aggs=(srv.AsheSum("c", "s"),),
                            filter=None if mask is None else srv.PlainCmp("m", "=", True))
        got = srv.aggregate_task(part, q, None)
        want = scheme.aggregate(cipher, mask, start_id=1000)
        if select == "none":
            assert got is None and want.value == 0
        else:
            (total,) = got.values["s"].tolist()
            assert got.keys is None and total == want.value
            assert scheme.decrypt_sum(total, want.ids) == int(
                values.sum() if mask is None else values[mask].sum()
            )

    def test_empty_selection_returns_none(self, cluster):
        server = make_server(cluster, {"v": np.arange(10, dtype=np.int64)})
        q = srv.ServerQuery(
            table="t", aggs=(srv.PlainAgg("v", "sum", "s"),),
            filter=srv.PlainCmp("v", ">", 999),
        )
        resp = server.execute(q)
        assert flat_values(resp) == {"s": None} and resp.payload_bytes == 0

    def test_driver_compression_matches_worker(self, cluster):
        scheme = AsheScheme(AesNiCtrPrf(KEY))
        values = np.arange(100, dtype=np.int64)
        enc = scheme.encrypt_column(values, start_id=0)
        server = make_server(cluster, {"v__ashe": enc})
        for site in ("worker", "driver"):
            q = srv.ServerQuery(
                table="t", aggs=(srv.AsheSum("v__ashe", "s"),), compress_at=site
            )
            resp = server.execute(q)
            assert flat_values(resp) == {"s": int(enc.sum(dtype=np.uint64))}
            chunks = flat_chunks(resp)
            ids = codec_decode(chunks[0]) if len(chunks) == 1 else None
            if site == "driver":
                # Driver mode unions to a single chunk spanning the table.
                assert len(chunks) == 1
                assert ids.count() == 100

    def test_id_set_travels_once_per_row_set(self, cluster):
        """Four ASHE sums over the same rows share one ID set: one chunk
        per partition, counted once in the reply's bytes."""
        cols = {f"c{i}__ashe": np.arange(40, dtype=np.uint64) + np.uint64(i) for i in range(4)}
        server = make_server(cluster, {**cols, "f": np.arange(40)}, parts=4)
        aggs = tuple(srv.AsheSum(name, f"a{i}") for i, name in enumerate(cols))
        resp = server.execute(
            srv.ServerQuery(table="t", aggs=aggs, filter=srv.PlainCmp("f", "<", 25))
        )
        assert flat_values(resp) == {a.alias: sum(range(25)) + 25 * i
                                     for i, a in enumerate(aggs)}
        chunks = flat_chunks(resp)
        assert list(resp.groups.ids) == [srv.ROW_IDS] and len(chunks) == 3  # 4th is empty
        union = codec_decode(chunks[0]).union(codec_decode(chunks[1])).union(
            codec_decode(chunks[2]))
        assert union == srv.IdList.from_range(0, 25)
        assert resp.payload_bytes == 8 * 4 + sum(map(len, chunks))
        assert resp.metrics.result_bytes == resp.payload_bytes

    def test_metrics_populated(self, cluster):
        server = make_server(cluster, {"v": np.arange(10, dtype=np.int64)})
        resp = server.execute(
            srv.ServerQuery(table="t", aggs=(srv.PlainAgg("v", "sum", "s"),))
        )
        assert cluster.model([resp.metrics]).server_s > 0
        assert resp.payload_bytes > 0
        assert resp.metrics.result_bytes == resp.payload_bytes

    def test_unknown_table(self, cluster):
        server = srv.SeabedServer(cluster)
        with pytest.raises(ExecutionError, match="no table"):
            server.execute(srv.ServerQuery(table="zzz", aggs=()))


class TestOreExtremes:
    def test_min_max_payload(self, cluster):
        ore = OreScheme(KEY, nbits=16)
        values = np.array([30, 5, 80, 42], dtype=np.int64)
        cols = {
            "o": ore.encrypt_column(values),
            "p": values.astype(np.uint64),  # payload stand-in
        }
        server = make_server(cluster, cols, parts=2)
        q = srv.ServerQuery(table="t", aggs=(
            srv.OreExtreme("min", "o", "p", "lo"),
            srv.OreExtreme("max", "o", "p", "hi"),
        ))
        resp = server.execute(q)
        got = flat_values(resp)
        assert got["lo"][:3] == ("extreme", 5, 1)
        assert got["hi"][:3] == ("extreme", 80, 2)  # payload, row id of the max
        assert resp.payload_bytes == 2 * (16 + 8 * len(got["hi"][3]))

    def test_median_quickselect(self, cluster):
        ore = OreScheme(KEY, nbits=16)
        values = np.array([9, 1, 5, 7, 3], dtype=np.int64)
        cols = {"o": ore.encrypt_column(values), "p": values.astype(np.uint64)}
        server = make_server(cluster, cols, parts=2)
        q = srv.ServerQuery(table="t", aggs=(srv.OreMedian("o", "p", "md"),))
        assert flat_values(server.execute(q))["md"][1] == 5

    def test_median_with_duplicates_terminates(self, cluster):
        ore = OreScheme(KEY, nbits=16)
        values = np.array([4, 4, 4, 4, 4, 4], dtype=np.int64)
        cols = {"o": ore.encrypt_column(values), "p": values.astype(np.uint64)}
        server = make_server(cluster, cols, parts=2)
        q = srv.ServerQuery(table="t", aggs=(srv.OreMedian("o", "p", "md"),))
        assert flat_values(server.execute(q))["md"][1] == 4


def ids_by_group(rows, source=srv.ROW_IDS):
    """Each key's row set's IDs, read off the pieces' codes."""
    out = {key: [] for key in rows.keys.tolist()}
    keys = list(out)
    for piece in rows.ids[source]:
        chunk = piece.chunk
        ids = idcodec.decode_multiset(chunk) if idcodec.is_multiset_payload(chunk) else (
            codec_decode(chunk).to_ids())
        assert ids.size == piece.codes.size
        for i, code in zip(ids.tolist(), piece.codes.tolist()):
            out[keys[code]].append(i)
    return out


class TestGroupBy:
    def test_plain_grouped_sums(self, cluster):
        keys = np.array([0, 1, 0, 1, 2], dtype=np.int64)
        vals = np.array([10, 20, 30, 40, 50], dtype=np.int64)
        server = make_server(cluster, {"k": keys, "v": vals}, parts=2)
        q = srv.ServerQuery(
            table="t", aggs=(srv.PlainAgg("v", "sum", "s"),), group_by="k"
        )
        resp = server.execute(q)
        rows = resp.groups
        assert rows.keys is not None
        rows.validate(distinct=True)  # one entry per key, sorted
        assert dict(zip(rows.keys.tolist(), rows.values["s"].tolist())) == {0: 40, 1: 60, 2: 50}

    def test_group_ids_are_the_flat_chunk_per_partition(self, cluster):
        keys = np.arange(40, dtype=np.int64) % 3
        cols = {"k": keys, "a__ashe": np.ones(40, np.uint64), "b__ashe": np.ones(40, np.uint64)}
        server = make_server(cluster, cols, parts=2)
        resp = server.execute(srv.ServerQuery(
            table="t", aggs=(srv.AsheSum("a__ashe", "a"), srv.AsheSum("b__ashe", "b")),
            group_by="k", filter=srv.PlainCmp("k", "!=", 1),
        ))
        rows = resp.groups
        assert rows.values["a"].dtype == np.uint64 and set(rows.ids) == {srv.ROW_IDS}
        # one piece per partition, shared by a and b: the chunk a flat
        # query ships for the same selection, and one uint8 code per row
        pieces = rows.ids[srv.ROW_IDS]
        selected = keys != 1
        assert [p.chunk for p in pieces] == [idcodec.encode_mask(selected[:20], 0),
                                             idcodec.encode_mask(selected[20:], 20)]
        assert [p.codes.tolist() for p in pieces] == [
            [0 if k == 0 else 1 for k in keys[:20] if k != 1],
            [0 if k == 0 else 1 for k in keys[20:] if k != 1],
        ]
        for g, (key, ids) in enumerate(ids_by_group(rows).items()):
            assert ids == np.flatnonzero(keys == key).tolist()
            assert rows.values["a"][g] == rows.values["b"][g] == len(ids)
        assert resp.payload_bytes == 2 * (8 + 16) + sum(
            len(p.chunk) + p.codes.size for p in pieces)

    def test_group_keys_without_aggregates(self, cluster):
        """A map partial with no columns still names its groups."""
        server = make_server(cluster, {"k": np.arange(12, dtype=np.int64) % 3}, parts=2)
        rows = server.execute(srv.ServerQuery(table="t", aggs=(), group_by="k")).groups
        assert rows.keys.tolist() == [0, 1, 2]
        assert rows.values == {} and rows.ids == {}

    def test_nothing_selected_is_an_empty_reply(self, cluster):
        server = make_server(cluster, {"k": np.arange(8, dtype=np.int64),
                                       "a__ashe": np.ones(8, np.uint64)}, parts=2)
        resp = server.execute(srv.ServerQuery(
            table="t", aggs=(srv.AsheSum("a__ashe", "a"),), group_by="k",
            filter=srv.PlainCmp("k", ">", 100),
        ))
        assert len(resp.groups) == 0 and resp.payload_bytes == 0
        assert resp.groups.values["a"].dtype == np.uint64
        assert resp.metrics.stage("group-reduce").num_tasks == 1

    def test_grouped_shuffle_accounted(self, cluster):
        keys = np.arange(50, dtype=np.int64) % 5
        vals = np.ones(50, dtype=np.int64)
        server = make_server(cluster, {"k": keys, "v": vals}, parts=2)
        resp = server.execute(srv.ServerQuery(
            table="t", aggs=(srv.PlainAgg("v", "sum", "s"),), group_by="k"
        ))
        assert resp.metrics.shuffle_bytes > 0

    def test_extreme_in_group_rejected(self, cluster):
        ore = OreScheme(KEY, nbits=16)
        vals = np.array([1, 2], dtype=np.int64)
        cols = {"o": ore.encrypt_column(vals), "k": vals, "p": vals.astype(np.uint64)}
        server = make_server(cluster, cols, parts=1)
        q = srv.ServerQuery(
            table="t", aggs=(srv.OreExtreme("min", "o", "p", "m"),), group_by="k"
        )
        with pytest.raises(ExecutionError, match="not supported inside GROUP BY"):
            server.execute(q)


class TestJoin:
    def test_broadcast_join_with_multiset_ids(self, cluster):
        scheme = AsheScheme(AesNiCtrPrf(KEY))
        build_vals = np.array([100, 200, 300], dtype=np.int64)
        build = Table.from_columns("build", {
            "key": np.array([0, 1, 2], dtype=np.uint64),
            "payload__ashe": scheme.encrypt_column(build_vals, start_id=0),
        }, num_partitions=1)
        probe = Table.from_columns("probe", {
            "fk": np.array([0, 0, 1, 2, 2, 2], dtype=np.uint64),
        }, num_partitions=2)
        server = srv.SeabedServer(cluster)
        server.register(build)
        server.register(probe)
        q = srv.ServerQuery(
            table="probe",
            aggs=(srv.AsheSum("payload__ashe", "s", srv.BUILD_IDS),),
            join=srv.ServerJoin(
                build_table="build", probe_key_column="fk",
                build_key_column="key", payload_columns=("payload__ashe",),
            ),
        )
        resp = server.execute(q)
        total = flat_values(resp)["s"]
        chunks = flat_chunks(resp, srv.BUILD_IDS)
        pad = sum(scheme.pad_for_multiset(idcodec.decode_multiset(c)) for c in chunks)
        from repro.crypto.ashe import to_signed
        got = to_signed((total + pad) & (2**64 - 1))
        # 2x100 + 1x200 + 3x300 = 1300
        assert got == 1300

    def test_duplicate_build_keys_make_the_probe_ids_a_multiset(self, cluster):
        """A probe row matching two build rows is summed twice, so its ID
        travels twice (a multiset chunk), never deduplicated."""
        build = Table.from_columns("build", {
            "key": np.array([0, 0, 1], dtype=np.uint64),
            "w": np.array([1, 2, 3], dtype=np.int64),
        }, num_partitions=1)
        probe = Table.from_columns("probe", {
            "fk": np.array([0, 1, 1, 2], dtype=np.uint64),
            "v__ashe": np.array([10, 20, 30, 40], dtype=np.uint64),
        }, num_partitions=2)
        server = srv.SeabedServer(cluster)
        server.register(build)
        server.register(probe)
        q = srv.ServerQuery(
            table="probe",
            aggs=(srv.AsheSum("v__ashe", "s"),),
            join=srv.ServerJoin(
                build_table="build", probe_key_column="fk",
                build_key_column="key", payload_columns=("w",),
            ),
        )
        resp = server.execute(q)
        assert flat_values(resp) == {"s": 2 * 10 + 20 + 30}
        first, second = flat_chunks(resp)
        assert idcodec.is_multiset_payload(first)
        assert idcodec.decode_multiset(first).tolist() == [0, 0, 1]
        assert codec_decode(second) == srv.IdList.from_ids(np.array([2], np.uint64))
        grouped = server.execute(dataclasses.replace(q, group_by="fk")).groups
        first, second = grouped.ids[srv.ROW_IDS]
        assert idcodec.is_multiset_payload(first.chunk)
        assert not idcodec.is_multiset_payload(second.chunk)
        assert ids_by_group(grouped) == {0: [0, 0], 1: [1, 2]}
