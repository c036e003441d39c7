"""Dictionary-coded DET columns, from the store's bytes to the answers.

A stored partition keeps each DET token column as its sorted distinct
tokens plus one ``uint8`` / ``uint16`` / ``uint32`` code per row, sized to
the dictionary.  GROUP BY groups by the codes and DET equality compares
them; every answer here is checked against the plaintext executor: at the
code-width boundaries, with tokens a partition does not hold, after a
compaction that merges differing dictionaries, through a projection scan
and a join.  The leakage audit recomputes DET stats from the rows' tokens,
not from the stored dictionary.
"""

import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks.frequency import audit_zone_maps
from repro.core import server as srv
from repro.core.schema import ColumnSpec, TableSchema
from repro.core.session import SeabedSession
from repro.engine.store import MANIFEST_NAME, PARTITION_FILE, _column_offsets
from repro.engine.table import Partition, Table
from repro.index.zonemap import join_dictionaries
from repro.query import execute_plain, parse_query

KEY = b"det-dictionary-master-key-32byte"
GROUP = "SELECT user, sum(amount), count(*) FROM t GROUP BY user"
SAMPLES = [
    "SELECT sum(amount), count(*) FROM t WHERE user = 1",
    GROUP,
    "SELECT sum(amount) FROM t WHERE tier = 1",
    "SELECT tier, count(*) FROM t GROUP BY tier",
]


def schema():
    return TableSchema("t", [
        ColumnSpec("user", dtype="int", sensitive=True),
        ColumnSpec("tier", dtype="int", sensitive=True),
        ColumnSpec("amount", dtype="int", sensitive=True, nbits=32),
    ])


def dataset(n, users, seed=0, sort=False):
    rng = np.random.default_rng(seed)
    user = np.arange(n, dtype=np.int64) % users
    return {
        "user": np.sort(user) if sort else rng.permutation(user),
        "tier": rng.integers(0, 8, n),
        "amount": rng.integers(0, 1000, n),
    }


def session_with(data, tmp_path, **upload):
    session = SeabedSession(mode="seabed", master_key=KEY, seed=7)
    session.create_plan(schema(), SAMPLES)
    session.upload("t", data, path=tmp_path / "t", **upload)
    return session


def canonical(rows):
    return sorted(map(str, rows))


def assert_answer(session, data, sql, scan=False):
    want = execute_plain({"t": data}, parse_query(sql))
    got = session.scan(sql) if scan else session.query(sql)
    assert canonical(got.rows) == canonical(want), sql


def concat(*batches):
    return {k: np.concatenate([b[k] for b in batches]) for k in batches[0]}


def partitions(session):
    return session.server.table("t").partitions


@pytest.mark.parametrize("users, width", [
    (255, np.uint8), (256, np.uint16), (65_535, np.uint16), (65_536, np.uint32),
])
def test_group_by_at_the_code_width_boundaries(tmp_path, users, width):
    data = dataset(max(users, 1024), users)
    session = session_with(data, tmp_path)
    (part,) = partitions(session)
    assert part.dictionaries["user__det"].size == users
    assert part.columns["user__det"].dtype == width
    assert_answer(session, data, GROUP)
    # A filter leaves some codes out: the present ones are renumbered.
    assert_answer(session, data, GROUP.replace("GROUP BY", "WHERE tier = 3 GROUP BY"))


def test_stored_det_bytes_per_row_equal_the_code_width(tmp_path):
    rows, parts = 4_000, 2
    session = session_with(dataset(rows, 300), tmp_path, num_partitions=parts)
    manifest = json.load(open(os.path.join(tmp_path / "t", MANIFEST_NAME)))
    assert manifest["columns"]["user__det"]["coded"] is True
    for entry in manifest["generations"][0]["partitions"]:
        size = entry["dictionaries"]
        assert size == {"tier__det": 8, "user__det": 300}
        n = rows // parts
        # dictionary of 8-byte tokens, then one code per row
        assert entry["files"]["user__det"] == 8 * 300 + 2 * n
        assert entry["files"]["tier__det"] == 8 * 8 + 1 * n
        offsets, end = _column_offsets(entry["files"])
        file = os.path.join(tmp_path / "t", entry["dir"], PARTITION_FILE)
        assert os.path.getsize(file) == end
    for part in partitions(session):
        assert part.columns["user__det"].itemsize == 2
        assert part.columns["tier__det"].itemsize == 1
        # The dictionary decodes back to the per-row tokens.
        tokens = part.column("user__det")
        assert tokens.dtype == np.uint64
        assert np.array_equal(np.unique(tokens), part.dictionaries["user__det"])


def test_det_predicates_with_tokens_absent_from_a_partition(tmp_path):
    # Sorted users: each of the 4 partitions holds its own 16 of them.
    data = dataset(1_024, 64, sort=True)
    session = session_with(data, tmp_path, num_partitions=4)
    session.server.pruning = False  # every partition evaluates the filter
    dicts = [p.dictionaries["user__det"].size for p in partitions(session)]
    assert dicts == [16, 16, 16, 16]
    for where in ("user = 5", "user != 5", "NOT (user = 5)", "user = 999",
                  "user != 999", "user IN (5, 40, 999)", "NOT (user IN (5, 40))",
                  "user IN (998, 999)", "user = 5 OR tier = 2"):
        assert_answer(session, data, f"SELECT sum(amount), count(*) FROM t WHERE {where}")
        assert_answer(session, data, f"SELECT user, count(*) FROM t WHERE {where} GROUP BY user")


def test_coded_filter_masks_match_the_token_compare():
    tokens = np.array([9, 3, 3, 7, 9, 9], dtype=np.uint64)
    dictionary, codes = np.array([3, 7, 9], dtype=np.uint64), np.array(
        [2, 0, 0, 1, 2, 2], dtype=np.uint8)
    for expr in (srv.DetEq("d", 9), srv.DetEq("d", 4), srv.DetEq("d", 4, negate=True),
                 srv.DetEq("d", 3, negate=True), srv.DetIn("d", (3, 9)),
                 srv.DetIn("d", (1, 100)), srv.DetIn("d", (7,)), srv.DetIn("d", ()),
                 srv.FilterNot(srv.DetIn("d", (7, 8)))):
        want = srv.eval_filter({"d": tokens}, expr, 6)
        got = srv.eval_filter({"d": codes}, expr, 6, {"d": dictionary})
        assert got.tolist() == want.tolist(), expr


@given(size=st.integers(1, 300), rows=st.integers(1, 400), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_grouping_codes_matches_grouping_tokens(size, rows, seed):
    """The counting pass over codes groups exactly as the sort of tokens."""
    rng = np.random.default_rng(seed)
    dictionary = np.unique(rng.integers(0, 2**64, size, dtype=np.uint64))
    codes = rng.integers(0, dictionary.size, rows).astype(
        srv.code_dtype(dictionary.size))
    keys, starts, order, code = srv._group_coded(codes, dictionary)
    want_keys, want_starts, want_order, want_code = srv._group_sorted(dictionary[codes])
    assert np.array_equal(keys, want_keys) and np.array_equal(starts, want_starts)
    assert code.dtype == want_code.dtype and np.array_equal(code, want_code)
    assert np.array_equal(code[order], want_code[want_order])  # rows run by group


def test_a_plain_key_keeps_the_uint64_sort():
    """NoEnc's int64 keys (and a join view's tokens) sort as uint64 with
    the default argsort: the plain path is the slowdown denominator."""
    key = np.random.default_rng(5).integers(-50, 50, 1_000)
    keys, starts, order, code = srv._group_sorted(key)
    assert np.array_equal(order, np.argsort(key.astype(np.uint64)))
    assert np.array_equal(keys, np.unique(key.astype(np.uint64)))
    assert np.array_equal(keys[code], key.astype(np.uint64))


@pytest.mark.parametrize("mode", ["seabed", "plain"])
def test_unfiltered_group_by_equals_a_filter_every_row_passes(tmp_path, mode):
    """An unfiltered GROUP BY groups each partition's whole column in
    place; a filter that every row passes takes the selection path.
    Both give the plaintext answer, over coded (Seabed) and plain
    (NoEnc) keys alike."""
    data = dataset(3_000, 150, seed=3)
    session = SeabedSession(mode=mode, master_key=KEY, seed=7)
    session.create_plan(schema(), SAMPLES)
    session.upload("t", data, path=tmp_path / "t", num_partitions=3)
    everything = GROUP.replace("GROUP BY", "WHERE tier != 99 GROUP BY")
    assert_answer(session, data, GROUP)
    assert_answer(session, data, everything)
    assert canonical(session.query(GROUP).rows) == canonical(session.query(everything).rows)


def test_compaction_recodes_partitions_whose_dictionaries_differ(tmp_path):
    base = dataset(600, 20, seed=1)
    session = session_with(base, tmp_path)
    # Each batch holds users the others do not: 20+k*10 .. 30+k*10.
    batches = []
    for k in range(3):
        batch = dataset(200, 10, seed=2 + k)
        batch["user"] = batch["user"] + 20 + 10 * k
        batches.append(batch)
        session.append_rows("t", batch)
    data = concat(base, *batches)
    before = [p.dictionaries["user__det"] for p in partitions(session)]
    assert len(before) == 4 and not np.intersect1d(before[1], before[2]).size
    assert session.compact_table("t", target_rows=1_200)
    merged = partitions(session)
    assert len(merged) == 1
    (part,) = merged
    assert np.array_equal(part.dictionaries["user__det"], np.unique(np.concatenate(before)))
    assert part.columns["user__det"].dtype == np.uint8  # 50 distinct
    assert_answer(session, data, GROUP)
    assert_answer(session, data, "SELECT sum(amount), count(*) FROM t WHERE user = 45")
    table = session.server.table("t")
    assert audit_zone_maps(table).ok


def test_projection_scan_over_a_coded_column(tmp_path):
    data = dataset(2_000, 300)
    session = SeabedSession(mode="seabed", master_key=KEY, seed=7)
    scan = "SELECT user, tier FROM t WHERE user = 17"
    session.create_plan(schema(), SAMPLES + [scan])
    session.upload("t", data, path=tmp_path / "t", num_partitions=3)
    assert all("user__det" in p.dictionaries for p in partitions(session))
    assert_answer(session, data, scan, scan=True)
    assert_answer(session, data, "SELECT user, tier FROM t WHERE tier IN (1, 2)", scan=True)


def test_join_over_coded_det_columns(tmp_path):
    rng = np.random.default_rng(3)
    pages = {"url": np.arange(300, dtype=np.int64), "rank": rng.integers(1, 100, 300)}
    visits = {"dest": rng.integers(0, 400, 2_000), "ip": rng.integers(0, 40, 2_000),
              "revenue": rng.integers(1, 500, 2_000)}
    sql = ("SELECT ip, sum(revenue), count(*) FROM visits JOIN pages ON dest = url "
           "WHERE dest != 7 GROUP BY ip")
    session = SeabedSession(mode="seabed", master_key=KEY, seed=7)
    session.create_plan(TableSchema("visits", [
        ColumnSpec("dest", dtype="int", sensitive=True),
        ColumnSpec("ip", dtype="int", sensitive=True),
        ColumnSpec("revenue", dtype="int", sensitive=True),
    ]), [sql])
    session.create_plan(TableSchema("pages", [
        ColumnSpec("url", dtype="int", sensitive=True),
        ColumnSpec("rank", dtype="int", sensitive=True),
    ]), [sql])
    session.upload("pages", pages, path=tmp_path / "pages", num_partitions=2)
    session.upload("visits", visits, path=tmp_path / "visits", num_partitions=3)
    for name in ("visits", "pages"):
        for part in session.server.table(name).partitions:
            assert any(n.endswith("__det") for n in part.dictionaries), name
    want = execute_plain({"visits": visits, "pages": pages}, parse_query(sql))
    assert canonical(session.query(sql).rows) == canonical(want)


def test_audit_flags_a_dictionary_token_no_row_holds(tmp_path):
    """A token planted in a partition's dictionary and in its stats is
    outside knowledge: the audit recomputes from the rows' tokens."""
    session = session_with(dataset(600, 20), tmp_path, num_partitions=2)
    table = session.server.table("t")
    part, stats = table.partitions[0], table.zone_maps[0]
    dictionary = part.dictionaries["user__det"]
    planted = np.uint64(123456789)
    assert planted not in dictionary
    grown = np.unique(np.append(dictionary, planted))
    codes = grown.searchsorted(dictionary)[part.columns["user__det"]].astype(np.uint8)
    doctored = Partition({**part.columns, "user__det": codes}, part.start_id,
                         {**part.dictionaries, "user__det": grown})
    assert np.array_equal(doctored.column("user__det"), part.column("user__det"))
    # The zone map a store publishes for the doctored partition: its
    # dictionary alone would agree with the planted token.
    doctored_stats = join_dictionaries(stats, doctored.dictionaries)
    assert np.array_equal(doctored_stats["columns"]["user__det"]["tokens"], grown)
    assert audit_zone_maps(table).ok
    forged = Table("t", [doctored, *table.partitions[1:]],
                   zone_maps=[doctored_stats, *table.zone_maps[1:]])
    result = audit_zone_maps(forged)
    assert not result.ok
    assert any("dictionary is not the distinct tokens" in v for v in result.violations)
    assert any("not recomputable" in v for v in result.violations)


@pytest.mark.parametrize("users", [255, 256, 65_536])
def test_grouped_rows_equal_the_executor_in_order_and_type(tmp_path, users):
    """The decryptor's columns come out as the executor's rows: the same
    default (``str`` of the key) order, values and Python types."""
    data = dataset(max(users, 1024), users)
    session = session_with(data, tmp_path)
    for sql in (GROUP, "SELECT user, count(*) AS c FROM t GROUP BY user ORDER BY c DESC"):
        got = session.query(sql).rows
        want = execute_plain({"t": data}, parse_query(sql))
        assert [[type(v) for v in row.values()] for row in got] == [
            [type(v) for v in row.values()] for row in want]
        if "ORDER BY" in sql:  # ties keep each side's first order: compare as sets
            got, want = sorted(map(str, got)), sorted(map(str, want))
        assert got == want, sql
