"""SPLASHE indicator columns are ASHE over Z_2^32, from client to disk.

The plan makes every indicator -- basic ``d@k__ind``, enhanced per-frequent
and ``@oth`` -- a uint32 ciphertext column: the manifest records ``<u4``,
each indicator cell costs 4 bytes in the partition file, the index builds
nothing for it, the keyless audits still pass, and SPLASHE GROUP BY /
count(*) answers equal the plaintext executor's on one store in process,
one store behind a service and two shards, after an append and after a
compaction.  Uploads and appends that could wrap a sum are refused before
anything is encrypted.
"""

import json
import os

import numpy as np
import pytest

import repro
from repro.attacks.frequency import audit_zone_maps
from repro.core import session as session_mod
from repro.core.encryptor import check_headroom
from repro.core.schema import ColumnSpec, TableSchema
from repro.core.session import SeabedSession
from repro.engine.store import (
    MANIFEST_NAME,
    PARTITION_FILE,
    _column_offsets,
    append_store,
    open_store,
    store_num_rows,
)
from repro.engine.table import Table
from repro.errors import PlanningError, StorageError
from repro.net.audit import audit_keyless
from repro.ops import OPS
from repro.query import execute_plain, parse_query

KEY = b"indicator-width-master-key-32-b!"
REGIONS = ["us", "eu", "asia"]  # basic SPLASHE
DEVICE_COUNTS = {"phone": 700, "desktop": 150, "tablet": 80, "tv": 50, "watch": 20}
SITES = ["a.com", "b.com", "c.com", "d.com", "e.com"]  # DET: the shard key

SAMPLES = [
    "SELECT region, sum(clicks), count(*) FROM ads GROUP BY region",
    "SELECT device, sum(clicks), count(*) FROM ads GROUP BY device",
    "SELECT count(*) FROM ads WHERE region = 'eu'",
    "SELECT count(*), sum(clicks) FROM ads WHERE device = 'tv'",
    "SELECT site, count(*) FROM ads GROUP BY site",
]
QUERIES = SAMPLES + ["SELECT count(*) FROM ads WHERE device = 'phone'"]


def schema(max_abs=None):
    return TableSchema("ads", [
        ColumnSpec("region", dtype="str", sensitive=True, distinct_values=REGIONS),
        ColumnSpec("device", dtype="str", sensitive=True, value_counts=DEVICE_COUNTS),
        ColumnSpec("site", dtype="str", sensitive=True),
        ColumnSpec("clicks", dtype="int", sensitive=True, max_abs=max_abs),
    ])


def dataset(n, seed):
    rng = np.random.default_rng(seed)
    weights = np.array(list(DEVICE_COUNTS.values()), dtype=float)
    return {
        "region": rng.choice(REGIONS, n),
        "device": rng.choice(list(DEVICE_COUNTS), n, p=weights / weights.sum()),
        "site": rng.choice(SITES, n),
        "clicks": rng.integers(0, 50, n),
    }


def concat(*batches):
    return {k: np.concatenate([b[k] for b in batches]) for k in batches[0]}


def rows(rows_):
    return sorted(map(str, rows_))


def assert_answers(session, data):
    for sql in QUERIES:
        expected = execute_plain({"ads": data}, parse_query(sql))
        assert rows(session.query(sql).rows) == rows(expected), sql


def indicators(session):
    return sorted(session.table_state("ads").enc_schema.ashe_bits())


def test_the_plan_narrows_every_indicator_and_nothing_else():
    session = SeabedSession(mode="seabed", master_key=KEY, seed=3)
    session.create_plan(schema(), SAMPLES)
    enc = session.table_state("ads").enc_schema
    basic, enhanced = enc.plan("region"), enc.plan("device")
    assert (basic.kind, enhanced.kind) == ("splashe_basic", "splashe_enhanced")
    narrow = set(basic.indicator_columns) | set(enhanced.indicator_columns.values())
    narrow.add(enhanced.others_indicator)
    assert set(enc.ashe_bits()) == narrow
    assert set(enc.ashe_bits().values()) == {32}
    session.upload("ads", dataset(200, 1), num_partitions=2)
    table = session.server.table("ads")
    for name in table.column_names:
        dtype = table.partitions[0].column(name).dtype
        if name in narrow:
            assert dtype == np.uint32, name
        elif name.endswith("__ashe"):
            assert dtype == np.uint64, name  # measures stay Z_2^64


@pytest.mark.parametrize("fill", [0, 1])
def test_constant_indicator_column_is_uniform(fill):
    """An all-0 or all-1 indicator's ciphertexts look uniform: chi-square
    over their top byte (256 bins, ~16 samples each)."""
    from scipy import stats

    session = SeabedSession(mode="seabed", master_key=KEY, seed=3)
    session.create_plan(schema(), SAMPLES)
    n = 4096
    data = dataset(n, 2)
    data["region"] = np.full(n, REGIONS[0])  # us@0 all 1, eu@1 / asia@2 all 0
    session.upload("ads", data, num_partitions=1)
    column = session.server.table("ads").partitions[0].column(f"region@{1 - fill}__ind")
    assert column.dtype == np.uint32
    counts = np.bincount((column >> np.uint32(24)).astype(np.uint8), minlength=256)
    assert stats.chisquare(counts).pvalue > 1e-4


# -- placements ------------------------------------------------------------------

PLACES = ["local", "remote", "2-shard"]


class Placed:
    """The ``ads`` table on one placement, plus what to close afterwards."""

    def __init__(self, kind, tmp_path):
        self.closers = []
        self.sharded = kind == "2-shard"
        writer = self.session(SeabedSession(mode="seabed", master_key=KEY, seed=3))
        writer.create_plan(schema(), SAMPLES)
        self.data = dataset(900, 7)
        if self.sharded:
            root = writer.shard_table("ads", "site", str(tmp_path / "ads"),
                                      num_shards=2).root
            writer.upload("ads", self.data)
            self.paths = sorted(d for d, _, files in os.walk(root) if MANIFEST_NAME in files)
            assert len(self.paths) == 2
        else:
            writer.upload("ads", self.data, num_partitions=3, path=tmp_path / "ads")
            self.paths = [writer.save_table("ads")]
        if kind == "remote":
            writer.close()
            service = repro.serve(stores=self.paths, auth_required=False)
            self.closers.append(service.stop)
            writer = self.session(repro.connect(service.address, master_key=KEY, seed=3))
            writer.open_table(self.paths[0])
        self.writer = writer

    def session(self, session):
        self.closers.append(session.close)
        return session

    def append(self, *seeds):
        for seed in seeds:
            batch = dataset(60, seed)
            self.writer.append_rows("ads", batch)
            self.data = concat(self.data, batch)

    def close(self):
        for close in reversed(self.closers):
            close()


@pytest.fixture(params=PLACES)
def placed(request, tmp_path):
    placement = Placed(request.param, tmp_path)
    yield placement
    placement.close()


def manifest_of(path):
    with open(os.path.join(path, MANIFEST_NAME)) as fh:
        return json.load(fh)


def assert_stores_narrow(placed):
    """Every store's manifest records ``<u4`` for every indicator, and each
    partition file is exactly as large as its byte counts say."""
    names = indicators(placed.writer)
    assert placed.paths
    for path in placed.paths:
        manifest = manifest_of(path)
        for name, spec in manifest["columns"].items():
            assert (spec["dtype"] == "<u4") == (name in names), name
        for gen in manifest["generations"]:
            for part in gen["partitions"]:
                files = part["files"]
                rows_ = files["clicks__ashe"] // 8  # a measure: Z_2^64
                assert rows_ and all(files[name] == 4 * rows_ for name in names)
                _, end = _column_offsets(files)
                assert os.path.getsize(os.path.join(path, part["dir"], PARTITION_FILE)) == end
                stats = part["stats"]["columns"]
                assert not set(stats) & set(names), "an indicator got a zone map"


def test_answers_after_an_append(placed):
    placed.append(11)
    assert_answers(placed.writer, placed.data)
    assert_stores_narrow(placed)


def test_answers_after_a_compaction(placed):
    placed.append(12, 13, 14)
    stats = placed.writer.compact_table("ads")
    assert any(stats.values() if placed.sharded else [stats]), "nothing was compacted"
    assert_answers(placed.writer, placed.data)
    assert_stores_narrow(placed)


def test_a_sharded_append_balances_the_whole_batch(tmp_path):
    """A 2-shard table balances an enhanced-SPLASHE batch once, before the
    ring splits it by site: a batch whose infrequent devices all sit on
    one shard's site and whose phones all sit on the other's is accepted,
    as one store accepts it, rather than refused for the slice that holds
    no phone to take a dummy cell."""
    session = SeabedSession(mode="seabed", master_key=KEY, seed=3)
    try:
        session.create_plan(schema(), SAMPLES)
        session.shard_table("ads", "site", str(tmp_path / "ads"), num_shards=2)
        data = dataset(300, 4)
        session.upload("ads", data)
        shard_of = {}
        for site in SITES:  # one phone row per site shows its shard
            before = session.encrypted_table("ads").shard_rows()
            row = {"region": np.array(["us"]), "device": np.array(["phone"]),
                   "site": np.array([site]), "clicks": np.array([1])}
            session.append_rows("ads", row)
            after = session.encrypted_table("ads").shard_rows()
            shard_of[site] = next(s for s in after if after[s] != before.get(s, 0))
            data = concat(data, row)
        rare = next(s for s in SITES if shard_of[s] == 0)
        common = next(s for s in SITES if shard_of[s] == 1)
        devices = ["desktop"] * 4 + ["tablet"] * 2 + ["tv", "watch"] + ["phone"] * 12
        batch = {
            "region": np.array(["eu"] * 20),
            "device": np.array(devices),
            "site": np.array([rare] * 8 + [common] * 12),
            "clicks": np.arange(20),
        }
        session.append_rows("ads", batch)
        assert_answers(session, concat(data, batch))
    finally:
        session.close()


# -- the store and the audits ----------------------------------------------------


@pytest.fixture
def stored(tmp_path):
    session = SeabedSession(mode="seabed", master_key=KEY, seed=3)
    session.create_plan(schema(), SAMPLES)
    session.upload("ads", dataset(600, 5), num_partitions=4, path=tmp_path / "ads")
    path = session.save_table("ads")
    yield session, path
    session.close()


def test_zone_map_audit_passes_on_a_narrow_store(stored):
    session, path = stored
    table = open_store(path)
    names = indicators(session)
    assert all(table.partitions[0].column(n).dtype == np.uint32 for n in names)
    result = audit_zone_maps(table, session._column_meta(session.table_state("ads")))
    assert result.ok, result.violations
    assert result.artifacts_checked > 0


def test_keyless_audit_passes_while_serving_a_narrow_store(stored):
    session, path = stored
    handle = repro.serve(stores=[path], auth_required=False)
    try:
        remote = repro.connect(handle.address, master_key=KEY, seed=3)
        remote.open_table(path)
        assert_answers(remote, dataset(600, 5))
        assert audit_keyless(handle.service).ok
        audit = remote.transport.audit_server()
        assert audit["ok"], audit["flagged"]
        remote.close()
    finally:
        handle.stop()


def test_an_append_with_wide_indicators_is_refused(stored):
    session, path = stored
    names = indicators(session)
    before = manifest_of(path)
    batch = open_store(path).partitions[0]
    columns = {n: np.array(batch.column(n)) for n in batch.columns}
    columns[names[0]] = columns[names[0]].astype(np.uint64)
    wide = Table.from_columns("ads", columns, num_partitions=1,
                              base_id=store_num_rows(path))
    with pytest.raises(StorageError, match=names[0]):
        append_store(wide, path)
    assert manifest_of(path) == before


# -- headroom --------------------------------------------------------------------


class TestHeadroom:
    """Sums that could wrap are refused before a batch is encrypted."""

    def test_indicator_bound(self):
        session = SeabedSession(mode="seabed", master_key=KEY)
        session.create_plan(schema(), SAMPLES)
        state = session.table_state("ads")
        check_headroom(state, 2**32 - 1)
        with pytest.raises(PlanningError, match="Z_2\\^32"):
            check_headroom(state, 2**32)

    def test_measure_bound(self):
        session = SeabedSession(mode="seabed", master_key=KEY)
        session.create_plan(schema(max_abs=2**40), SAMPLES)
        state = session.table_state("ads")
        check_headroom(state, 2**23 - 1)
        with pytest.raises(PlanningError, match="clicks"):
            check_headroom(state, 2**23)

    def test_upload_refused_before_encrypting(self):
        session = SeabedSession(mode="seabed", master_key=KEY, seed=3)
        session.create_plan(schema(), SAMPLES)
        session.upload("ads", dataset(50, 1), num_partitions=1)
        # Faked on the total only: the shard cursor must still agree with
        # the committed sidecar, or the store check refuses first.
        session._tables["ads"].state.num_rows = 2**32 - 10
        before = OPS.snapshot()
        with pytest.raises(PlanningError, match="2\\^32 - 1"):
            session.upload("ads", dataset(10, 2))
        assert not OPS.delta(before).get("encrypt_batch")
        assert session.server.table("ads").num_rows == 50

    def test_append_refused_before_writing(self, stored):
        session, path = stored
        before = manifest_of(path)
        session._tables["ads"].state.num_rows = 2**32 - 5  # faked
        ops = OPS.snapshot()
        with pytest.raises(PlanningError):
            session.append_rows("ads", dataset(10, 3))
        assert not OPS.delta(ops).get("encrypt_batch")
        assert manifest_of(path) == before

    def test_the_guard_counts_rows_over_every_shard(self, tmp_path, monkeypatch):
        session = SeabedSession(mode="seabed", master_key=KEY, seed=3)
        try:
            session.create_plan(schema(), SAMPLES)
            session.shard_table("ads", "site", str(tmp_path / "ads"), num_shards=2)
            session.upload("ads", dataset(300, 4))
            shard_rows = session.encrypted_table("ads").shard_rows()
            assert len(shard_rows) == 2 and min(shard_rows.values()) > 0
            seen = []
            monkeypatch.setattr(session_mod, "check_headroom",
                                lambda state, rows_: seen.append(rows_))
            session.append_rows("ads", dataset(10, 5))
            assert seen == [300 + 10]
        finally:
            session.close()
