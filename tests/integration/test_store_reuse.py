"""Re-registering a store maps only what changed.

Every append, compaction, truncation and index rebuild ends by serving a
fresh view of the store.  That view takes each partition whose files are
unchanged -- same ``store_id``, directory, row span and file sizes --
from the table it replaces, and maps only the rest, so an append costs
O(batch) whatever the table's size.  ``StoreReader._load_partition`` is
the one place a partition's files are mapped; these tests count it.
"""

import json
import os
import shutil
from unittest import mock

import numpy as np
import pytest

from repro.core.schema import ColumnSpec, TableSchema
from repro.core.session import SeabedSession
from repro.core.transport import StoreHost
from repro.engine.store import (
    MANIFEST_NAME,
    StoreReader,
    append_store,
    open_store,
    write_store,
)
from repro.engine.table import Partition, Table
from repro.errors import StorageError
from repro.query import execute_plain, parse_query

COUNTRIES = ["us", "ca", "in", "uk"]
MASTER_KEY = b"store-reuse-test-master-key-32b!"
QUERIES = [
    "SELECT country, sum(amount), count(*) FROM sales GROUP BY country",
    "SELECT sum(amount), min(amount), max(amount) FROM sales WHERE year = 2015",
]


def dataset(n, seed):
    rng = np.random.default_rng(seed)
    return {
        "country": rng.choice(COUNTRIES, n),
        "amount": rng.integers(0, 1000, n),
        "year": rng.integers(2014, 2017, n),
    }


SCHEMA = TableSchema("sales", [
    ColumnSpec("country", dtype="str", sensitive=True, distinct_values=COUNTRIES),
    ColumnSpec("amount", dtype="int", sensitive=True, nbits=32),
    ColumnSpec("year", dtype="int", sensitive=False),
])


class Stored:
    """A session's stored table plus the plaintext it should answer from."""

    def __init__(self, path, partitions, rows=600, seed=5):
        self.session = SeabedSession(mode="seabed", master_key=MASTER_KEY, seed=3)
        self.session.create_plan(SCHEMA, QUERIES)
        self.plain = dataset(rows, seed)
        self.session.upload("sales", self.plain, num_partitions=partitions, path=path)
        self.path = self.session.save_table("sales")

    @property
    def served(self) -> Table:
        return self.session.transport.server.get("sales")

    def append(self, rows, seed, num_partitions=1):
        batch = dataset(rows, seed)
        self.session.append_rows("sales", batch, num_partitions=num_partitions)
        self.plain = {k: np.concatenate([self.plain[k], batch[k]]) for k in batch}

    def assert_answers(self):
        for sql in QUERIES:
            got = self.session.query(sql).rows
            want = execute_plain({"sales": self.plain}, parse_query(sql))
            assert sorted(got, key=repr) == sorted(want, key=repr), sql


@pytest.fixture
def loads():
    """Counts partition maps: ``loads.call_count``."""
    with mock.patch.object(
        StoreReader, "_load_partition", autospec=True,
        side_effect=StoreReader._load_partition,
    ) as load:
        yield load


def assert_shared(new: Table, old: Table) -> int:
    """Every partition of ``new`` whose key ``old`` also serves is the
    same object; returns how many keys are new."""
    kept = dict(zip(old.store_keys, old.partitions))
    for key, part in zip(new.store_keys, new.partitions):
        if key in kept:
            assert part is kept[key]
        else:
            assert all(part is not p for p in old.partitions)
    return sum(key not in kept for key in new.store_keys)


@pytest.mark.parametrize("partitions", [4, 32])
def test_append_maps_only_its_generation(tmp_path, loads, partitions):
    stored = Stored(tmp_path / "sales", partitions)
    for seed in (11, 12):
        before = stored.served
        loads.reset_mock()
        stored.append(rows=40, seed=seed)
        after = stored.served
        assert loads.call_count == 1
        assert len(after.partitions) == len(before.partitions) + 1
        assert all(a is b for a, b in zip(after.partitions, before.partitions))
        assert after.partitions[-1].start_id == before.end_id
    stored.assert_answers()


def test_multi_partition_batch_maps_its_partitions(tmp_path, loads):
    stored = Stored(tmp_path / "sales", 8)
    before = stored.served
    loads.reset_mock()
    stored.append(rows=90, seed=11, num_partitions=3)
    assert loads.call_count == 3
    assert assert_shared(stored.served, before) == 3
    stored.assert_answers()


def test_compaction_maps_only_the_merged_partitions(tmp_path, loads, monkeypatch):
    stored = Stored(tmp_path / "sales", 8)
    for seed in (11, 12, 13, 14):
        stored.append(rows=20, seed=seed)
    reopen_loads = []
    reopen = StoreHost.reopen

    def counted(host):
        start = loads.call_count
        reopen(host)
        reopen_loads.append(loads.call_count - start)

    monkeypatch.setattr(StoreHost, "reopen", counted)
    before = stored.served
    loads.reset_mock()
    compaction = stored.session.compact_table("sales")
    assert compaction is not None
    merged = assert_shared(stored.served, before)
    assert 0 < merged < compaction["partitions_after"]
    assert reopen_loads == [merged]
    # compact_store itself reads just the sources it merges.
    sources = compaction["partitions_before"] - (compaction["partitions_after"] - merged)
    assert loads.call_count == sources + merged
    stored.assert_answers()


def test_truncate_reopen_keeps_the_committed_prefix(tmp_path, loads):
    stored = Stored(tmp_path / "sales", 6)
    stored.append(rows=30, seed=11)
    committed = stored.served
    # A generation a dead writer published but never committed: its
    # ciphertexts are a copy of the last partition's, re-based past the
    # store's end (never queried; the rollback drops it).
    last = committed.partitions[-1]
    tail = Partition(
        columns={name: np.asarray(col) for name, col in last.columns.items()},
        start_id=committed.end_id,
    )
    append_store(Table("sales", [tail]), stored.path)
    transport = stored.session.transport
    loads.reset_mock()
    transport.reopen("sales")
    assert loads.call_count == 1
    assert stored.served.num_rows == committed.num_rows + last.nrows

    loads.reset_mock()
    transport.truncate_store("sales", 0, committed.num_rows)
    assert loads.call_count == 0
    assert stored.served.store_keys == committed.store_keys
    assert all(
        a is b for a, b in zip(stored.served.partitions, committed.partitions)
    )
    stored.assert_answers()


def test_rebuild_index_takes_new_zone_maps_on_the_same_partitions(tmp_path):
    stored = Stored(tmp_path / "sales", 5)
    stored.append(rows=30, seed=11)
    manifest_path = os.path.join(stored.path, MANIFEST_NAME)
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    want = manifest["generations"][0]["partitions"][0].pop("stats")
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh)
    stored.session.transport.reopen("sales")
    before = stored.served
    assert before.zone_maps[0] is None

    stored.session.rebuild_index("sales")
    after = stored.served
    assert after.zone_maps[0] == want
    assert after.store_keys == before.store_keys
    assert all(a is b for a, b in zip(after.partitions, before.partitions))
    stored.assert_answers()


def test_overwritten_store_is_mapped_afresh(tmp_path, loads):
    """A rewrite in place keeps every directory name and file size but
    mints a new ``store_id``: the old maps must not be served."""
    path = tmp_path / "sales"
    stored = Stored(path, 4, seed=5)
    shutil.rmtree(path)
    replacement = Stored(path, 4, seed=6)
    old = stored.served
    assert [k[1:] for k in replacement.served.store_keys] == [
        k[1:] for k in old.store_keys
    ]

    loads.reset_mock()
    stored.session.transport.reopen("sales")
    assert loads.call_count == 4
    assert all(a is not b for a, b in zip(stored.served.partitions, old.partitions))
    stored.plain = replacement.plain
    stored.assert_answers()


def test_changed_byte_count_is_remapped_and_checked(tmp_path, loads):
    rng = np.random.default_rng(1)
    table = Table.from_columns(
        "t", {"u": rng.integers(0, 2**63, 40).astype(np.uint64)}, num_partitions=4
    )
    path = write_store(table, tmp_path / "s")
    served = open_store(path)
    loads.reset_mock()
    again = open_store(path, served=served)
    assert loads.call_count == 0
    assert all(a is b for a, b in zip(again.partitions, served.partitions))

    manifest_path = os.path.join(path, MANIFEST_NAME)
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    manifest["generations"][0]["partitions"][2]["files"]["u"] += 8
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh)
    with pytest.raises(StorageError, match="manifest says"):
        open_store(path, served=served)
    assert loads.call_count == 1


def test_a_first_open_maps_everything(tmp_path, loads):
    stored = Stored(tmp_path / "sales", 6)
    stored.append(rows=30, seed=11)
    loads.reset_mock()
    reader = SeabedSession(mode="seabed", master_key=MASTER_KEY, seed=3)
    reader.open_table(stored.path)
    assert loads.call_count == 7
    reader.close()
