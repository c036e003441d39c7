"""Replica failover: killed shard workers must not change any answer.

Fail points kill one worker process mid-RPC (the reply is never sent);
the coordinator must detect the dead pipe, mark the node, retry the
shard's stage on the next replica, and still return exactly the
single-store answer -- with ``JobMetrics.failovers`` recording the
recovery.  Appends, by contrast, must refuse to proceed with any dead
replica in the chain (a partially acked write would fork the replicas).
"""

import json
import os
import time

import numpy as np
import pytest

import repro

from repro.core.schema import ColumnSpec, TableSchema
from repro.core.session import SeabedSession
from repro.engine.cluster import ClusterConfig, SimulatedCluster
from repro.errors import ExecutionError, TransportError
from repro.net import codec, rpc

REGIONS = ["ber", "del", "lag", "lim", "osl", "rio", "sfo", "tok"]
KEY = b"f" * 32
N = 500

SCHEMA = TableSchema("sales", [
    ColumnSpec("region", dtype="str", sensitive=True),
    ColumnSpec("day", dtype="int", sensitive=True, nbits=16),
    ColumnSpec("amount", dtype="int", sensitive=True, nbits=32),
])
SAMPLE_QUERIES = [
    "SELECT sum(amount) FROM sales WHERE region = 'rio'",
    "SELECT region, sum(amount), count(*) FROM sales GROUP BY region",
    "SELECT sum(amount) FROM sales WHERE day > 10",
    "SELECT min(amount), max(amount) FROM sales",
]
GROUPED = "SELECT region, sum(amount), count(*) FROM sales GROUP BY region"


def _batch(seed=11):
    rng = np.random.default_rng(seed)
    return {
        "region": rng.choice(REGIONS, N).tolist(),
        "day": rng.integers(0, 60, N),
        "amount": rng.integers(0, 900, N),
    }


def _rows_key(row):
    return sorted(row.items(), key=lambda kv: kv[0])


def _sorted_rows(result):
    return sorted(result.rows, key=_rows_key)


def _store_files(top):
    """Every file of a store by relative path: its bytes, or for the
    manifest its JSON without the per-store random ``store_id``."""
    files = {}
    for folder, _, names in os.walk(top):
        for name in names:
            with open(os.path.join(folder, name), "rb") as f:
                data = f.read()
            if name == "manifest.json":
                data = {k: v for k, v in json.loads(data).items() if k != "store_id"}
            files[os.path.relpath(os.path.join(folder, name), top)] = data
    return files


@pytest.fixture
def sessions(tmp_path):
    """(sharded session, its table handle, single-store baseline)."""
    baseline = SeabedSession(master_key=KEY, seed=2)
    baseline.create_plan(SCHEMA, SAMPLE_QUERIES)
    baseline.upload("sales", _batch())

    config = ClusterConfig(storage_dir=str(tmp_path))
    session = SeabedSession(
        master_key=KEY, seed=2, cluster=SimulatedCluster(config)
    )
    session.create_plan(SCHEMA, SAMPLE_QUERIES)
    table = session.shard_table("sales", "region", num_shards=4, replicas=2)
    session.upload("sales", _batch())
    yield session, table, baseline
    session.close()


def _populated(table):
    return [s for s, n in table.shard_rows().items() if n > 0]


class TestQueryFailover:
    def test_worker_killed_mid_query_fails_over(self, sessions):
        session, table, baseline = sessions
        primary = table.store.replica_nodes(_populated(table)[0])[0]
        table.arm_exit(primary, "execute", after=1)
        result = session.query(GROUPED)
        assert _sorted_rows(result) == _sorted_rows(baseline.query(GROUPED))
        assert sum(m.failovers for m in result.request_metrics) == 1
        assert primary in table.store.dead
        # Later queries skip the dead node without counting new failovers.
        again = session.query(GROUPED)
        assert _sorted_rows(again) == _sorted_rows(baseline.query(GROUPED))
        assert sum(m.failovers for m in again.request_metrics) == 0

    def test_hard_killed_node_is_survivable(self, sessions):
        session, table, baseline = sessions
        table.kill_node(table.store.replica_nodes(_populated(table)[0])[0])
        for query in SAMPLE_QUERIES:
            assert _sorted_rows(session.query(query)) == _sorted_rows(
                baseline.query(query)
            )

    def test_scan_fails_over_too(self, sessions):
        session, table, baseline = sessions
        query = "SELECT region, amount FROM sales WHERE day < 20"
        want = sorted(map(_rows_key, baseline.scan(query).rows))
        primary = table.store.replica_nodes(_populated(table)[0])[0]
        table.arm_exit(primary, "scan", after=1)
        got = session.scan(query)
        assert sorted(map(_rows_key, got.rows)) == want
        assert sum(m.failovers for m in got.request_metrics) == 1

    def test_whole_chain_dead_is_an_error(self, sessions):
        session, table, _ = sessions
        shard = _populated(table)[0]
        for node in table.store.replica_nodes(shard):
            table.kill_node(node)
        with pytest.raises(ExecutionError, match="replica"):
            session.query(GROUPED)

    def test_metrics_record_shard_counters(self, sessions):
        session, table, _ = sessions
        primary = table.store.replica_nodes(_populated(table)[0])[0]
        table.arm_exit(primary, "execute", after=1)
        result = session.query(GROUPED)
        metrics = result.request_metrics[0]
        assert metrics.shards_total == 4
        assert sum(m.failovers for m in result.request_metrics) == 1


class TestDeadline:
    """A stalled (not dead) shard worker is killed when the request's
    deadline passes, so the next request fails over to its replica."""

    def test_stalled_primary_is_killed_then_failed_over(self, sessions):
        session, table, baseline = sessions
        primary = table.store.replica_nodes(_populated(table)[0])[0]
        table.store.workers[primary].arm_stall("execute", 30.0)
        started = time.monotonic()
        with rpc.deadline(started + 1.0), pytest.raises(ExecutionError):
            session.query(GROUPED)
        assert time.monotonic() - started < 10.0
        assert primary in table.store.dead
        result = session.query(GROUPED)
        assert _sorted_rows(result) == _sorted_rows(baseline.query(GROUPED))

    @staticmethod
    def _served(tmp_path, **config):
        """(service handle, its fleet, a connected session, the answer)
        for a 2-shard, 2-replica table behind a service."""
        writer = SeabedSession(
            master_key=KEY, seed=2,
            cluster=SimulatedCluster(ClusterConfig(storage_dir=str(tmp_path))),
        )
        writer.create_plan(SCHEMA, SAMPLE_QUERIES)
        root = writer.shard_table("sales", "region", num_shards=2, replicas=2).root
        writer.upload("sales", _batch())
        want = _sorted_rows(writer.query(GROUPED))
        writer.close()  # the service's fleet takes over the node directories
        handle = repro.serve(sharded=[root], auth_required=False, **config)
        remote = repro.connect(handle.address, master_key=KEY, seed=2)
        remote.open_sharded(root)
        return handle, handle.service._local._fleets["sales"], remote, want

    @staticmethod
    def _primary(fleet):
        shard = next(s for s in fleet.shards if fleet.host(s).rows())
        return fleet.replica_nodes(shard)[0]

    def test_service_cap_reaches_the_shard_workers(self, tmp_path):
        handle, fleet, remote, want = self._served(tmp_path, request_timeout=1.0)
        with handle:
            primary = self._primary(fleet)
            fleet.workers[primary].arm_stall("execute", 30.0)
            started = time.monotonic()
            with pytest.raises(TransportError, match="timed out"):
                remote.query(GROUPED)
            while primary not in fleet.dead and time.monotonic() - started < 10.0:
                time.sleep(0.05)
            assert primary in fleet.dead
            assert _sorted_rows(remote.query(GROUPED)) == want
            remote.close()

    def test_a_client_timeout_kills_no_worker(self, tmp_path):
        """A client's own short budget times out only its wait: the body
        runs to the end under the service's cap and every node lives."""
        handle, fleet, remote, want = self._served(tmp_path)
        with handle:
            fleet.workers[self._primary(fleet)].arm_stall("execute", 0.5)
            with pytest.raises(TransportError, match="timed out"):
                remote.query(GROUPED, timeout=0.01)
            time.sleep(1.0)  # the stalled body finishes, answered to no one
            assert not fleet.dead
            assert _sorted_rows(remote.query(GROUPED)) == want
            assert not fleet.dead
            remote.close()

    def test_a_rollup_error_a_worker_reports_is_not_swallowed(self, sessions):
        """Only an unavailable shard turns into "cannot prune"."""
        _, table, _ = sessions
        fleet, shard = table.store, _populated(table)[0]
        primary = fleet.replica_nodes(shard)[0]
        fleet.forget_rollup(shard)
        fleet.workers[primary].call = _raises(ExecutionError("worker-side failure"))
        with pytest.raises(ExecutionError, match="worker-side failure"):
            fleet.rollup(shard)
        for node in fleet.replica_nodes(shard):
            fleet.kill_node(node)
        assert fleet.rollup(shard) is None


def _raises(exc):
    def call(*args, **kwargs):
        raise exc

    return call


class TestAppendSafety:
    def test_an_append_encodes_one_request_frame_per_shard(self, sessions, monkeypatch):
        session, table, _ = sessions
        encode, appended = codec.encode_frame, []

        def counting(kind, body):
            if isinstance(body, dict) and body.get("op") == "append":
                appended.append(body["args"]["shard_id"])
            return encode(kind, body)

        monkeypatch.setattr(codec, "encode_frame", counting)
        session.upload("sales", _batch(12))
        monkeypatch.undo()
        assert appended and sorted(appended) == sorted(set(appended))
        store = table.store
        for shard in store.shards:
            trees = []
            for node in store.replica_nodes(shard):
                top = os.path.join(store.node_dir(node), f"shard-{shard}")
                trees.append(_store_files(top))
            assert trees[0] and trees[0] == trees[1], f"shard {shard}'s replicas differ"

    def test_append_refuses_dead_replica(self, sessions):
        session, table, _ = sessions
        table.kill_node(table.store.replica_nodes(_populated(table)[0])[0])
        with pytest.raises(ExecutionError, match="full replica chain"):
            session.upload("sales", _batch(12))

    def test_append_crash_rolls_back_cleanly(self, sessions, tmp_path):
        session, table, baseline = sessions
        want = _sorted_rows(baseline.query(GROUPED))
        rows_before = table.shard_rows()
        # The primary of some populated shard dies while acking the
        # append: the session must roll its cursors back and the store
        # reconcile must leave every shard at its committed row count.
        victim = table.store.replica_nodes(_populated(table)[0])[0]
        table.arm_exit(victim, "append", after=1)
        with pytest.raises(ExecutionError, match="replica"):
            session.upload("sales", _batch(13))
        assert table.num_rows == N
        # Queries still answer from the replicas, unchanged.
        assert _sorted_rows(session.query(GROUPED)) == want
        # A fresh session sees only committed rows on every live replica.
        session.close()
        fresh = SeabedSession(
            master_key=KEY, seed=2,
            cluster=SimulatedCluster(ClusterConfig(storage_dir=str(tmp_path))),
        )
        try:
            reopened = fresh.open_sharded("sales")
            assert reopened.num_rows == N
            assert sum(reopened.shard_rows().values()) == sum(
                rows_before.values()
            )
            assert _sorted_rows(fresh.query(GROUPED)) == want
        finally:
            fresh.close()
