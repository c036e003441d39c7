"""The coordinator's scatter runs on the calling thread: it sends every
shard its request, then reads every reply.

These tests pin the rules that make that safe: no thread is started,
workers are taken in node order and at most once per scatter (so
concurrent scatters cannot deadlock on the per-handle locks), and every
request sent is read on every exit path (so no stale reply is left on a
pipe for the next caller).
"""

import dataclasses
import threading
import time

import numpy as np
import pytest

import repro
from repro.core.schema import ColumnSpec, TableSchema
from repro.core.session import SeabedSession
from repro.engine.cluster import ClusterConfig, SimulatedCluster
from repro.engine.transport import WorkerHandle
from repro.errors import ShardUnavailable, TransportError
from repro.net import rpc
from repro.shard.coordinator import ShardCoordinator

REGIONS = ["ber", "del", "lag", "lim", "osl", "rio", "sfo", "tok"]
KEY = b"f" * 32
SCHEMA = TableSchema("sales", [
    ColumnSpec("region", dtype="str", sensitive=True),
    ColumnSpec("day", dtype="int", sensitive=True, nbits=16),
    ColumnSpec("amount", dtype="int", sensitive=True, nbits=32),
])
GROUPED = "SELECT region, sum(amount), count(*) FROM sales GROUP BY region"
SAMPLE_QUERIES = [
    GROUPED,
    "SELECT sum(amount), count(*) FROM sales WHERE region = 'rio'",
    "SELECT sum(amount), count(*) FROM sales WHERE region IN ('rio', 'ber')",
]


def _batch(n=600):
    rng = np.random.default_rng(5)
    return {
        "region": rng.choice(REGIONS, n).tolist(),
        "day": rng.integers(0, 60, n),
        "amount": rng.integers(0, 900, n),
    }


def _rows(result):
    return sorted(result.rows, key=lambda row: sorted(row.items()))


def _session(**cluster):
    session = SeabedSession(
        master_key=KEY, seed=2, cluster=SimulatedCluster(ClusterConfig(**cluster))
    )
    session.create_plan(SCHEMA, SAMPLE_QUERIES)
    return session


@pytest.fixture
def baseline():
    session = _session()
    session.upload("sales", _batch())
    yield session
    session.close()


@pytest.fixture
def sharded(tmp_path):
    """(session, table handle) over 4 shards, 2 replicas each."""
    session = _session(storage_dir=str(tmp_path))
    table = session.shard_table("sales", "region", num_shards=4, replicas=2)
    session.upload("sales", _batch())
    assert all(table.shard_rows().values())  # every query below scatters 4 wide
    yield session, table
    session.close()


def _spy_begin(monkeypatch):
    """Record the worker of every request sent, in sending order."""
    sent = []
    begin = WorkerHandle.begin

    def spy(handle, method, frame):
        sent.append(handle.name)
        return begin(handle, method, frame)

    monkeypatch.setattr(WorkerHandle, "begin", spy)
    return sent


def test_a_four_shard_query_starts_no_thread(sharded, baseline, monkeypatch):
    session, _ = sharded
    want = _rows(baseline.query(GROUPED))
    session.query(GROUPED)  # rollups cached: only the scatter is left

    def no_threads(thread):
        raise AssertionError(f"the scatter started thread {thread.name!r}")

    monkeypatch.setattr(threading.Thread, "start", no_threads)
    result = session.query(GROUPED)
    assert _rows(result) == want
    assert [m.shards_total - m.shards_skipped for m in result.request_metrics] == [4]


def test_workers_are_taken_in_node_order_once_each(sharded, baseline, monkeypatch):
    """With node 0 dead, shard 0's first live replica is node 3, which is
    also shard 3's primary: node 3 gets one request in the scatter, sent
    after node 1's and node 2's, and shard 3 goes to it afterwards."""
    session, table = sharded
    assert table.store.replica_nodes(0) == (0, 3)
    table.kill_node(0)
    with rpc.deadline(time.monotonic() + 10.0):
        session.query(GROUPED)
        sent = _spy_begin(monkeypatch)
        result = session.query(GROUPED)
    assert _rows(result) == _rows(baseline.query(GROUPED))
    assert sent == [f"sales-node-{n}" for n in (1, 2, 3, 3)]
    assert sum(m.failovers for m in result.request_metrics) == 0


def test_a_worker_error_mid_scatter_leaves_no_stale_reply(sharded, baseline):
    session, table = sharded
    want = _rows(baseline.query(GROUPED))
    q = session.prepare(GROUPED).translation.requests[0]
    broken = dataclasses.replace(q, group_by="no_such_column")
    with pytest.raises(TransportError, match="no_such_column"):
        ShardCoordinator(table.store).execute(broken)
    with rpc.deadline(time.monotonic() + 10.0):
        assert _rows(session.query(GROUPED)) == want
    assert not table.store.dead


def test_an_exhausted_budget_mid_scatter_leaves_no_stale_reply(sharded, baseline):
    """Node 2 is taken by another caller: the scatter sends to nodes 0
    and 1, runs out of budget waiting for node 2, and reads both replies
    before it raises."""
    session, table = sharded
    want = _rows(baseline.query(GROUPED))
    session.query(GROUPED)
    rows = table.shard_rows()[2]
    busy = table.store.workers[2]
    busy.begin("rows", WorkerHandle.request_frame("rows", table="sales", shard_id=2))
    try:
        with rpc.deadline(time.monotonic() + 0.3), pytest.raises(
            ShardUnavailable, match="no time left"
        ):
            session.query(GROUPED)
    finally:
        assert busy.finish("rows") == rows
    with rpc.deadline(time.monotonic() + 10.0):
        assert _rows(session.query(GROUPED)) == want
    assert not table.store.dead


def test_an_interrupt_mid_read_retires_the_unread_workers(tmp_path, baseline, monkeypatch):
    """An interrupt while reading node 2's reply leaves node 2 and node 3
    taken: both are killed and marked dead, so, with no deadline set, the
    next query answers from the replicas on nodes 0 and 1 and close()
    returns instead of waiting on a taken worker."""
    session = _session(storage_dir=str(tmp_path))
    table = session.shard_table("sales", "region", num_shards=4, replicas=3)
    session.upload("sales", _batch())
    assert [table.store.replica_nodes(s)[:2] for s in (2, 3)] == [(2, 0), (3, 1)]
    want = _rows(baseline.query(GROUPED))
    session.query(GROUPED)
    sent = _spy_begin(monkeypatch)
    finish = WorkerHandle.finish

    def interrupted(handle, method):
        if handle.name == "sales-node-2":
            raise KeyboardInterrupt
        return finish(handle, method)

    monkeypatch.setattr(WorkerHandle, "finish", interrupted)
    with pytest.raises(KeyboardInterrupt):
        session.query(GROUPED)
    monkeypatch.undo()
    assert sent == [f"sales-node-{n}" for n in range(4)]
    assert table.store.dead == {2, 3}
    answers = []

    def after():
        answers.append(_rows(session.query(GROUPED)))
        session.close()
        answers.append("closed")

    thread = threading.Thread(target=after, daemon=True)
    thread.start()
    thread.join(timeout=60)
    assert answers == [want, "closed"]


def test_concurrent_scatters_over_a_dying_node(tmp_path, baseline):
    """Two clients of one service scatter grouped, routed-point and
    two-shard queries over one fleet while node 0 dies mid-call.

    Node 0's shard fails over to node 3, ahead of node 1 in shard order:
    a scatter that took workers in shard order would hold node 3 while it
    waits for node 1, and one routed to shards 1 and 3 holds node 1 while
    it waits for node 3.  Every answer equals the single-store one, and
    the one death is counted as one failover.
    """
    writer = _session(storage_dir=str(tmp_path))
    root = writer.shard_table("sales", "region", num_shards=4, replicas=2).root
    writer.upload("sales", _batch())
    writer.close()
    handle = repro.serve(sharded=[root], auth_required=False, request_timeout=10.0)
    with handle:
        fleet = handle.service._local._fleets["sales"]
        clients = [repro.connect(handle.address, master_key=KEY, seed=2) for _ in range(2)]
        for client in clients:
            client.open_sharded(root)
        owner = {}
        for region in REGIONS:
            request = clients[0].prepare(
                f"SELECT sum(amount), count(*) FROM sales WHERE region = '{region}'"
            ).translation.requests[0]
            owner.setdefault(fleet.ring.owner(request.filter.token), region)
        points = [
            f"SELECT sum(amount), count(*) FROM sales WHERE region = '{r}'"
            for r in owner.values()
        ]
        pair = (
            "SELECT sum(amount), count(*) FROM sales "
            f"WHERE region IN ('{owner[1]}', '{owner[3]}')"
        )
        mixes = [[GROUPED, *points], [pair, GROUPED, pair, *points]]
        want = {q: _rows(baseline.query(q)) for mix in mixes for q in mix}
        fleet.arm_exit(0, "execute", after=3)
        failovers, errors = [], []

        def run(client, mix):
            try:
                for _ in range(6):
                    for q in mix:
                        result = client.query(q)
                        assert _rows(result) == want[q], q
                        failovers.append(sum(m.failovers for m in result.request_metrics))
            except Exception as exc:  # noqa: BLE001 -- reported below
                errors.append(exc)

        threads = [
            threading.Thread(target=run, args=pair_, daemon=True)
            for pair_ in zip(clients, mixes)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors
        assert fleet.dead == {0}
        assert sum(failovers) == 1
        for client in clients:
            client.close()
