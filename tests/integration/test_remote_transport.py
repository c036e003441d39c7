"""Remote transport equivalence: a session over the wire must be
bit-identical to a session over LocalTransport on the same store.

One persisted ciphertext store (plus one sharded root), served by
``python -m repro.net.service`` in its own OS process.  Every query,
scan and aggregate, including prepared-query reuse and sharded
scatter-gather, must return exactly what a local session attached to
the same store returns; the serving processes must prove keyless over
the audit RPC; and remote appends must commit durably."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

import repro
from repro.core.schema import ColumnSpec, TableSchema
from repro.core.session import SeabedSession
from repro.engine.cluster import ClusterConfig, SimulatedCluster
from repro.engine.table import Partition, Table
from repro.errors import StorageError, TransportError

KEY = b"w" * 32
TOKEN = "integration-token"
REGIONS = ["ber", "del", "lag", "lim", "osl", "rio", "sfo", "tok"]
N = 360

SCHEMA = TableSchema("sales", [
    ColumnSpec("region", dtype="str", sensitive=True),
    ColumnSpec("day", dtype="int", sensitive=True, nbits=16),
    ColumnSpec("amount", dtype="int", sensitive=True, nbits=32),
])
SAMPLES = [
    "SELECT sum(amount) FROM sales WHERE region = 'rio'",
    "SELECT region, sum(amount), count(*) FROM sales GROUP BY region",
    "SELECT sum(amount), var(amount) FROM sales WHERE day > 10",
    "SELECT min(amount), max(amount), median(amount) FROM sales",
]
QUERIES = [
    "SELECT sum(amount) FROM sales",
    "SELECT sum(amount) FROM sales WHERE region = 'rio'",
    "SELECT sum(amount), count(*) FROM sales WHERE region IN ('ber', 'tok')",
    "SELECT region, sum(amount), count(*) FROM sales GROUP BY region",
    "SELECT sum(amount), avg(amount), var(amount) FROM sales WHERE day > 10",
    "SELECT sum(amount) FROM sales WHERE day >= 12 AND day < 40",
    "SELECT min(amount), max(amount), median(amount) FROM sales",
]
SCAN = "SELECT region, amount FROM sales WHERE region = 'lag'"


def _data(seed=3, n=N):
    rng = np.random.default_rng(seed)
    return {
        "region": rng.choice(REGIONS, n).tolist(),
        "day": rng.integers(0, 60, n),
        "amount": rng.integers(-50, 900, n),
    }


def _plan(session):
    session.create_plan(SCHEMA, SAMPLES)
    return session


@pytest.fixture(scope="module")
def store_path(tmp_path_factory):
    """One persisted single-store table every server and session shares."""
    root = tmp_path_factory.mktemp("remote-store")
    writer = _plan(SeabedSession(master_key=KEY, seed=1))
    writer.upload("sales", _data(), num_partitions=8, path=root / "sales")
    return writer.save_table("sales")


@pytest.fixture(scope="module")
def sharded_root(tmp_path_factory):
    """A persisted sharded table (4 shards) for scatter-gather hosting."""
    root = tmp_path_factory.mktemp("remote-sharded")
    config = ClusterConfig(storage_dir=str(root), append_partition_rows=128)
    writer = SeabedSession(master_key=KEY, seed=1, cluster=SimulatedCluster(config))
    _plan(writer)
    writer.shard_table("sales", "region", num_shards=4, replicas=1)
    writer.upload("sales", _data())
    path = writer.encrypted_table("sales").root
    writer.close()
    return path


def _spawn_server(tmp_path, *args, **popen_kwargs):
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    info = str(tmp_path / "info.json")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.net.service",
         "--grant", f"alice:{TOKEN}", "--info-file", info, *args],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        **popen_kwargs,
    )
    deadline = time.monotonic() + 60
    while not os.path.exists(info):
        if proc.poll() is not None or time.monotonic() > deadline:
            out = proc.stdout.read() if proc.stdout else ""
            proc.kill()
            raise RuntimeError(f"service process failed to start:\n{out}")
        time.sleep(0.05)
    with open(info) as fh:
        addr = json.load(fh)
    return proc, (addr["host"], addr["port"])


@pytest.fixture(scope="module")
def server(store_path, tmp_path_factory):
    proc, address = _spawn_server(
        tmp_path_factory.mktemp("srv"), "--store", store_path
    )
    yield address
    proc.terminate()
    proc.wait(timeout=15)


@pytest.fixture(scope="module")
def local(store_path):
    # readers restore the plan from the store's sidecar -- no create_plan
    session = SeabedSession(master_key=KEY, seed=1)
    session.open_table(store_path)
    return session


@pytest.fixture
def remote(server, store_path):
    session = repro.connect(server, TOKEN, master_key=KEY, seed=1)
    session.open_table(store_path)
    yield session
    session.close()


class TestBitIdentity:
    @pytest.mark.parametrize("query", QUERIES)
    def test_queries_bit_identical(self, local, remote, query):
        assert remote.query(query).rows == local.query(query).rows

    def test_one_connection_serves_a_sequence(self, local, remote):
        # Back-to-back requests on one connection, shapes repeating.
        for query in QUERIES[:4] + QUERIES[:2]:
            assert remote.query(query).rows == local.query(query).rows

    def test_scan_bit_identical(self, local, remote):
        assert remote.scan(SCAN).rows == local.scan(SCAN).rows

    def test_prepared_reuse_bit_identical(self, local, remote):
        sql = "SELECT sum(amount), count(*) FROM sales WHERE day > :cut"
        p_local, p_remote = local.prepare(sql), remote.prepare(sql)
        for cut in (0, 17, 45):
            assert p_remote.execute(cut=cut).rows == p_local.execute(cut=cut).rows

    def test_wire_time_accounted_remotely_only(self, local, remote):
        q = "SELECT sum(amount) FROM sales"
        assert local.query(q).wire_time == 0.0
        assert remote.query(q).wire_time > 0.0


class TestKeylessAcrossProcess:
    def test_server_process_holds_no_keys(self, remote):
        """The audit runs inside the *other* OS process over the RPC."""
        audit = remote.transport.audit_server()
        assert audit["ok"], audit["flagged"]
        assert audit["objects_walked"] > 50


class TestRemoteAppend:
    def test_append_commits_durably(self, store_path, tmp_path_factory):
        import shutil

        # appends mutate the store on disk: work on a private copy so the
        # bit-identity fixtures keep their snapshot
        store = str(tmp_path_factory.mktemp("append-copy") / "sales")
        shutil.copytree(store_path, store)
        store_path = store
        proc, address = _spawn_server(
            tmp_path_factory.mktemp("srv-append"), "--store", store_path,
        )
        try:
            session = repro.connect(address, TOKEN, master_key=KEY, seed=1)
            session.open_table(store_path)
            before = session.query("SELECT count(*) FROM sales").rows[0]["count(*)"]
            extra = _data(seed=11, n=90)
            stats = session.append_rows("sales", extra)
            assert stats.rows == 90
            after = session.query("SELECT count(*) FROM sales").rows[0]["count(*)"]
            assert after == before + 90
            session.close()
            # a second remote session sees the committed rows
            again = repro.connect(address, TOKEN, master_key=KEY, seed=1)
            again.open_table(store_path)
            assert again.query(
                "SELECT count(*) FROM sales"
            ).rows[0]["count(*)"] == before + 90
            again.close()
        finally:
            proc.terminate()
            proc.wait(timeout=15)


class TestRemoteSharded:
    def test_scatter_gather_bit_identical(self, sharded_root, tmp_path_factory):
        import shutil

        # the append below mutates the root it runs against; the local
        # reference fleet appends the same batch to its own copy
        copies = tmp_path_factory.mktemp("sharded-copies")
        served = shutil.copytree(sharded_root, str(copies / "served"))
        mirror = shutil.copytree(sharded_root, str(copies / "mirror"))
        proc, address = _spawn_server(
            tmp_path_factory.mktemp("srv-sharded"), "--sharded", served,
        )
        try:
            local = SeabedSession(master_key=KEY, seed=1)
            local.open_sharded(mirror)
            remote = repro.connect(address, TOKEN, master_key=KEY, seed=1)
            remote.open_sharded(served)
            for q in QUERIES:
                assert remote.query(q).rows == local.query(q).rows
            # the hosted fleet is keyless too
            audit = remote.transport.audit_server()
            assert audit["ok"], audit["flagged"]
            # a connected session writes to the hosted fleet like the
            # local session writes to its own: append, then compact
            extra = _data(seed=12, n=90)
            assert remote.append_rows("sales", extra).rows == 90
            local.append_rows("sales", extra)
            remote.compact_table("sales")
            local.compact_table("sales")
            want_rows = local.encrypted_table("sales").shard_rows()
            assert remote.encrypted_table("sales").shard_rows() == want_rows
            assert sum(want_rows.values()) == N + 90
            for q in QUERIES:
                assert remote.query(q).rows == local.query(q).rows
            assert remote.scan(SCAN).rows == local.scan(SCAN).rows
            audit = remote.transport.audit_server()
            assert audit["ok"], audit["flagged"]
            remote.close()
            # a second client attaches to the committed, compacted state
            again = repro.connect(address, TOKEN, master_key=KEY, seed=1)
            again.open_sharded(served)
            for q in QUERIES:
                assert again.query(q).rows == local.query(q).rows
            again.close()
            local.close()
        finally:
            proc.terminate()
            proc.wait(timeout=15)


class TestWorkerErrorsKeepTheirClass:
    """One envelope on both hops: a ``SeabedError`` raised inside a shard
    worker reaches the session as the same class whether it crossed the
    worker pipe alone or the pipe and then the service socket."""

    def test_mismatched_append_is_a_storage_error(self, placed):
        session = _plan(placed.new_session(master_key=KEY, seed=1))
        writer, _ = placed.persist(session, "sales", _data(), shard_key="region")
        handle = writer.encrypted_table("sales")
        shard = next(s for s, n in handle.shard_rows().items() if n > 0)
        bogus = Table("sales", [Partition(columns={"bogus": np.arange(4)}, start_id=0)])
        with pytest.raises(StorageError, match="do not match the store's"):
            writer.transport.append_batch("sales", shard, bogus, {"bogus": "plain"})
        # The worker that raised is still serving, and saw no new rows.
        assert sum(handle.shard_rows().values()) == N
        assert writer.query("SELECT count(*) FROM sales").rows[0]["count(*)"] == N

    def test_unexpected_worker_exception_is_a_transport_error(self, tmp_path):
        config = ClusterConfig(storage_dir=str(tmp_path))
        session = _plan(SeabedSession(
            master_key=KEY, seed=1, cluster=SimulatedCluster(config)))
        try:
            fleet = session.shard_table("sales", "region", num_shards=2).store
            with pytest.raises(TransportError, match="^TypeError: .*shard_id"):
                fleet.workers[0].call("rows", table="sales")  # missing argument
            assert fleet.workers[0].call("ping") == 0  # and it survived
        finally:
            session.close()


def _process_group(pgid):
    """Live (non-zombie) pids whose process group is ``pgid``."""
    pids = []
    for entry in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue  # exited while we looked
        if fields[0] != "Z" and int(fields[2]) == pgid:
            pids.append(int(entry))
    return pids


class TestServiceProcess:
    def test_sigterm_stops_the_shard_workers_too(self, sharded_root, tmp_path):
        """SIGTERM is how supervisors stop a service; it must take the
        fleet down with it exactly like SIGINT (workers used to survive,
        orphaned and holding the service's stdout)."""
        proc, _ = _spawn_server(
            tmp_path, "--sharded", sharded_root, start_new_session=True
        )
        pgid = proc.pid
        try:
            assert len(_process_group(pgid)) > 1  # the service and its workers
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=15)
            deadline = time.monotonic() + 15
            while _process_group(pgid) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert _process_group(pgid) == []
        finally:
            try:
                os.killpg(pgid, signal.SIGKILL)
            except ProcessLookupError:
                pass
