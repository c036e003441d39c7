"""Upload / attach round trips through the whole stack.

The store a table's first upload creates must re-open in a fresh
session (same master key, possibly another process) and answer
queries *identically* to the uploading session, with zero
re-encryption -- the paper's upload-once deployment model.  The
round trips and the attach guards take the table's placement (one store,
a local worker fleet, a fleet behind a service) as one more input.
"""

import gc
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.core.persistence import SHARDED_SIDECAR_NAME, SIDECAR_NAME
from repro.core.schema import ColumnSpec, TableSchema
from repro.core.session import SeabedSession
from repro.crypto.ashe import AsheScheme
from repro.crypto.keys import KeyChain
from repro.crypto.paillier import PaillierKeyPair
from repro.crypto.prf import AesNiCtrPrf
from repro.engine.cluster import ClusterConfig, SimulatedCluster
from repro.errors import StorageError
from repro.ops import OPS

COUNTRIES = ["us", "ca", "in", "uk"]
MASTER_KEY = b"integration-master-key-32-bytes!"

GROUPED = "SELECT country, sum(amount), count(*) FROM sales GROUP BY country"
FLAT = "SELECT sum(amount), min(amount), max(amount) FROM sales WHERE year = 2015"
# country is SPLASHE-planned under these samples, so the scan projects
# the ASHE measure and the plain year only.
SCAN = "SELECT amount, year FROM sales WHERE amount > 900"

SAMPLES = [
    GROUPED,
    FLAT,
    "SELECT min(amount), max(amount) FROM sales",
]


def dataset(n=600, seed=5, shard_key=False):
    """``shard_key`` leaves ``country``'s domain undeclared, so it is
    DET-planned: the column a sharded placement routes rows by."""
    rng = np.random.default_rng(seed)
    data = {
        "country": rng.choice(COUNTRIES, n),
        "amount": rng.integers(0, 1000, n),
        "year": rng.integers(2014, 2017, n),
    }
    schema = TableSchema("sales", [
        ColumnSpec("country", dtype="str", sensitive=True,
                   distinct_values=None if shard_key else COUNTRIES),
        ColumnSpec("amount", dtype="int", sensitive=True, nbits=32),
        ColumnSpec("year", dtype="int", sensitive=False),
    ])
    return schema, data


def build_session(mode="seabed", cluster=None, path=None, **kwargs):
    schema, data = dataset()
    session = SeabedSession(
        mode=mode, master_key=MASTER_KEY, cluster=cluster, seed=3, **kwargs
    )
    session.create_plan(schema, SAMPLES)
    session.upload("sales", data, num_partitions=5, path=path)
    return session


def persist(placed, mode="seabed", **kwargs):
    """``(reference, path)``: a session holding the table at its default
    path, and the path the same table was persisted at under ``placed``."""
    schema, data = dataset(shard_key=placed.sharded)
    reference = SeabedSession(mode=mode, master_key=MASTER_KEY, seed=3, **kwargs)
    reference.create_plan(schema, SAMPLES)
    reference.upload("sales", data, num_partitions=5)
    builder = placed.new_session(mode=mode, master_key=MASTER_KEY, seed=3, **kwargs)
    builder.create_plan(schema, SAMPLES)
    _, path = placed.persist(
        builder, "sales", data, shard_key="country", num_partitions=5
    )
    return reference, path


def sidecar_of(placed, path):
    return os.path.join(
        path, SHARDED_SIDECAR_NAME if placed.sharded else SIDECAR_NAME
    )


def rows_of(session, sql, **kwargs):
    return sorted(map(str, session.query(sql, **kwargs).rows))


class TestRoundTrip:
    def test_identical_results_zero_reencryption(self, placed):
        reference, path = persist(placed)
        expected_grouped = rows_of(reference, GROUPED)
        expected_flat = rows_of(reference, FLAT)

        before = OPS.snapshot()
        fresh = placed.attach(path, mode="seabed", master_key=MASTER_KEY)
        assert rows_of(fresh, GROUPED) == expected_grouped
        assert rows_of(fresh, FLAT) == expected_flat
        delta = OPS.delta(before)
        assert not any(op.startswith("encrypt") for op in delta), delta
        handle = fresh.encrypted_table("sales")
        assert handle.num_rows == 600
        assert handle.store_path == handle.root == os.path.abspath(path)
        assert sum(handle.shard_rows().values()) == 600

    def test_bit_for_bit_after_fresh_attach(self, tmp_path):
        writer = build_session(path=tmp_path / "sales")
        expected = {
            GROUPED: rows_of(writer, GROUPED),
            FLAT: rows_of(writer, FLAT),
        }
        expected_scan = sorted(map(str, writer.scan(SCAN).rows))
        path = writer.save_table("sales")

        fresh = SeabedSession(mode="seabed", master_key=MASTER_KEY)
        fresh.open_table(path)
        for sql, rows in expected.items():
            assert rows_of(fresh, sql) == rows
        assert sorted(map(str, fresh.scan(SCAN).rows)) == expected_scan

    def test_prepared_queries_on_attached_table(self, placed):
        writer, path = persist(placed)
        fresh = placed.attach(path, mode="seabed", master_key=MASTER_KEY)
        prepared = fresh.prepare(
            "SELECT sum(amount) FROM sales WHERE year BETWEEN :lo AND :hi"
        )
        for lo, hi in [(2014, 2014), (2015, 2016)]:
            got = prepared.execute(lo=lo, hi=hi).rows
            want = writer.query(
                f"SELECT sum(amount) FROM sales WHERE year BETWEEN {lo} AND {hi}"
            ).rows
            assert got == want

    def test_incremental_upload_after_attach(self, tmp_path):
        writer = build_session(path=tmp_path / "sales")
        path = writer.save_table("sales")
        fresh = SeabedSession(mode="seabed", master_key=MASTER_KEY)
        fresh.open_table(path)
        _, data = dataset(n=100, seed=11)
        fresh.upload("sales", data, num_partitions=2)
        got = fresh.query("SELECT count(*) FROM sales").rows[0]["count(*)"]
        assert got == 700  # 600 mapped from disk + 100 in a second generation

    @pytest.mark.parametrize("column", [
        "amount__ashe", "amount@country@1__ashe", "country@2__ind",
    ])
    def test_default_session_stores_aes_ctr_ashe(self, tmp_path, column):
        """A default session encrypts every ASHE column -- the measure, a
        SPLASHE measure split and a 32-bit indicator -- over AES-CTR under
        the column's subkey: the stored ciphertexts are exactly what a
        bare ``AsheScheme(AesNiCtrPrf(key), bits)`` makes of the same rows."""
        writer = build_session(path=tmp_path / "sales")
        data = dataset()[1]
        plain, bits = {
            "amount__ashe": (data["amount"], 64),
            "amount@country@1__ashe": (
                np.where(data["country"] == COUNTRIES[1], data["amount"], 0), 64),
            "country@2__ind": ((data["country"] == COUNTRIES[2]).astype(np.int64), 32),
        }[column]
        key = KeyChain(MASTER_KEY).column_key("sales", column, "ashe")
        scheme = AsheScheme(AesNiCtrPrf(key), bits)
        offset = 0
        for part in writer.server.table("sales").partitions:
            stored = np.asarray(part.columns[column])
            rows = plain[offset : offset + stored.size]
            assert stored.dtype == scheme.dtype
            assert stored.tolist() == scheme.encrypt_column(rows, part.start_id).tolist()
            offset += stored.size
        assert offset == plain.size

    def test_attach_keeps_other_tables_translation_cache(self, tmp_path):
        writer = build_session(path=tmp_path / "sales")
        sales_path = writer.save_table("sales")

        helper = SeabedSession(mode="seabed", master_key=MASTER_KEY, seed=3)
        extras_schema = TableSchema("extras", [
            ColumnSpec("v", dtype="int", sensitive=True, nbits=16),
        ])
        helper.create_plan(extras_schema, ["SELECT sum(v) FROM extras"])
        helper.upload(
            "extras", {"v": np.arange(50)}, num_partitions=2,
            path=tmp_path / "extras",
        )
        extras_path = helper.save_table("extras")

        fresh = SeabedSession(mode="seabed", master_key=MASTER_KEY)
        fresh.open_table(sales_path)
        fresh.query(FLAT)
        fresh.query(FLAT)
        hits_before = fresh.cache_stats()["hits"]
        assert hits_before >= 1
        # Attaching another store must not evict the hot template.
        fresh.open_table(extras_path)
        fresh.query(FLAT)
        assert fresh.cache_stats()["hits"] == hits_before + 1

    def test_storage_dir_resolution(self, tmp_path):
        cluster = SimulatedCluster(
            ClusterConfig(storage_dir=os.fspath(tmp_path / "bucket"))
        )
        writer = build_session(cluster=cluster)
        path = writer.save_table("sales")
        assert path == os.path.abspath(tmp_path / "bucket" / "sales")
        fresh = SeabedSession(
            mode="seabed", master_key=MASTER_KEY,
            cluster=SimulatedCluster(
                ClusterConfig(storage_dir=os.fspath(tmp_path / "bucket"))
            ),
        )
        handle = fresh.open_table("sales")
        assert handle.name == "sales"


def file_bytes(root):
    """Every file under ``root``, relative path -> contents."""
    found = {}
    for directory, _, files in os.walk(root):
        for name in files:
            full = os.path.join(directory, name)
            with open(full, "rb") as fh:
                found[os.path.relpath(full, root)] = fh.read()
    return found


class TestIntrospection:
    def test_stats_generations_and_index_rebuild_per_shard(self, placed):
        """A sharded handle is introspected shard by shard -- ``{shard:
        ...}``, as ``compact`` answers -- in process and through the
        service; a single store answers for its one store."""
        reference, path = persist(placed)
        fresh = placed.attach(path, mode="seabed", master_key=MASTER_KEY)
        handle = fresh.encrypted_table("sales")
        stats, generations = handle.stats(), handle.generations
        if placed.sharded:
            rows = handle.shard_rows()
            assert set(stats) == set(generations) == set(rows)
            assert {s: st["rows"] for s, st in stats.items()} == rows
            assert {s: sum(g["num_rows"] for g in gens)
                    for s, gens in generations.items()} == rows
            summaries = list(stats.values())
        else:
            assert stats["rows"] == sum(g["num_rows"] for g in generations) == 600
            summaries = [stats]
        shape = set(reference.encrypted_table("sales").stats())
        assert all(set(summary) == shape for summary in summaries)
        assert handle.rebuild_index() == stats
        assert rows_of(fresh, FLAT) == rows_of(reference, FLAT)
        assert rows_of(fresh, GROUPED) == rows_of(reference, GROUPED)


class TestCreate:
    @pytest.mark.parametrize("held", ["store", "sidecar"])
    def test_first_upload_into_a_held_path_is_refused_untouched(self, tmp_path, held):
        """A path holding a store, or only the sidecar of a table whose
        first upload died, is never appended into nor replaced."""
        path = build_session(path=tmp_path / "sales").save_table("sales")
        if held == "sidecar":
            for entry in os.listdir(path):
                if entry != SIDECAR_NAME:
                    target = os.path.join(path, entry)
                    os.remove(target) if os.path.isfile(target) else shutil.rmtree(target)
        before = file_bytes(path)

        other = SeabedSession(mode="seabed", master_key=MASTER_KEY, seed=4)
        schema, data = dataset(seed=6, shard_key=True)
        other.create_plan(schema, SAMPLES)
        with pytest.raises(StorageError, match="already holds a store"):
            other.upload("sales", data, path=path)
        with pytest.raises(StorageError, match="already holds a store"):
            other.shard_table("sales", "country", path)
        assert file_bytes(path) == before
        assert other.encrypted_table("sales").topology is None

    def test_path_is_named_at_the_first_upload_only(self, tmp_path):
        writer = build_session(path=tmp_path / "sales")
        with pytest.raises(StorageError, match="first upload"):
            writer.upload("sales", dataset(n=10)[1], path=tmp_path / "other")
        assert not os.path.exists(tmp_path / "other")

    @pytest.mark.parametrize("closed", [True, False])
    def test_scratch_root_removed(self, closed):
        """Without a storage_dir a table lives under the transport's own
        scratch root, gone after close() -- or, unclosed, once the
        session is collected."""
        session = build_session()
        root = os.path.dirname(session.save_table("sales"))
        assert os.path.basename(root).startswith("seabed-")
        assert os.path.isdir(root)
        if closed:
            session.close()
        else:
            del session
            gc.collect()
        assert not os.path.exists(root)

    def test_storage_dir_survives_close(self, tmp_path):
        cluster = SimulatedCluster(ClusterConfig(storage_dir=os.fspath(tmp_path)))
        session = build_session(cluster=cluster)
        path = session.save_table("sales")
        session.close()
        assert os.path.exists(os.path.join(path, SIDECAR_NAME))


class TestClose:
    def test_close_releases_maps_and_descriptors(self, tmp_path):
        """Every column file of an opened store costs a descriptor (its
        memory map); closing the session that saved or attached the store
        must give them all back, or a process that cycles through stores
        runs out.  Each round also compacts, so maps of generations the
        compaction retired must come back too.

        Only descriptors on files under ``tmp_path`` are counted: the
        process holds thousands of others by this point of a full run,
        and a thread or finaliser that earlier tests left behind may open
        or close some of them while this loop runs."""
        root = os.path.realpath(tmp_path)

        def open_fds():
            count = 0
            for fd in os.listdir("/proc/self/fd"):
                try:
                    target = os.readlink(f"/proc/self/fd/{fd}")
                except FileNotFoundError:
                    continue  # closed since the listing
                count += target.startswith(root + os.sep)
            return count

        writer = build_session(path=tmp_path / "sales")
        path = writer.save_table("sales")
        writer.close()
        before = open_fds()
        for round_ in range(5):
            session = SeabedSession(mode="seabed", master_key=MASTER_KEY)
            session.open_table(path)
            for seed in (20 + 2 * round_, 21 + 2 * round_):
                session.append_rows("sales", dataset(n=50, seed=seed)[1])
            assert session.query(FLAT).rows
            assert session.compact_table("sales") is not None
            assert session.query(FLAT).rows
            assert open_fds() > before
            session.close()
            assert open_fds() == before


class TestPaillierMode:
    def test_round_trip_with_shared_keys(self, tmp_path):
        keys = PaillierKeyPair.generate(bits=256, seed=9)
        writer = build_session(
            mode="paillier", paillier_keys=keys, path=tmp_path / "sales"
        )
        expected = rows_of(writer, "SELECT sum(amount), count(*) FROM sales")
        path = writer.save_table("sales")

        fresh = SeabedSession(
            mode="paillier", master_key=MASTER_KEY, paillier_keys=keys, seed=3
        )
        fresh.open_table(path)
        assert rows_of(fresh, "SELECT sum(amount), count(*) FROM sales") == expected

    def test_different_keys_rejected(self, tmp_path):
        writer = build_session(
            mode="paillier", paillier_keys=PaillierKeyPair.generate(bits=256, seed=9),
            path=tmp_path / "sales",
        )
        path = writer.save_table("sales")
        other = SeabedSession(
            mode="paillier", master_key=MASTER_KEY,
            paillier_keys=PaillierKeyPair.generate(bits=256, seed=10),
        )
        with pytest.raises(StorageError, match="Paillier key pair"):
            other.open_table(path)


class TestAttachGuards:
    def test_wrong_master_key(self, placed):
        _, path = persist(placed)
        with pytest.raises(StorageError, match="key-check"):
            placed.attach(
                path, mode="seabed", master_key=b"another-master-key-of-32-bytes!!"
            )

    def test_mode_mismatch(self, placed):
        _, path = persist(placed)
        with pytest.raises(StorageError, match="mode"):
            placed.attach(path, mode="plain", master_key=MASTER_KEY)

    def test_duplicate_registration(self, placed):
        _, path = persist(placed)
        attached = placed.attach(path, mode="seabed", master_key=MASTER_KEY)
        with pytest.raises(StorageError, match="already registered"):
            attached.open_table(path)

    def test_missing_sidecar(self, placed):
        _, path = persist(placed)
        os.remove(sidecar_of(placed, path))
        with pytest.raises(StorageError, match="sidecar"):
            placed.attach(path, mode="seabed", master_key=MASTER_KEY)

    @pytest.mark.parametrize("version,written_with", [
        (1, "splitmix64"), (1, "blake2"), (1, "aes-ni"), (2, None),
    ], ids=["splitmix64", "blake2", "aes-ni", "v2"])
    def test_version_1_sidecar_refused_untouched(self, placed, version, written_with):
        """A version-1 sidecar may describe ciphertexts under a PRF this
        build no longer runs, and a version-2 one DET and ORE ciphertexts
        under the SplitMix64 round functions; the key check cannot tell.
        Attaching any of them, an AES one too (there is no reader for
        either version), is a typed error naming both versions that leaves
        the sidecar's bytes as they were."""
        _, path = persist(placed)
        sidecar = sidecar_of(placed, path)
        data = json.load(open(sidecar))
        data["version"] = version
        if written_with:
            data["prf_backend"] = written_with
        json.dump(data, open(sidecar, "w"))
        before = open(sidecar, "rb").read()
        with pytest.raises(StorageError,
                           match=rf"version {version} is not readable .*\(expected 3\)"):
            placed.attach(path, mode="seabed", master_key=MASTER_KEY)
        assert open(sidecar, "rb").read() == before

    def test_stale_store_row_count(self, placed):
        """A sidecar that commits rows the store does not hold."""
        _, path = persist(placed)
        if placed.remote:
            placed.service.stop()  # the tampered root gets hosted afresh
        data = json.load(open(sidecar_of(placed, path)))
        if placed.sharded:
            data["sharding"]["shards"]["0"]["num_rows"] += 1
        else:
            data["num_rows"] = 599
        json.dump(data, open(sidecar_of(placed, path), "w"))
        with pytest.raises(StorageError, match="stale or corrupt"):
            if placed.remote:
                repro.serve(sharded=[path])
            else:
                placed.attach(path, mode="seabed", master_key=MASTER_KEY)


class TestCrossProcess:
    def test_attach_store_written_by_another_process(self, tmp_path):
        """A store written by a separate interpreter attaches cleanly."""
        store_dir = tmp_path / "proc-store"
        script = f"""
import numpy as np
from repro.core.schema import ColumnSpec, TableSchema
from repro.core.session import SeabedSession

rng = np.random.default_rng(5)
n = 600
data = {{
    "country": rng.choice({COUNTRIES!r}, n),
    "amount": rng.integers(0, 1000, n),
    "year": rng.integers(2014, 2017, n),
}}
schema = TableSchema("sales", [
    ColumnSpec("country", dtype="str", sensitive=True,
               distinct_values={COUNTRIES!r}),
    ColumnSpec("amount", dtype="int", sensitive=True, nbits=32),
    ColumnSpec("year", dtype="int", sensitive=False),
])
session = SeabedSession(mode="seabed", master_key={MASTER_KEY!r}, seed=3)
session.create_plan(schema, {SAMPLES!r})
session.upload("sales", data, num_partitions=5, path={os.fspath(store_dir)!r})
print(session.save_table("sales"))
"""
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        path = proc.stdout.strip().splitlines()[-1]

        session = SeabedSession(mode="seabed", master_key=MASTER_KEY)
        session.open_table(path)
        local = build_session()
        assert rows_of(session, GROUPED) == rows_of(local, GROUPED)
