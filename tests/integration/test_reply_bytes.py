"""Reply bytes are a property of the row sets, not of the reply's form.

Every aggregation reply is one :class:`~repro.core.grouped.GroupedRows`;
a request without GROUP BY is the case with at most one row set, whose
key and codes are implied and never ship.  The bytes a reply accounts
for -- ``ServerResponse.payload_bytes`` and the job's ``result_bytes`` --
are pinned here per query and placement (one store, a 2-shard fleet in
process, the same fleet behind a service): an unfiltered and a filtered
ASHE sum, SPLASHE flat and grouped, a duplicate-key join (a multiset
chunk), ORE min/max and median, NoEnc and Paillier aggregates, and GROUP
BY at 1, 255 and 256 groups (the uint8 / uint16 code boundary).

Run as a script (``PYTHONPATH=src python tests/integration/test_reply_bytes.py``)
to print the measured table.
"""

import numpy as np
import pytest

import repro
from repro.core.grouped import GroupedRows
from repro.core.schema import ColumnSpec, TableSchema
from repro.core.session import SeabedSession

KEY = b"reply-bytes-tests-master-key-32b"
REGIONS = ["amer", "apac", "emea", "latam", "mea", "oce"]
CITIES = ["ber", "del", "lag", "lim", "osl", "rio", "sfo", "tok"]
PLACEMENTS = ["single-store", "sharded-local", "sharded-remote"]
MODES = ["seabed", "plain", "paillier"]

SCHEMA = TableSchema("t", [
    ColumnSpec("amount", dtype="int", sensitive=True, nbits=32),
    ColumnSpec("day", dtype="int", sensitive=True, nbits=16),
    ColumnSpec("region", dtype="str", sensitive=True, distinct_values=REGIONS),
    ColumnSpec("g1", dtype="int", sensitive=True),
    ColumnSpec("g255", dtype="int", sensitive=True),
    ColumnSpec("g256", dtype="int", sensitive=True),
    ColumnSpec("city", dtype="str", sensitive=True),
])

QUERIES = {
    "ashe-sum": "SELECT sum(amount), count(*) FROM t",
    "ashe-sum-filtered": "SELECT sum(amount) FROM t WHERE day >= 5 AND day < 40",
    "splashe-flat": "SELECT sum(amount) FROM t WHERE region = 'emea'",
    "splashe-grouped": "SELECT region, sum(amount), count(*) FROM t GROUP BY region",
    "ore-min-max": "SELECT min(amount), max(amount) FROM t",
    "ore-median": "SELECT median(amount) FROM t",
    "group-1": "SELECT g1, sum(amount), count(*) FROM t GROUP BY g1",
    "group-255": "SELECT g255, sum(amount) FROM t GROUP BY g255",
    "group-256": "SELECT g256, sum(amount) FROM t GROUP BY g256",
}
SAMPLES = [*QUERIES.values(), "SELECT city, count(*) FROM t GROUP BY city"]

#: Per mode, the queries it answers (NoEnc and Paillier: their aggregates).
MODE_QUERIES = {
    "seabed": list(QUERIES),
    "plain": ["ashe-sum", "ore-min-max", "ore-median", "group-255"],
    "paillier": ["ashe-sum", "ashe-sum-filtered", "group-256"],
}

JOIN_SQL = ("SELECT sum(adRevenue), sum(pageRank), count(*) FROM uservisits "
            "JOIN rankings ON destURL = pageURL WHERE visitDate < 100")


def batch(seed, n=1024):
    rng = np.random.default_rng(seed)
    return {
        "amount": rng.integers(-500, 1000, n),
        "day": rng.integers(0, 60, n),
        "region": rng.choice(REGIONS, n),
        "g1": np.zeros(n, dtype=np.int64),
        "g255": rng.permutation(np.arange(n) % 255),
        "g256": rng.permutation(np.arange(n) % 256),
        "city": rng.choice(CITIES, n),
    }


def join_tables():
    """``rankings`` lists ten URLs twice: those visits join two build rows,
    so the build side's IDs travel as a multiset chunk."""
    rng = np.random.default_rng(11)
    urls = [f"url{i}" for i in range(40)]
    pages = np.array(urls + urls[:10], dtype=object)
    rankings = {"pageURL": pages, "pageRank": rng.integers(1, 100, pages.size)}
    uservisits = {
        "destURL": rng.choice(urls, 300),
        "adRevenue": rng.integers(1, 500, 300),
        "visitDate": rng.integers(0, 365, 300),
    }
    schemas = (
        TableSchema("rankings", [
            ColumnSpec("pageURL", dtype="str", sensitive=True),
            ColumnSpec("pageRank", dtype="int", sensitive=True, nbits=16),
        ]),
        TableSchema("uservisits", [
            ColumnSpec("destURL", dtype="str", sensitive=True),
            ColumnSpec("adRevenue", dtype="int", sensitive=True),
            ColumnSpec("visitDate", dtype="int", sensitive=True, nbits=16),
        ]),
    )
    return (rankings, uservisits), schemas


class Deployment:
    """One mode's table under one placement, plus what its replies weigh."""

    def __init__(self, placement, mode, root):
        self.closers = []
        kwargs = dict(mode=mode, master_key=KEY, seed=7, paillier_bits=256)
        writer = SeabedSession(**kwargs)
        writer.create_plan(SCHEMA, SAMPLES)
        if placement == "single-store":
            writer.upload("t", batch(1), num_partitions=4, path=root / "t")
        else:
            writer.shard_table("t", "city", str(root / "t"), num_shards=2)
            writer.upload("t", batch(1))
        writer.upload("t", batch(2))
        self.session = writer
        if placement == "sharded-remote":
            path = writer.encrypted_table("t").root
            writer.close()
            service = repro.serve(sharded=[path], auth_required=False)
            self.closers.append(service.stop)
            self.session = repro.connect(service.address, **kwargs)
            self.session.open_sharded(path)
        self.closers.append(self.session.close)
        self.replies = []
        execute = self.session.transport.execute

        def recorded(request, **options):
            response = execute(request, **options)
            self.replies.append(response)
            return response

        self.session.transport.execute = recorded

    def measure(self, sql):
        """``(payload_bytes per reply, result_bytes)`` of one query."""
        self.replies.clear()
        result = self.session.query(sql)
        return [r.payload_bytes for r in self.replies], result.result_bytes

    def close(self):
        for close in reversed(self.closers):
            close()


def join_bytes():
    (rankings, uservisits), (r_schema, v_schema) = join_tables()
    session = SeabedSession(master_key=KEY, seed=5)
    session.create_plan(v_schema, [JOIN_SQL])
    session.create_plan(r_schema, [JOIN_SQL])
    session.upload("rankings", rankings, num_partitions=2)
    session.upload("uservisits", uservisits, num_partitions=4)
    replies = []
    execute = session.transport.execute
    session.transport.execute = lambda r, **o: replies.append(execute(r, **o)) or replies[-1]
    result = session.query(JOIN_SQL)
    session.close()
    return [r.payload_bytes for r in replies], result.result_bytes, replies


#: ``(placement, mode, query) -> (payload_bytes per reply, result_bytes)``,
#: measured on the two-form replies (wire v8) the one form replaced.
PINNED = {
    ('single-store', 'seabed', 'ashe-sum'): ([72], 72),
    ('single-store', 'seabed', 'ashe-sum-filtered'): ([288], 288),
    ('single-store', 'seabed', 'splashe-flat'): ([72], 72),
    ('single-store', 'seabed', 'splashe-grouped'): ([160], 160),
    ('single-store', 'seabed', 'ore-min-max'): ([48], 48),
    ('single-store', 'seabed', 'ore-median'): ([16], 16),
    ('single-store', 'seabed', 'group-1'): ([2128], 2128),
    ('single-store', 'seabed', 'group-255'): ([6192], 6192),
    ('single-store', 'seabed', 'group-256'): ([8256], 8256),
    ('single-store', 'plain', 'ashe-sum'): ([16], 16),
    ('single-store', 'plain', 'ore-min-max'): ([16], 16),
    ('single-store', 'plain', 'ore-median'): ([8], 8),
    ('single-store', 'plain', 'group-255'): ([4080], 4080),
    ('single-store', 'paillier', 'ashe-sum'): ([72], 72),
    ('single-store', 'paillier', 'ashe-sum-filtered'): ([64], 64),
    ('single-store', 'paillier', 'group-256'): ([18428], 18428),
    ('sharded-local', 'seabed', 'ashe-sum'): ([64], 64),
    ('sharded-local', 'seabed', 'ashe-sum-filtered'): ([295], 295),
    ('sharded-local', 'seabed', 'splashe-flat'): ([64], 64),
    ('sharded-local', 'seabed', 'splashe-grouped'): ([152], 152),
    ('sharded-local', 'seabed', 'ore-min-max'): ([48], 48),
    ('sharded-local', 'seabed', 'ore-median'): ([16], 16),
    ('sharded-local', 'seabed', 'group-1'): ([2120], 2120),
    ('sharded-local', 'seabed', 'group-255'): ([6184], 6184),
    ('sharded-local', 'seabed', 'group-256'): ([8248], 8248),
    ('sharded-local', 'paillier', 'ashe-sum'): ([72], 72),
    ('sharded-local', 'paillier', 'ashe-sum-filtered'): ([64], 64),
    ('sharded-local', 'paillier', 'group-256'): ([18431], 18431),
    ('sharded-remote', 'seabed', 'ashe-sum'): ([64], 64),
    ('sharded-remote', 'seabed', 'ashe-sum-filtered'): ([295], 295),
    ('sharded-remote', 'seabed', 'splashe-flat'): ([64], 64),
    ('sharded-remote', 'seabed', 'splashe-grouped'): ([152], 152),
    ('sharded-remote', 'seabed', 'ore-min-max'): ([48], 48),
    ('sharded-remote', 'seabed', 'ore-median'): ([16], 16),
    ('sharded-remote', 'seabed', 'group-1'): ([2120], 2120),
    ('sharded-remote', 'seabed', 'group-255'): ([6184], 6184),
    ('sharded-remote', 'seabed', 'group-256'): ([8248], 8248),
    ('sharded-remote', 'paillier', 'ashe-sum'): ([72], 72),
    ('sharded-remote', 'paillier', 'ashe-sum-filtered'): ([64], 64),
    ('sharded-remote', 'paillier', 'group-256'): ([18431], 18431),
    ('single-store', 'seabed', 'join-duplicate-keys'): ([273], 273),
}


def measure_all(root):
    """Every pinned query's bytes, plus its replies."""
    out = {}
    for placement in PLACEMENTS:
        for mode in MODES:
            if mode == "plain" and placement != "single-store":
                continue  # NoEnc has no DET column to shard by
            deployment = Deployment(placement, mode, root / f"{placement}-{mode}")
            try:
                for label in MODE_QUERIES[mode]:
                    payload, result = deployment.measure(QUERIES[label])
                    out[placement, mode, label] = payload, result, list(deployment.replies)
            finally:
                deployment.close()
    out["single-store", "seabed", "join-duplicate-keys"] = join_bytes()
    return out


@pytest.fixture(scope="module")
def measured(tmp_path_factory):
    return measure_all(tmp_path_factory.mktemp("reply-bytes"))


@pytest.mark.parametrize("case", list(PINNED), ids="/".join)
def test_reply_bytes_are_pinned(measured, case):
    payload, result, _ = measured[case]
    assert (payload, result) == PINNED[case]


def test_every_aggregation_reply_is_row_sets(measured):
    """One form: a GroupedRows per reply; a flat request's holds its one
    row set with implied key and codes, a GROUP BY's keys and codes."""
    for (_, _, label), (_, _, replies) in measured.items():
        for reply in replies:
            rows = reply.groups
            assert isinstance(rows, GroupedRows)
            pieces = [p for ps in rows.ids.values() for p in ps]
            if rows.keys is None:
                assert not label.startswith("group-") and len(rows) <= 1
                assert all(p.codes is None for p in pieces)
            else:  # a GROUP BY on a DET key (SPLASHE: its catch-all request)
                assert "group" in label and rows.keys.size == len(rows) > 0
                assert all(p.codes is not None for p in pieces)
            assert not rows.side or label.startswith("ore-")


if __name__ == "__main__":
    import tempfile
    from pathlib import Path

    for key, (payload, result, _) in measure_all(Path(tempfile.mkdtemp())).items():
        print(f"    {key!r}: {(payload, result)!r},")
