"""The cryptographically honest PRF backend through the whole pipeline.

Most tests use the vectorised SplitMix64 stand-in; this suite runs the
complete plan/upload/query loop with ``prf_backend="blake2"`` (a real
keyed PRF) to guarantee the honest configuration is never broken by the
fast path's shortcuts, and checks backend choice is invisible in results.
"""

import numpy as np
import pytest

from repro.core.session import SeabedSession
from repro.core.schema import ColumnSpec, TableSchema
from repro.query import execute_plain, parse_query


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(21)
    n = 300
    return {
        "grp": rng.integers(0, 4, n),
        "amount": rng.integers(-100, 100, n),
    }


def build(backend, data):
    schema = TableSchema("t", [
        ColumnSpec("grp", dtype="int", sensitive=True),
        ColumnSpec("amount", dtype="int", sensitive=True, nbits=16),
    ])
    client = SeabedSession(master_key=b"h" * 32, mode="seabed",
                          prf_backend=backend, seed=9)
    client.create_plan(schema, [
        "SELECT grp, sum(amount) FROM t GROUP BY grp",
        "SELECT sum(amount) FROM t WHERE amount > 0",
    ])
    client.upload("t", data, num_partitions=3)
    return client


QUERIES = [
    "SELECT sum(amount), count(*) FROM t",
    "SELECT sum(amount) FROM t WHERE amount > 10",
    "SELECT grp, sum(amount), avg(amount) FROM t GROUP BY grp",
]


@pytest.mark.parametrize("sql", QUERIES)
def test_blake2_backend_matches_ground_truth(data, sql):
    client = build("blake2", data)
    want = execute_plain({"t": data}, parse_query(sql))
    got = client.query(sql)

    def norm(rows):
        return [
            {k: (round(v, 6) if isinstance(v, float) else v) for k, v in r.items()}
            for r in rows
        ]

    assert norm(got.rows) == norm(want)


def test_backends_agree_with_each_other(data):
    sql = "SELECT grp, sum(amount) FROM t GROUP BY grp"
    rows_by_backend = {
        backend: build(backend, data).query(sql).rows
        for backend in ("blake2", "splitmix64")
    }
    assert rows_by_backend["blake2"] == rows_by_backend["splitmix64"]


def test_backends_produce_different_ciphertexts(data):
    """Same key, different PRF backends: server-visible bytes differ."""
    a = build("blake2", data).server.table("t").column("amount__ashe")
    b = build("splitmix64", data).server.table("t").column("amount__ashe")
    assert not np.array_equal(a, b)
