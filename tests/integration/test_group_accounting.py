"""Accounting of the grouped path (paper Section 4.5, Figure 9a).

Figure 9a and the group-inflation ablation are computed from what a
grouped query *moves*: the shuffle volume, the reply's bytes, how many
reduce tasks pull the shuffle and how many PRF evaluations the client
pays.  They are pinned here to exact values -- fig9a's synthetic table
(64 partitions) at 10 and 100 groups with inflation off and on, in every
mode, plus a 512-group table over 32 partitions.

A Seabed map task ships its partition's selected IDs as the flat path's
chunk plus one row-set code per ID, straight to the driver: ID lists no
longer cross the shuffle, which moves a (key, suffix) and one 8-byte sum
per row set -- exactly NoEnc's bytes without inflation -- and the reply
carries one chunk and one code column per partition.  Only the three
Seabed byte columns moved when that replaced the per-(group, partition)
VB+Diff lists (:data:`BEFORE_ID_PIECES`); NoEnc and Paillier rows, the
reduce-task counts and the PRF evaluations are what they were.
"""

import operator

import pytest

from repro.core import server as srv
from repro.core.schema import ColumnSpec, TableSchema
from repro.core.session import SeabedSession
from repro.engine.cluster import ClusterConfig, SimulatedCluster
from repro.query import execute_plain, parse_query
from repro.workloads import synthetic

SQL = "SELECT grp, sum(value) FROM synth GROUP BY grp"
SCHEMA = TableSchema("synth", [
    ColumnSpec("value", dtype="int", sensitive=True, nbits=32),
    ColumnSpec("grp", dtype="int", sensitive=True),
])

#: (mode, groups, partitions, rows, inflation hint) -> (shuffle bytes,
#: result bytes, reply payload bytes, group-reduce tasks, PRF evaluations).
EXPECTED = {
    ("seabed", 10, 64, 6000, False): (10880, 6936, 6936, 10, 6001),
    ("seabed", 10, 64, 6000, True): (68459, 8466, 8466, 100, 6001),
    ("seabed", 100, 64, 6000, False): (67320, 8466, 8466, 100, 6001),
    ("seabed", 100, 64, 6000, True): (67320, 8466, 8466, 100, 6001),
    ("plain", 10, 64, 6000, False): (10880, 170, 170, 10, 0),
    ("plain", 10, 64, 6000, True): (10880, 170, 170, 10, 0),
    ("plain", 100, 64, 6000, False): (67320, 1700, 1700, 100, 0),
    ("plain", 100, 64, 6000, True): (67320, 1700, 1700, 100, 0),
    ("paillier", 10, 64, 6000, False): (87670, 1370, 1370, 10, 0),
    ("paillier", 10, 64, 6000, True): (87670, 1370, 1370, 10, 0),
    ("paillier", 100, 64, 6000, False): (542455, 13699, 13699, 100, 0),
    ("paillier", 100, 64, 6000, True): (542455, 13699, 13699, 100, 0),
    ("seabed", 512, 32, 40000, False): (253555, 89137, 89137, 100, 40001),
    ("plain", 512, 32, 40000, False): (253555, 8704, 8704, 100, 0),
}

#: The Seabed rows' (shuffle, result, reply payload) bytes while every
#: (group, partition) ID list was a VB+Diff segment shuffled to the
#: reducers.  The rest of each row is unchanged.
BEFORE_ID_PIECES = {
    ("seabed", 10, 64, 6000, False): (18140, 7430, 7430),
    ("seabed", 10, 64, 6000, True): (82422, 15663, 15663),
    ("seabed", 100, 64, 6000, False): (81148, 15528, 15528),
    ("seabed", 100, 64, 6000, True): (81148, 15528, 15528),
    ("seabed", 512, 32, 40000, False): (348721, 103870, 103870),
}


def measure(mode, groups, partitions, rows, inflate, monkeypatch):
    cluster = SimulatedCluster(ClusterConfig(cores=100))
    session = SeabedSession(mode=mode, cluster=cluster, paillier_bits=512,
                            paillier_blinding_pool=32, seed=1)
    data = synthetic.generate(rows, seed=4, num_groups=groups)
    session.create_plan(SCHEMA, [SQL, "SELECT sum(value) FROM synth WHERE grp = 1"])
    session.upload("synth", data.columns, num_partitions=partitions)
    replies = []
    execute = srv.SeabedServer.execute
    monkeypatch.setattr(srv.SeabedServer, "execute",
                        lambda self, q: replies.append(execute(self, q)) or replies[-1])
    kernels = session._entry("synth").factory._ashe
    before = sum(k.prf_evals for k in kernels.values())
    result = session.query(SQL, expected_groups=groups if inflate else None)
    prf = sum(k.prf_evals for k in kernels.values()) - before
    session.close()
    want = execute_plain({"synth": data.columns}, parse_query(SQL))
    by_group = operator.itemgetter("grp")
    assert sorted(result.rows, key=by_group) == sorted(want, key=by_group)
    (job,) = result.request_metrics
    (reply,) = replies
    return (job.shuffle_bytes, job.result_bytes, reply.payload_bytes,
            job.stage("group-reduce").num_tasks, prf)


CASES = [
    (mode, groups, 64, 6_000, inflate)
    for mode in ("seabed", "plain", "paillier")
    for groups in (10, 100)
    for inflate in (False, True)
] + [(mode, 512, 32, 40_000, False) for mode in ("seabed", "plain")]


@pytest.mark.parametrize("case", CASES, ids=lambda c: "-".join(map(str, c)))
def test_grouped_accounting_is_unchanged(case, monkeypatch):
    assert measure(*case, monkeypatch) == EXPECTED[case]


def test_only_the_seabed_byte_columns_moved():
    """Every Seabed byte column fell, the client still pays one
    ``pad_range`` over each dense selection (rows + 1 PRF evaluations),
    and without inflation the shuffle and its reduce tasks are NoEnc's."""
    for case, before in BEFORE_ID_PIECES.items():
        now, plain = EXPECTED[case], EXPECTED[("plain", *case[1:])]
        assert all(n < b for n, b in zip(now[:3], before))
        assert now[4] == case[3] + 1
        if not case[4]:
            assert (now[0], now[3]) == (plain[0], plain[3])
