"""Accounting parity of the grouped path (paper Section 4.5, Figure 9a).

Figure 9a and the group-inflation ablation are computed from what a
grouped query *moves*: the shuffle volume, the reply's bytes, how many
reduce tasks pull the shuffle and how many PRF evaluations the client
pays.  These counts depend on the ID lists' bytes and on the key set,
not on how the server holds the row sets in memory, so they are pinned
here to exact values -- fig9a's synthetic table (64 partitions) at 10
and 100 groups with inflation off and on, in every mode, plus a
512-group table over 32 partitions.
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
#: result bytes, reply payload bytes, group-reduce tasks, PRF evaluations),
#: recorded while every (group, partition) chunk was still its own
#: ``bytes`` object: holding row sets as columns must not move any of them.
EXPECTED = {
    ("seabed", 10, 64, 6000, False): (18140, 7430, 7430, 10, 6001),
    ("seabed", 10, 64, 6000, True): (82422, 15663, 15663, 100, 6001),
    ("seabed", 100, 64, 6000, False): (81148, 15528, 15528, 100, 6001),
    ("seabed", 100, 64, 6000, True): (81148, 15528, 15528, 100, 6001),
    ("plain", 10, 64, 6000, False): (10880, 170, 170, 10, 0),
    ("plain", 10, 64, 6000, True): (10880, 170, 170, 10, 0),
    ("plain", 100, 64, 6000, False): (67320, 1700, 1700, 100, 0),
    ("plain", 100, 64, 6000, True): (67320, 1700, 1700, 100, 0),
    ("paillier", 10, 64, 6000, False): (87670, 1370, 1370, 10, 0),
    ("paillier", 10, 64, 6000, True): (87670, 1370, 1370, 10, 0),
    ("paillier", 100, 64, 6000, False): (542455, 13699, 13699, 100, 0),
    ("paillier", 100, 64, 6000, True): (542455, 13699, 13699, 100, 0),
    ("seabed", 512, 32, 40000, False): (348721, 103870, 103870, 100, 40001),
    ("plain", 512, 32, 40000, False): (253555, 8704, 8704, 100, 0),
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

