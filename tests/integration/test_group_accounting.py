"""Accounting of the grouped path (paper Section 4.5, Figure 9a).

Figure 9a is computed from what a grouped query *moves*: the shuffle
volume, the reply's bytes, how many reduce tasks pull the shuffle and how
many PRF evaluations the client pays.  They are pinned here to exact
values -- fig9a's synthetic table (64 partitions) at 10 and 100 groups in
every mode, plus a 512-group table over 32 partitions.

A Seabed map task ships its partition's selected IDs as the flat path's
chunk plus one row-set code per ID, straight to the driver: ID lists do
not cross the shuffle, which moves a group key and one 8-byte sum per row
set -- exactly NoEnc's bytes -- and the reply carries one chunk and one
code column per partition.  Only the three Seabed byte columns moved when
that replaced the per-(group, partition) VB+Diff lists
(:data:`BEFORE_ID_PIECES`).  Every shuffle and reply byte count then fell
by one byte per row set when group keys lost their one-byte suffix
(:data:`BEFORE_SUFFIX`).  The reduce-task counts and the PRF evaluations
are what they were.
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

#: (mode, groups, partitions, rows) -> (shuffle bytes, result bytes, reply
#: payload bytes, group-reduce tasks, PRF evaluations).
EXPECTED = {
    ("seabed", 10, 64, 6000): (10240, 6926, 6926, 10, 6001),
    ("seabed", 100, 64, 6000): (63360, 8366, 8366, 100, 6001),
    ("plain", 10, 64, 6000): (10240, 160, 160, 10, 0),
    ("plain", 100, 64, 6000): (63360, 1600, 1600, 100, 0),
    ("paillier", 10, 64, 6000): (87030, 1360, 1360, 10, 0),
    ("paillier", 100, 64, 6000): (538495, 13599, 13599, 100, 0),
    ("seabed", 512, 32, 40000): (238640, 88625, 88625, 100, 40001),
    ("plain", 512, 32, 40000): (238640, 8192, 8192, 100, 0),
}

#: The Seabed rows' (shuffle, result, reply payload) bytes while every
#: (group, partition) ID list was a VB+Diff segment shuffled to the
#: reducers.  The rest of each row is unchanged.
BEFORE_ID_PIECES = {
    ("seabed", 10, 64, 6000): (18140, 7430, 7430),
    ("seabed", 100, 64, 6000): (81148, 15528, 15528),
    ("seabed", 512, 32, 40000): (348721, 103870, 103870),
}

#: Every row's (shuffle, result, reply payload) bytes while each row set
#: carried a one-byte suffix beside its 8-byte key: NoEnc's shuffle was
#: 17 bytes per row set (key, suffix, sum).  The rest of each row is
#: unchanged.
BEFORE_SUFFIX = {
    ("seabed", 10, 64, 6000): (10880, 6936, 6936),
    ("seabed", 100, 64, 6000): (67320, 8466, 8466),
    ("plain", 10, 64, 6000): (10880, 170, 170),
    ("plain", 100, 64, 6000): (67320, 1700, 1700),
    ("paillier", 10, 64, 6000): (87670, 1370, 1370),
    ("paillier", 100, 64, 6000): (542455, 13699, 13699),
    ("seabed", 512, 32, 40000): (253555, 89137, 89137),
    ("plain", 512, 32, 40000): (253555, 8704, 8704),
}


def measure(mode, groups, partitions, rows, monkeypatch):
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
    result = session.query(SQL)
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
    (mode, groups, 64, 6_000)
    for mode in ("seabed", "plain", "paillier")
    for groups in (10, 100)
] + [(mode, 512, 32, 40_000) for mode in ("seabed", "plain")]


@pytest.mark.parametrize("case", CASES, ids=lambda c: "-".join(map(str, c)))
def test_grouped_accounting_is_unchanged(case, monkeypatch):
    assert measure(*case, monkeypatch) == EXPECTED[case]


def test_only_the_seabed_byte_columns_moved():
    """Every Seabed byte column fell, the client still pays one
    ``pad_range`` over each dense selection (rows + 1 PRF evaluations),
    and the shuffle and its reduce tasks are NoEnc's."""
    for case, before in BEFORE_ID_PIECES.items():
        now, plain = EXPECTED[case], EXPECTED[("plain", *case[1:])]
        assert all(n < b for n, b in zip(now[:3], before))
        assert now[4] == case[3] + 1
        assert (now[0], now[3]) == (plain[0], plain[3])


def test_each_row_set_lost_exactly_its_suffix_byte():
    """The shuffle fell by one byte per map-side row set (NoEnc's old 17
    bytes each: 640, 3,960 and 14,915), the reply by one per group."""
    shuffled = {}
    for case, before in BEFORE_SUFFIX.items():
        shuffled[case] = BEFORE_SUFFIX[("plain", *case[1:])][0] // 17
        groups = case[1]
        assert EXPECTED[case][:3] == (before[0] - shuffled[case],
                                      before[1] - groups, before[2] - groups)
    assert sorted(set(shuffled.values())) == [640, 3960, 14915]
