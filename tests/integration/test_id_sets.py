"""One ID set per row set, end to end.

An ASHE ID list is a property of the selected *row set*: the server
builds and encodes it once per partition, the reply carries it once per
(request, group), and the client decodes it once per ``decrypt`` call.
The gates here are counts, not timings -- the paper's Section 6.6
"AES operations" statistic -- so they repeat exactly; the differential
test checks the answers under every placement, before and after an
append + compaction.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.schema import ColumnSpec, TableSchema
from repro.core.session import SeabedSession
from repro.idlist import IdList
from repro.idlist import codec as idcodec
from repro.query import execute_plain, parse_query

MASTER_KEY = b"id-sets-tests-master-key-32-byte"
REGIONS = ["amer", "apac", "emea", "latam", "mea", "oce"]
MEASURES = ["m0", "m1", "m2", "m3"]
CITIES = ["nyc", "sea", "lon"]


def schema(shard_key=False):
    return TableSchema("t", [
        *(ColumnSpec(m, dtype="int", sensitive=True, nbits=32) for m in MEASURES),
        ColumnSpec("region", dtype="str", sensitive=True, distinct_values=REGIONS),
        ColumnSpec("user", dtype="int", sensitive=True),
        ColumnSpec("tier", dtype="int", sensitive=True),
        ColumnSpec("ts", dtype="int", sensitive=True, nbits=32),
        ColumnSpec("city", dtype="str", sensitive=shard_key),
    ])


SAMPLES = [
    "SELECT user, sum(m0), sum(m1), sum(m2), sum(m3), count(*) FROM t GROUP BY user",
    "SELECT region, sum(m0), count(*) FROM t GROUP BY region",
    "SELECT sum(m0), count(*) FROM t WHERE tier = 1",
    "SELECT sum(m0), count(*) FROM t WHERE ts >= 5 AND ts < 10",
    "SELECT city, count(*) FROM t GROUP BY city",
]


def dataset(n, seed=0):
    rng = np.random.default_rng(seed)
    return {
        **{m: rng.integers(-500, 1000, n) for m in MEASURES},
        "region": rng.choice(REGIONS, n),
        "user": rng.integers(0, 7, n),
        "tier": rng.integers(0, 3, n),
        "ts": rng.integers(0, 1000, n),
        "city": rng.choice(CITIES, n),
    }


def normalise(rows):
    return sorted(
        str({k: (round(v, 6) if isinstance(v, float) else v) for k, v in r.items()})
        for r in rows
    )


# -- deterministic gates ----------------------------------------------------


@pytest.fixture(scope="module")
def stored(tmp_path_factory):
    """A 32-partition stored table and a fresh session attached to it."""
    root = tmp_path_factory.mktemp("id-sets")
    writer = SeabedSession(mode="seabed", master_key=MASTER_KEY, seed=1)
    writer.create_plan(schema(), SAMPLES[:-1])
    writer.upload("t", dataset(3200), num_partitions=32, path=root / "t")
    path = writer.save_table("t")
    writer.close()
    session = SeabedSession(mode="seabed", master_key=MASTER_KEY)
    session.open_table(path)
    yield session
    session.close()


def prf_evals(session):
    """PRF evaluations so far, summed over the session's ASHE schemes."""
    return sum(k.prf_evals for k in session._entry("t").factory._ashe.values())


def ashe_columns(result):
    return [a.column for r in result.translation.requests for a in r.aggs]


class TestCountGates:
    def test_unfiltered_sums_cost_two_prf_evals_per_column(self, stored):
        before = prf_evals(stored)
        result = stored.query("SELECT sum(m0), sum(m1), count(*) FROM t")
        # 32 partition chunks coalesce into one run: F(end) - F(start - 1)
        # per ASHE column, and count(*) is read off the same decode.
        assert len(ashe_columns(result)) == 2
        assert prf_evals(stored) - before == 2 * 2

    def test_repeating_an_output_does_not_pad_twice(self, stored):
        before = prf_evals(stored)
        stored.query("SELECT sum(m0), avg(m0), count(*) FROM t")
        assert prf_evals(stored) - before == 2

    def test_splashe_group_by_costs_two_prf_evals_per_column_read(self, stored):
        before = prf_evals(stored)
        result = stored.query("SELECT region, sum(m0), count(*) FROM t GROUP BY region")
        assert len(result.rows) == len(REGIONS)
        columns = ashe_columns(result)  # d measure + d indicator columns
        assert len(columns) == len(set(columns)) == 2 * len(REGIONS)
        assert prf_evals(stored) - before == 2 * len(columns)

    def test_splashe_reply_carries_the_id_set_once(self, stored):
        single = stored.query("SELECT sum(m0) FROM t")
        splashe = stored.query("SELECT region, sum(m0), count(*) FROM t GROUP BY region")
        aggregates = len(ashe_columns(splashe))
        assert 0 <= splashe.result_bytes - single.result_bytes <= 8 * aggregates

    def test_a_scattered_half_ships_a_bitmap_per_partition(self, stored):
        """The chunk's container changes the reply's bytes and nothing
        else: the client pads the same runs of the same partitions."""
        ts = dataset(3200)["ts"]
        runs = IdList.from_mask((ts >= 250) & (ts < 750)).num_runs
        before = prf_evals(stored)
        result = stored.query("SELECT sum(m0), count(*) FROM t WHERE ts >= 250 AND ts < 750")
        # The parent commit's count for this query, 2 per run of the selection.
        assert prf_evals(stored) - before == 2 * runs == 1550
        # 100-row partitions: a bitmap of the partition plus header and sum
        # each (the run-coded chunks came to 1430 bytes).
        assert result.result_bytes <= 32 * (100 / 8 + 16)
        (job,) = result.request_metrics
        assert (job.partitions_total, job.partitions_skipped) == (32, 0)

    def test_each_id_set_is_decoded_once_per_decrypt(self, tmp_path, monkeypatch):
        session = SeabedSession(mode="seabed", master_key=MASTER_KEY, seed=1)
        session.create_plan(schema(), SAMPLES[:-1])
        session.upload("t", dataset(800), num_partitions=8)
        calls = []
        for name in ("decode", "decode_multiset"):
            original = getattr(idcodec, name)
            monkeypatch.setattr(
                idcodec, name,
                lambda data, original=original: calls.append(1) or original(data),
            )
        sql = "SELECT sum(m0), sum(m1), avg(m2), sum(m3), count(*) FROM t WHERE tier = 1"
        result = session.query(sql)
        assert len(ashe_columns(result)) == 4
        assert len(calls) == 8  # one chunk per partition, whatever the cells
        assert normalise(result.rows) == normalise(
            execute_plain({"t": dataset(800)}, parse_query(sql))
        )
        session.close()


# -- differential test --------------------------------------------------------

# ts is uniform on [0, 1000): a range's width is its selectivity in
# thousandths -- nothing, about one row, 1%, 5%, 12.5%, 50%, 87.5%, everything
# -- so the flat chunks take both containers (bitmap where scattered rows are
# dense enough, run-coded otherwise).
WIDTHS = [0, 1, 10, 50, 125, 500, 875, 1000]
RANGES = st.tuples(st.sampled_from(WIDTHS), st.integers(0, 1000)).map(
    lambda b: f"ts >= {min(b[1], 1000 - b[0])} AND ts < {min(b[1], 1000 - b[0]) + b[0]}"
)
TIERS = st.integers(0, 3).map(lambda v: f"tier = {v}")
FILTERS = st.one_of(
    st.none(), TIERS, RANGES,
    st.tuples(TIERS, RANGES).map(" AND ".join),  # DET and ORE masks and-ed
)


@st.composite
def queries(draw):
    measures = draw(st.lists(st.sampled_from(MEASURES), min_size=1, max_size=4, unique=True))
    cells = [
        f"{draw(st.sampled_from(['sum', 'avg']))}({m})" for m in measures
    ] + ["count(*)"] * draw(st.booleans())
    group = draw(st.sampled_from([None, "user", "region"]))
    if group == "region":  # SPLASHE: only m0 was splayed, and no filter
        cells = [c for c in cells if "(m0)" in c or c == "count(*)"] or ["sum(m0)"]
        return f"SELECT region, {', '.join(cells)} FROM t GROUP BY region"
    where = draw(FILTERS)
    sql = f"SELECT {'user, ' * (group == 'user')}{', '.join(cells)} FROM t"
    sql += f" WHERE {where}" * (where is not None) + " GROUP BY user" * (group == "user")
    return sql


def test_rows_equal_plaintext_under_every_placement(placed):
    session = placed.new_session(mode="seabed", master_key=MASTER_KEY, seed=2)
    session.create_plan(schema(shard_key=placed.sharded), SAMPLES)
    truth = dataset(900, seed=4)
    writer, _ = placed.persist(session, "t", truth, shard_key="city", num_partitions=6)

    @given(sql=queries())
    @settings(max_examples=30, deadline=None, derandomize=True,
              suppress_health_check=list(HealthCheck))
    def check(sql):
        got = writer.query(sql)
        assert normalise(got.rows) == normalise(execute_plain({"t": truth}, parse_query(sql)))

    def sweep():
        """Every selectivity through the flat path, alone and under a DET mask."""
        for width in WIDTHS:
            for lo in (0, (1000 - width) // 2, 1000 - width):
                for det in ("", "tier = 1 AND "):
                    sql = (f"SELECT sum(m0), sum(m1), count(*) FROM t "
                           f"WHERE {det}ts >= {lo} AND ts < {lo + width}")
                    assert normalise(writer.query(sql).rows) == normalise(
                        execute_plain({"t": truth}, parse_query(sql))
                    ), sql

    check()
    sweep()
    total = "SELECT sum(m0), sum(m1), count(*) FROM t"  # the ablation, every placement
    ablation = writer.prepare(total)
    ablation.translation.requests = [
        replace(r, compress_at="driver") for r in ablation.translation.requests
    ]
    assert normalise(ablation.execute().rows) == normalise(
        execute_plain({"t": truth}, parse_query(total))
    )
    # Append + compact: compacted partitions absorb several ID spans and
    # shards interleave, so chunks no longer arrive in ID order.
    for seed in (5, 6):
        batch = dataset(150, seed=seed)
        writer.append_rows("t", batch)
        truth = {k: np.concatenate([truth[k], batch[k]]) for k in truth}
    writer.compact_table("t")
    check()
    sweep()


# -- GROUP BY differential ----------------------------------------------------------

GROUP_DIMS = ["one", "user", "u512", "rid"]  # 1, 7, 512 groups; more than a partition's rows
CHANNELS = {"web": 500, "app": 300, "store": 20, "phone": 10, "mail": 5}
JOIN = "SELECT user, sum(w), sum(m0), count(*) FROM g JOIN b ON bk = key GROUP BY user"
GROUP_SAMPLES = [
    *(f"SELECT {dim}, sum(m0), sum(m1), min(qty), max(qty), count(*) FROM g GROUP BY {dim}"
      for dim in [*GROUP_DIMS, "city"]),
    "SELECT sum(m0) FROM g WHERE tier = 1",
    "SELECT sum(m0) FROM g WHERE ts >= 5 AND ts < 10",
    "SELECT channel, sum(m0), count(*) FROM g GROUP BY channel",
    JOIN,
]


def group_schemas():
    probe = TableSchema("g", [
        ColumnSpec("m0", dtype="int", sensitive=True, nbits=32),
        ColumnSpec("m1", dtype="int", sensitive=True, nbits=32),
        ColumnSpec("qty", dtype="int"),  # public: min / max run in the clear
        *(ColumnSpec(dim, dtype="int", sensitive=True) for dim in GROUP_DIMS),
        ColumnSpec("tier", dtype="int", sensitive=True),
        ColumnSpec("ts", dtype="int", sensitive=True, nbits=32),
        # SPLASHE enhanced: the infrequent values share a DET-grouped catch-all.
        ColumnSpec("channel", dtype="str", sensitive=True, value_counts=CHANNELS),
        ColumnSpec("city", dtype="str", sensitive=True),
        ColumnSpec("bk", dtype="int", sensitive=True),
    ])
    build = TableSchema("b", [
        ColumnSpec("key", dtype="int", sensitive=True),
        ColumnSpec("w", dtype="int", sensitive=True),
    ])
    return probe, build


def group_data(n, seed):
    rng = np.random.default_rng(seed)
    weights = np.array(list(CHANNELS.values()), dtype=float)
    return {
        "m0": rng.integers(-500, 1000, n),
        "m1": rng.integers(0, 1000, n),
        "qty": rng.integers(-50, 50, n),
        "one": np.zeros(n, dtype=np.int64),
        "user": rng.integers(0, 7, n),
        "u512": rng.permutation(np.arange(n) % 512),
        "rid": rng.integers(0, 10**6, n),
        "tier": rng.integers(0, 3, n),
        "ts": rng.integers(0, 1000, n),
        "channel": rng.choice(list(CHANNELS), n, p=weights / weights.sum()),
        "city": rng.choice(CITIES, n),
        "bk": rng.integers(0, 20, n),
    }


#: Every probe-side key twice or not at all: a joined row is summed (and
#: its ID padded) once per match, so ID segments become multisets.
BUILD_ROWS = {"key": np.repeat(np.arange(0, 20, 2), 2), "w": np.arange(1, 21)}


def group_cases():
    """Every group count under every filter -- none, DET, ORE, one that
    selects nothing -- with sum/avg/count/min/max mixes; the SPLASHE
    catch-all; groups living on one shard."""
    filters = ["", "WHERE tier = 1", "WHERE ts >= 250 AND ts < 750", "WHERE tier = 7"]
    mixes = ["sum(m0), count(*)", "avg(m1), sum(m0), min(qty)",
             "sum(m0), sum(m1), max(qty), count(*)", "min(qty), max(qty), avg(m0)"]
    cases = [
        f"SELECT {dim}, {mixes[i % len(mixes)]} FROM g {where} GROUP BY {dim}"
        for i, (dim, where) in enumerate(
            (dim, where) for dim in GROUP_DIMS for where in filters
        )
    ]
    return cases + [
        "SELECT channel, sum(m0), avg(m0), count(*) FROM g GROUP BY channel",
        # Sharded, every city's rows live on one shard: a group only one
        # shard's reply holds.
        "SELECT city, sum(m1), max(qty), count(*) FROM g GROUP BY city",
    ]


def check_group_cases(session, tables, join):
    for sql in group_cases() + ([JOIN] if join else []):
        got = session.query(sql)
        assert normalise(got.rows) == normalise(execute_plain(tables, parse_query(sql))), sql


def test_grouped_rows_equal_plaintext_under_every_placement(placed):
    probe, build = group_schemas()
    session = placed.new_session(mode="seabed", master_key=MASTER_KEY, seed=3)
    session.create_plan(probe, GROUP_SAMPLES)
    session.create_plan(build, GROUP_SAMPLES)
    truth = group_data(900, seed=8)
    writer, _ = placed.persist(session, "g", truth, shard_key="city", num_partitions=6)
    # Joins need the build side beside a single store (sharded joins are a
    # typed error).
    join = not placed.sharded
    if join:
        writer.upload("b", BUILD_ROWS, num_partitions=2)
    check_group_cases(writer, {"g": truth, "b": BUILD_ROWS}, join)
    # Two appends + a compaction: compacted partitions absorb several ID
    # spans, so a group's segments no longer arrive in ID order.
    for seed in (9, 10):
        batch = group_data(150, seed=seed)
        writer.append_rows("g", batch)
        truth = {k: np.concatenate([truth[k], batch[k]]) for k in truth}
    writer.compact_table("g")
    check_group_cases(writer, {"g": truth, "b": BUILD_ROWS}, join)
