"""The four benchmark workloads: seeded data, op sequences, expected answers.

Everything here derives from ``--seed``; the program under test receives
only the generated columns and SQL strings.  The *structure* of each
workload is fixed -- row counts, rows per user, predicate selectivities,
op mix and order -- and the seed only permutes values and picks which
users / ranges the literals name, so two seeds do the same amount of
work and their timings are comparable.

One schema serves all four workloads (one planner outcome, one storage
shape): ``user`` and ``tier`` are DET, ``region`` is basic SPLASHE,
``ts`` is ORE, ``amount`` is ASHE with an ORE companion for min/max.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.schema import ColumnSpec, TableSchema
from repro.query import execute_plain, parse_query

TABLE = "events"
MASTER_KEY = b"perf-benchmark-master-key-32byte"
REGIONS = ["us", "eu", "apac", "latam", "mea", "anz"]
TIERS = 8
USERS = 512
PARTITIONS = 32
SMOKE_ROWS = 4_096  # --smoke: thousands of rows, 4 partitions

SAMPLES = [
    f"SELECT sum(amount), count(*) FROM {TABLE} WHERE user = 1",
    f"SELECT user, sum(amount), count(*) FROM {TABLE} GROUP BY user",
    f"SELECT sum(amount), count(*) FROM {TABLE} WHERE ts >= 5 AND ts < 10",
    f"SELECT region, sum(amount), count(*) FROM {TABLE} GROUP BY region",
    f"SELECT sum(amount), count(*) FROM {TABLE} WHERE tier = 1",
    f"SELECT min(amount), max(amount) FROM {TABLE} WHERE user = 1",
]


def schema() -> TableSchema:
    return TableSchema(TABLE, [
        ColumnSpec("user", dtype="int", sensitive=True),
        ColumnSpec("tier", dtype="int", sensitive=True),
        ColumnSpec("region", dtype="str", sensitive=True,
                   distinct_values=REGIONS),
        ColumnSpec("ts", dtype="int", sensitive=True, nbits=32),
        ColumnSpec("amount", dtype="int", sensitive=True, nbits=32),
    ])


@dataclass(frozen=True)
class Spec:
    """Fixed shape of one workload (sizes are for the 2-core reference host)."""

    name: str
    why: str
    deployment: str  # "local" | "remote" | "sharded"
    rows: int
    clients: int
    by_user: bool = False  # rows sorted by user, so zone maps prune
    shards: int = 0
    append_rows: int = 0  # ingest-mixed: rows per appended batch
    cycles: int = 0  # ingest-mixed: appends per round


SPECS = {
    s.name: s
    for s in (
        Spec(
            name="scan-local",
            why="Full scans, 50% ORE range, 512-group and SPLASHE group-bys "
                "in-process: row work in crypto/engine/server/decryptor "
                "dominates and net/shard do nothing.",
            deployment="local", rows=307_200, clients=1,
        ),
        Spec(
            name="point-remote",
            why="Zone-map-pruned point, narrow-range and min/max queries from "
                "2 clients over the TCP service: fixed per-query Python is "
                "the latency and kernels do almost nothing.",
            deployment="remote", rows=204_800, clients=2, by_user=True,
        ),
        Spec(
            name="scatter-sharded",
            why="Grouped scatter, ring-routed points and unrouteable range "
                "scatters over 2 shard-worker processes behind the service: "
                "loads shard.coordinator, engine.transport and shard.worker.",
            deployment="sharded", rows=163_840, clients=2, shards=2,
        ),
        Spec(
            name="ingest-mixed",
            why="Durable 5,120-row appends beside reads with periodic "
                "compaction: a read gain bought with write cost, fsyncs or "
                "space shows up here.",
            deployment="local", rows=204_800, clients=1,
            append_rows=5_120, cycles=4,
        ),
    )
}


@dataclass
class Op:
    action: str  # "query" | "append" | "compact"
    label: str
    sql: str = ""
    batch: dict | None = None
    expected: list | None = None  # canonical rows, filled by fill_expected


@dataclass
class Workload:
    spec: Spec
    rows: int
    partitions: int
    columns: dict[str, np.ndarray]
    #: blocks[b][client] is the op list client runs in block b.  A round
    #: replays every block once per side, Seabed and NoEnc alternating.
    blocks: list[list[list[Op]]] = field(default_factory=list)

    def ops(self) -> list[Op]:
        return [op for block in self.blocks for ops in block for op in ops]


def _py(value):
    return value.item() if isinstance(value, np.generic) else value


def canonical(rows) -> list:
    """Order- and dtype-insensitive form of a result for comparison."""
    return sorted(
        (tuple(sorted((k, _py(v)) for k, v in row.items())) for row in rows),
        key=repr,
    )


def _columns(rng: np.random.Generator, n: int, ts_base: int = 0,
             by_user: bool = False) -> dict[str, np.ndarray]:
    """``n`` rows with exactly even user/tier/region populations."""
    user = np.arange(n, dtype=np.int64) % USERS
    if by_user:
        # Contiguous user blocks and ts rising with row position: point
        # and narrow-range predicates each hit one or two partitions.
        user = np.sort(user)
        ts = np.arange(n, dtype=np.int64)
    else:
        user = rng.permutation(user)
        ts = rng.permutation(n).astype(np.int64)
    return {
        "user": user,
        "tier": rng.permutation(np.arange(n, dtype=np.int64) % TIERS),
        "region": np.array(REGIONS, dtype=object)[
            rng.permutation(np.arange(n) % len(REGIONS))
        ],
        "ts": ts + ts_base,
        "amount": rng.integers(0, 10_000, n).astype(np.int64),
    }


def _point(u: int) -> Op:
    return Op("query", "det-point",
              f"SELECT sum(amount), count(*) FROM {TABLE} WHERE user = {u}")


def _range(label: str, lo: int, hi: int) -> Op:
    return Op("query", label,
              f"SELECT sum(amount), count(*) FROM {TABLE} "
              f"WHERE ts >= {lo} AND ts < {hi}")


_FULL = f"SELECT sum(amount), count(*) FROM {TABLE}"
_GROUP_USER = f"SELECT user, sum(amount), count(*) FROM {TABLE} GROUP BY user"
_GROUP_REGION = (
    f"SELECT region, sum(amount), count(*) FROM {TABLE} GROUP BY region"
)


def _scan_local(rng, spec: Spec, n: int) -> list:
    blocks = []
    for _ in range(4):
        lo = int(rng.integers(0, n // 2))
        blocks.append([[
            Op("query", "full-agg", _FULL),
            _range("ore-range-50", lo, lo + n // 2),
            Op("query", "group-user", _GROUP_USER),
            Op("query", "det-filter",
               f"SELECT sum(amount), count(*) FROM {TABLE} "
               f"WHERE tier = {int(rng.integers(0, TIERS))}"),
            Op("query", "splashe-group", _GROUP_REGION),
        ]])
    return blocks


def _point_remote(rng, spec: Spec, n: int, repeats: int) -> list:
    per_user = n // USERS
    blocks = []
    for _ in range(2):
        per_client = []
        for _client in range(spec.clients):
            ops = []
            for _ in range(repeats):
                u = int(rng.integers(0, USERS))
                lo = int(rng.integers(0, n - per_user))
                ops += [
                    _point(u),
                    _range("ore-narrow", lo, lo + per_user // 2),
                    Op("query", "det-and-ore",
                       f"SELECT sum(amount), count(*) FROM {TABLE} "
                       f"WHERE user = {u} AND ts < {u * per_user + per_user // 2}"),
                    Op("query", "minmax-user",
                       f"SELECT min(amount), max(amount) FROM {TABLE} "
                       f"WHERE user = {u}"),
                ]
            per_client.append(ops)
        blocks.append(per_client)
    return blocks


def _scatter_sharded(rng, spec: Spec, n: int, repeats: int) -> list:
    blocks = []
    for _ in range(2):
        per_client = []
        for _client in range(spec.clients):
            ops = [Op("query", "group-user", _GROUP_USER)]
            for _ in range(repeats):
                lo = int(rng.integers(0, n - n // 50))
                ops += [
                    _point(int(rng.integers(0, USERS))),
                    _point(int(rng.integers(0, USERS))),
                    _range("ore-scatter", lo, lo + n // 50),
                ]
            per_client.append(ops)
        blocks.append(per_client)
    return blocks


def _ingest_mixed(rng, spec: Spec, n: int, batch_rows: int) -> list:
    """One block: ``cycles`` x (append, then twice: full aggregate, DET
    point, ORE range inside the batch just written), then a compaction."""
    ops: list[Op] = []
    for c in range(spec.cycles):
        base = n + c * batch_rows
        ops.append(Op("append", "append",
                      batch=_columns(rng, batch_rows, ts_base=base)))
        for half in (0, batch_rows // 2):
            ops += [
                Op("query", "full-agg", _FULL),
                _point(int(rng.integers(0, USERS))),
                _range("ore-new-batch", base + half, base + half + batch_rows // 2),
            ]
    ops.append(Op("compact", "compact"))
    return [[ops]]


def build(spec: Spec, seed: int, smoke: bool = False) -> Workload:
    index = list(SPECS).index(spec.name)
    rng = np.random.default_rng([seed, index])
    n = SMOKE_ROWS if smoke else spec.rows
    columns = _columns(rng, n, by_user=spec.by_user)
    if spec.name == "scan-local":
        blocks = _scan_local(rng, spec, n)
    elif spec.name == "point-remote":
        blocks = _point_remote(rng, spec, n, repeats=3 if smoke else 25)
    elif spec.name == "scatter-sharded":
        blocks = _scatter_sharded(rng, spec, n, repeats=2 if smoke else 6)
    else:
        batch_rows = max(spec.append_rows * n // spec.rows, 1)
        blocks = _ingest_mixed(rng, spec, n, batch_rows)
    workload = Workload(
        spec=spec, rows=n, partitions=4 if smoke else PARTITIONS,
        columns=columns, blocks=blocks,
    )
    fill_expected(workload)
    return workload


def fill_expected(workload: Workload) -> None:
    """Answer every query with ``execute_plain`` over the plaintext
    columns as they stand when the op runs (appends advance them)."""
    current = workload.columns
    answers: dict[str, list] = {}
    for op in workload.ops():
        if op.action == "append":
            current = {
                name: np.concatenate([current[name], op.batch[name]])
                for name in current
            }
            answers = {}
        elif op.action == "query":
            if op.sql not in answers:
                answers[op.sql] = canonical(
                    execute_plain({TABLE: current}, parse_query(op.sql))
                )
            op.expected = answers[op.sql]
