#!/usr/bin/env python3
"""Range analytics with order-revealing encryption (paper Appendix A.3).

A time-series of sensor readings is encrypted so the server can answer
time-window sums, min/max and median without learning values -- it sees
only the CLWW ORE leakage: pairwise order plus the index of the first
differing bit.

Run:  python examples/ore_range_queries.py [--persist DIR]
"""

import argparse
import os

import numpy as np

from repro.core.session import SeabedSession
from repro.core.schema import ColumnSpec, TableSchema
from repro.crypto.ore import OreScheme

parser = argparse.ArgumentParser(description="ORE range analytics")
parser.add_argument(
    "--persist", metavar="DIR", default=None,
    help="store the sensor table at DIR/sensor (it must not hold a store "
         "yet) and re-attach it from a fresh client",
)
args = parser.parse_args()

MASTER_KEY = b"ore-demo-master-key-32-bytes-ok!"

rng = np.random.default_rng(12)
N = 40_000
data = {
    "ts": np.arange(N, dtype=np.int64),  # seconds since epoch start
    "reading": (1000 + 200 * np.sin(np.arange(N) / 500)
                + rng.normal(0, 40, N)).astype(np.int64),
}
schema = TableSchema("sensor", [
    ColumnSpec("ts", dtype="int", sensitive=True, nbits=32),
    ColumnSpec("reading", dtype="int", sensitive=True, nbits=32),
])
client = SeabedSession(mode="seabed", master_key=MASTER_KEY)
client.create_plan(schema, [
    "SELECT sum(reading) FROM sensor WHERE ts BETWEEN 0 AND 10",
    "SELECT min(reading), max(reading), median(reading) FROM sensor",
    "SELECT avg(reading) FROM sensor WHERE reading > 100",
])
client.upload(
    "sensor", data, num_partitions=8,
    path=args.persist and os.path.join(args.persist, "sensor"),
)

print("Window aggregates over ORE-filtered ranges:")
for lo, hi in [(0, 4999), (10_000, 19_999), (30_000, 39_999)]:
    r = client.query(
        f"SELECT avg(reading), count(*) FROM sensor WHERE ts BETWEEN {lo} AND {hi}"
    )
    row = r.rows[0]
    print(f"  ts in [{lo:>6}, {hi:>6}]: avg={row['avg(reading)']:8.1f} "
          f"n={row['count(*)']:,}  (executed {r.real_time*1e3:.0f} ms)")

r = client.query("SELECT min(reading), max(reading), median(reading) FROM sensor")
print(f"\nExtremes via server-side ORE tournament/quickselect: {r.rows[0]}")

r = client.query("SELECT count(*) FROM sensor WHERE reading > 1150")
print(f"Readings above 1150: {r.rows[0]['count(*)']:,}")

# -- what the server actually learns ------------------------------------------------
ore = OreScheme(b"demo-key-32-bytes-demo-key-32-by", nbits=16)
a, b = ore.encrypt_one(1234), ore.encrypt_one(1250)
print("\nORE leakage profile (CLWW):")
print(f"  Compare(Enc(1234), Enc(1250)) -> {ore.compare_words(a, b)} "
      "(order is public)")
print(f"  first differing bit index     -> {ore.first_diff_index(a, b)} "
      "(and nothing below it)")

if args.persist:
    from repro.workloads.persist import persist_round_trip

    sql = "SELECT min(reading), max(reading) FROM sensor"
    expected = client.query(sql).rows
    fresh, handle = persist_round_trip(client, "sensor", MASTER_KEY)
    reopened = fresh.query(sql).rows
    assert expected == reopened, (expected, reopened)
    print(f"\nstored at {handle.store_path}; fresh session answers "
          "identically (ORE trit words memory-mapped, zero re-encryption)")
