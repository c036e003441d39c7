#!/usr/bin/env python3
"""The advertising-analytics workload (paper Section 6.6, Figure 10).

Plans the 33-dimension / 18-measure schema under a storage budget (the
planner splays low-cardinality sensitive dimensions first), replays a
slice of the production-style query log over all three systems (NoEnc /
Seabed / Paillier), and prints the response-time comparison plus the
SPLASHE storage report.

Run:  python examples/ad_analytics.py
"""

from repro.core.session import SeabedSession
from repro.engine.store import disk_bytes
from repro.workloads import adanalytics

ROWS = 30_000
dataset = adanalytics.generate(rows=ROWS, seed=0)
samples = adanalytics.sample_queries(dataset)
queries = adanalytics.figure10a_queries(seed=1)

clients = {}
for mode in ("plain", "seabed", "paillier"):
    # The blinding pool accelerates baseline *setup* only (documented
    # insecure); server-side Paillier costs are unchanged.
    client = SeabedSession(mode=mode, paillier_bits=1024, seed=2,
                          paillier_blinding_pool=64)
    report = client.create_plan(dataset.schema, samples, storage_budget=10.0)
    client.upload("ad_analytics", dataset.columns, num_partitions=8)
    clients[mode] = client
    if mode == "seabed":
        print("SPLASHE decisions under a 10x storage budget "
              "(lowest-cardinality dimensions first):")
        for d in report.splashe_decisions:
            print(f"  {d.column:8s} card={d.cardinality:5d} -> {d.chosen:13s} "
                  f"k={d.k} overhead={d.overhead_factor:.1f}x")

print(f"\nReplaying {len(queries)} production-style queries "
      f"(sum by hour, 1-12 groups) over {ROWS:,} rows:\n")
print(f"{'groups':>7}  {'NoEnc (ms)':>11}  {'Seabed (ms)':>12}  "
      f"{'Paillier (ms)':>14}  {'Seabed/NoEnc':>13}")
for q in queries[:9]:
    times = {}
    for mode, client in clients.items():
        result = client.query(q.sql)
        times[mode] = client.cluster.model(result.request_metrics).total_s * 1e3
    ratio = times["seabed"] / times["plain"] if times["plain"] else float("inf")
    print(f"{q.num_groups:>7}  {times['plain']:>11.1f}  {times['seabed']:>12.1f}  "
          f"{times['paillier']:>14.1f}  {ratio:>12.2f}x")

print("\nEncrypted storage footprint (server-visible bytes at rest):")
for mode, client in clients.items():
    size = disk_bytes(client.save_table("ad_analytics"))
    print(f"  {mode:8s}: {size / 1e6:8.1f} MB")
