#!/usr/bin/env python3
"""The AmpLab Big Data Benchmark over Seabed (paper Section 6.7).

Runs all four BDB query families over encrypted data, with the paper's
simplifications: Q2 matches deterministically encrypted sourceIP prefixes
(client pre-processing), Q4's external-script phase stays plaintext (a
flatMap + reduceByKey on the simulated cluster, ``bdb.count_links``) and
only its phase-2 aggregation is encrypted.

Run:  python examples/big_data_benchmark.py
"""

import numpy as np

from repro.core.session import SeabedSession
from repro.core.schema import ColumnSpec, TableSchema
from repro.workloads import bdb

data = bdb.generate(num_rankings=2_000, num_uservisits=20_000, seed=0)
client = SeabedSession(mode="seabed")
client.create_plan(data.uservisits_schema, bdb.sample_queries())
client.create_plan(data.rankings_schema, bdb.sample_queries())
client.upload("rankings", data.rankings, num_partitions=4)
client.upload("uservisits", data.uservisits, num_partitions=8)


def server_ms(result):
    """Modelled server time on the configured cluster, from measurements."""
    return client.cluster.model(result.request_metrics).server_s * 1e3


print("=== Q1: scan (filter rankings by pageRank, OPE comparison) ===")
for variant in ("A", "B", "C"):
    threshold = bdb.Q1_THRESHOLDS[variant]
    result = client.scan(
        f"SELECT pageURL, pageRank FROM rankings WHERE pageRank > {threshold}"
    )
    print(f"  Q1{variant} (pageRank > {threshold}): {len(result.rows):,} rows, "
          f"server {server_ms(result):.0f} ms")

print("\n=== Q2: aggregation (revenue by encrypted sourceIP prefix) ===")
for variant in ("A", "B", "C"):
    result = client.query(bdb.query_q2(variant))
    print(f"  Q2{variant} (prefix {bdb.Q2_PREFIXES[variant]}): "
          f"{len(result.rows):,} groups, server {server_ms(result):.0f} ms")

print("\n=== Q3: join (uservisits x rankings, date-filtered, per-IP) ===")
for variant in ("A", "B", "C"):
    result = client.query(bdb.query_q3(variant))
    top = sorted(result.rows, key=lambda r: -r["sum(adRevenue)"])[:3]
    print(f"  Q3{variant}: {len(result.rows):,} source IPs, "
          f"server {server_ms(result):.0f} ms; top revenue "
          f"{[r['sourceIP'] for r in top]}")

print("\n=== Q4: external script (plaintext phase 1) + encrypted phase 2 ===")
docs = bdb.generate_crawl_documents(500, data.rankings["pageURL"], seed=1)
link_counts, _ = bdb.count_links(client.cluster, docs, num_partitions=4)
print(f"  phase 1 (plaintext flatMap + reduceByKey on the cluster): "
      f"{len(link_counts):,} distinct link targets")

urls = list(link_counts)
counts = np.array(list(link_counts.values()), dtype=np.int64)
phase2_schema = TableSchema("linkcounts", [
    ColumnSpec("target", dtype="str", sensitive=True,
               distinct_values=sorted(set(urls))),
    ColumnSpec("hits", dtype="int", sensitive=True),
])
client.create_plan(phase2_schema, [
    "SELECT sum(hits) FROM linkcounts WHERE target = 'x'",
])
client.upload("linkcounts", {"target": np.array(urls, dtype=object),
                             "hits": counts}, num_partitions=2)
result = client.query("SELECT sum(hits), count(*) FROM linkcounts")
print(f"  phase 2 (encrypted aggregation): total hits "
      f"{result.rows[0]['sum(hits)']:,} across {result.rows[0]['count(*)']:,} "
      f"targets, server {server_ms(result):.0f} ms")
