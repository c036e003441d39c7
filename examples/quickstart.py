#!/usr/bin/env python3
"""Quickstart: encrypted analytics over a sales table with the session API.

Demonstrates the full Seabed loop from the paper's Figure 5:

1. describe the plaintext schema (what is sensitive, what the domains are),
2. let the planner pick encryption schemes from sample queries,
3. upload data (the session encrypts; the server sees only ciphertexts),
4. query three ways, all in SQL text -- literal SQL strings (translation
   cached by shape), ``:name`` placeholders bound by ``query(**params)``,
   and a PreparedQuery that translates once and re-binds parameters on
   every execute.

Run:  python examples/quickstart.py [--persist DIR] [--append]

The upload writes the encrypted table to a partition store: at
``DIR/sales`` with ``--persist DIR`` (DIR/sales must not hold a store
yet), else under the session's scratch root, removed when the script
ends.  ``--persist`` also runs the rest of the deployment loop: attach
the store from a fresh session (same master key, zero re-encryption),
and check the reopened table answers identically.

With ``--append`` it then runs the ingestion lifecycle on that store:
stream fresh batches in with ``append_rows`` (each encrypts only its
batch and lands as a new store *generation*), inspect the generation
log, and ``compact`` the small generations back into full-size
partitions.

With ``--pruned`` it demos the zone-map index: time-clustered batches
are appended (each covering a disjoint ``amount`` range, the way
arriving traffic clusters by time), and a selective range query is run
with and without pruning -- identical answers, most partitions never
dispatched.

With ``--shards N`` it demos sharded multi-node execution: the same
table is split across N process-isolated shard workers keyed on
``country``, a group-by is scatter-gathered (node-side partial
aggregates, one merge), a point query is ring-routed to its owning
shard, and a worker is killed mid-query to show replica failover --
every answer identical to the single-store session.

With ``--serve`` it demos the service layer: the table is persisted,
hosted by a threaded Seabed server on a localhost socket, and queried
through a second session over ``RemoteTransport`` with a bearer token
-- answers bit-identical to the in-process session, and the keyless
audit runs *inside the serving process* to show it holds no keys.

With ``--connect HOST:PORT --token TOKEN`` the script talks to an
already-running server (``python -m repro.net.service``) instead;
add ``--table PATH`` to open a hosted store and run a count query.
"""

import argparse
import os

import numpy as np

from repro import SeabedSession
from repro.core.schema import ColumnSpec, TableSchema
from repro.ops import OPS

parser = argparse.ArgumentParser(description="Seabed quickstart")
parser.add_argument(
    "--persist", metavar="DIR", default=None,
    help="store the table at DIR/sales and re-attach it from a fresh session",
)
parser.add_argument(
    "--append", action="store_true",
    help="demo incremental ingestion (append batches, generations, compaction)",
)
parser.add_argument(
    "--pruned", action="store_true",
    help="demo zone-map partition pruning on a selective range query",
)
parser.add_argument(
    "--shards", metavar="N", type=int, default=0,
    help="demo sharded scatter-gather execution across N worker processes",
)
parser.add_argument(
    "--serve", action="store_true",
    help="demo the service layer: host the table over a socket and query "
         "it through a remote session",
)
parser.add_argument(
    "--metrics", action="store_true",
    help="demo the telemetry layer: run a traced query, print the stitched "
         "cross-process span tree, and scrape the server's Prometheus "
         "metrics over the wire (implies --serve)",
)
parser.add_argument(
    "--connect", metavar="HOST:PORT", default=None,
    help="connect to an already-running Seabed server instead of hosting one",
)
parser.add_argument(
    "--token", default=None,
    help="bearer token for --connect (minted by the server's --grant)",
)
parser.add_argument(
    "--table", metavar="PATH", default=None,
    help="store path to open over --connect",
)
args = parser.parse_args()
if args.metrics:
    args.serve = True

#: Fixed for the demo so --persist can attach from a fresh session; real
#: deployments generate and guard this key.
MASTER_KEY = b"quickstart-demo-master-key-32byt"

rng = np.random.default_rng(42)
N = 50_000
COUNTRIES = ["us", "ca", "in", "uk", "de", "br", "jp"]

# -- 1. the plaintext data -----------------------------------------------------
data = {
    "country": rng.choice(COUNTRIES, N, p=[0.4, 0.3, 0.1, 0.08, 0.06, 0.04, 0.02]),
    "amount": rng.integers(1, 10_000, N),
    "year": rng.integers(2013, 2017, N),
}

# -- 2. schema + sample queries -> encrypted schema -------------------------------
schema = TableSchema("sales", [
    ColumnSpec(
        "country", dtype="str", sensitive=True,
        distinct_values=COUNTRIES,
        value_counts={c: int((data["country"] == c).sum()) for c in COUNTRIES},
    ),
    ColumnSpec("amount", dtype="int", sensitive=True, nbits=32),
    ColumnSpec("year", dtype="int", sensitive=False),
])
session = SeabedSession(mode="seabed", master_key=MASTER_KEY)
session.create_plan(schema, [
    "SELECT sum(amount) FROM sales WHERE country = 'us'",
    "SELECT country, sum(amount) FROM sales GROUP BY country",
    "SELECT min(amount), max(amount) FROM sales",
])
print("Encrypted schema plans:")
for name, plan in session.encrypted_schema("sales").plans.items():
    print(f"  {name:10s} -> {plan.kind}")

# -- 3. upload (encrypts client-side) ----------------------------------------------
stats = session.upload(
    "sales", data, num_partitions=8,
    path=args.persist and os.path.join(args.persist, "sales"),
)
print(f"\nUploaded {stats.rows:,} rows as {stats.physical_columns} physical "
      f"columns in {stats.encrypt_seconds:.2f}s")

# -- 4a. SQL strings (same-shape queries share one cached translation) --------------
for sql in [
    "SELECT sum(amount) FROM sales",
    "SELECT sum(amount), count(*) FROM sales WHERE country = 'in'",
    "SELECT country, avg(amount) FROM sales GROUP BY country",
]:
    result = session.query(sql)
    print(f"\n{sql}")
    for row in result.rows[:5]:
        print(f"   {row}")
    # Measured here; model() replays the measurements on the paper's cluster.
    modelled = session.cluster.model(result.request_metrics)
    print(f"   [executed {result.real_time*1e3:.1f} ms | "
          f"client {result.client_time*1e3:.1f} ms | "
          f"result {result.result_bytes} bytes | "
          f"modelled end-to-end {modelled.total_s*1e3:.1f} ms]")

# -- 4b. a :name placeholder bound per call -------------------------------------------
result = session.query(
    "SELECT min(amount), max(amount) FROM sales WHERE year = :year", year=2015
)
print("\nparameterised: min/max of 2015 sales ->", result.rows[0])

# -- 4c. prepare once, execute per tenant -------------------------------------------
prepared = session.prepare(
    "SELECT sum(amount), count(*) FROM sales WHERE year BETWEEN :lo AND :hi"
)
before = OPS.snapshot()
print("\nprepared: yearly windows (translated once, tokens re-bound per call)")
for lo, hi in [(2013, 2013), (2014, 2015), (2013, 2016)]:
    row = prepared.execute(lo=lo, hi=hi).rows[0]
    print(f"   {lo}-{hi}: sum={row['sum(amount)']:,} n={row['count(*)']:,}")
delta = OPS.delta(before)
print(f"   [ops during 3 executes: translate={delta.get('translate', 0)} "
      f"parse={delta.get('parse', 0)} plan={delta.get('plan', 0)}]")
print(f"\ntranslation cache: {session.cache_stats()}")

# -- 5. optional persistence round trip (--persist DIR) ------------------------------
if args.persist or args.append or args.pruned:
    from repro.workloads.persist import persist_round_trip

    sql = "SELECT country, sum(amount) FROM sales GROUP BY country"
    expected = session.query(sql).rows
    fresh, handle = persist_round_trip(session, "sales", MASTER_KEY)
    reopened = fresh.query(sql).rows
    match = sorted(map(str, expected)) == sorted(map(str, reopened))
    print(f"\nstored at {handle.store_path} and re-attached from a fresh "
          f"session (zero re-encryption): results identical = {match}")
    assert match, "reopened store answered differently"

# -- 6. optional ingestion lifecycle (--append) ---------------------------------------
if args.append:
    # Fresh batches stream into the *persisted* store: each append
    # encrypts only its batch (row IDs continue from the high-water mark)
    # and lands as a new generation, published atomically.
    print("\nincremental ingestion: 3 appended batches of 2,000 rows")
    for i in range(3):
        batch = {
            "country": rng.choice(COUNTRIES, 2_000),
            "amount": rng.integers(1, 10_000, 2_000),
            "year": rng.integers(2013, 2017, 2_000),
        }
        before = OPS.snapshot()
        stats = fresh.append_rows("sales", batch)
        encrypted_rows = OPS.delta(before).get("encrypt_rows", 0)
        print(f"   batch {i + 1}: generation {stats.generation}, "
              f"{stats.rows:,} rows in {stats.encrypt_seconds * 1e3:.1f} ms "
              f"(encrypted exactly {encrypted_rows:,} rows)")
    handle = fresh.encrypted_table("sales")
    print("   generation log:", [
        (g["id"], g["num_rows"], f"{g['num_partitions']}p")
        for g in handle.generations
    ])

    compaction = handle.compact()
    assert compaction is not None
    print(f"   compacted: {compaction['generations_before']} generations "
          f"-> {compaction['generations_after']}, partitions "
          f"{compaction['partitions_before']} -> {compaction['partitions_after']}")

    total = fresh.query("SELECT count(*) FROM sales").rows[0]["count(*)"]
    print(f"   rows after ingestion: {total:,} (expected {N + 6_000:,})")
    assert total == N + 6_000, "ingestion lost or duplicated rows"

# -- 7. optional zone-map pruning demo (--pruned) -------------------------------------
if args.pruned:
    # Arriving traffic is time-clustered, so appended generations cover
    # narrow value ranges.  The zone-map index (built from ciphertexts
    # only: ORE min/max, DET token digests) lets the server skip whole
    # partitions a selective predicate provably cannot match.
    print("\nzone-map pruning: 3 time-clustered batches, then a range query")
    for i in range(3):
        lo = 20_000 + 10_000 * i
        fresh.append_rows("sales", {
            "country": rng.choice(COUNTRIES, 2_000),
            "amount": rng.integers(lo, lo + 5_000, 2_000),
            "year": np.full(2_000, 2017 + i),
        })
    index = fresh.stats("sales")
    print(f"   index: {index['partitions_with_stats']}/{index['partitions']} "
          f"partitions covered, columns "
          f"{sorted(index['columns'])}")

    sql = "SELECT sum(amount), count(*) FROM sales WHERE amount BETWEEN :lo AND :hi"
    pruned = fresh.query(sql, lo=30_000, hi=34_999)
    skipped = sum(m.partitions_skipped for m in pruned.request_metrics)
    total_parts = sum(m.partitions_total for m in pruned.request_metrics)
    fresh.server.pruning = False
    full = fresh.query(sql, lo=30_000, hi=34_999)
    fresh.server.pruning = True
    print(f"   WHERE amount IN [30000, 35000): {pruned.rows[0]}")
    print(f"   pruned run skipped {skipped}/{total_parts} partitions; "
          f"full scan answered identically = {pruned.rows == full.rows}")
    assert pruned.rows == full.rows, "pruning changed the answer"
    assert skipped > 0, "the selective range query should skip partitions"

# -- 8. optional sharded scatter-gather demo (--shards N) -----------------------------
if args.shards:
    replicas = min(2, args.shards)
    print(f"\nsharded execution: {args.shards} worker processes, "
          f"{replicas} replicas per shard")
    shard_session = SeabedSession(mode="seabed", master_key=MASTER_KEY)
    # The shard key must carry a DET ciphertext column so the ring can
    # route on its tokens; without the SPLASHE frequency hints the
    # planner gives `country` a DET plan instead.
    shard_schema = TableSchema("sales", [
        ColumnSpec("country", dtype="str", sensitive=True),
        ColumnSpec("amount", dtype="int", sensitive=True, nbits=32),
        ColumnSpec("year", dtype="int", sensitive=False),
    ])
    shard_session.create_plan(shard_schema, [
        "SELECT sum(amount) FROM sales WHERE country = 'us'",
        "SELECT country, sum(amount) FROM sales GROUP BY country",
        "SELECT min(amount), max(amount) FROM sales",
    ])
    sharded = shard_session.shard_table(
        "sales", "country", num_shards=args.shards, replicas=replicas,
    )
    shard_session.upload("sales", data)
    print("   rows per shard:", dict(sorted(sharded.shard_rows().items())))

    sql = "SELECT country, sum(amount) FROM sales GROUP BY country"
    expected = sorted(map(str, session.query(sql).rows))
    gathered = shard_session.query(sql)
    match = sorted(map(str, gathered.rows)) == expected
    print(f"   scatter-gathered group-by identical to single-store = {match}")
    assert match, "sharded group-by answered differently"

    point = shard_session.query("SELECT sum(amount) FROM sales WHERE country = 'jp'")
    skipped = sum(m.shards_skipped for m in point.request_metrics)
    total_shards = sum(m.shards_total for m in point.request_metrics)
    print(f"   point query routed by the ring: skipped "
          f"{skipped}/{total_shards} shards -> {point.rows[0]}")
    if args.shards > 1:
        assert skipped > 0, "the routed point query should skip shards"

    if replicas > 1:
        # Kill the primary of a populated shard mid-query: the reply
        # never arrives, and the coordinator retries on the replica.
        victim_shard = next(
            s for s, n in sharded.shard_rows().items() if n > 0)
        primary = sharded.store.replica_nodes(victim_shard)[0]
        sharded.arm_exit(primary, "execute", after=1)
        recovered = shard_session.query(sql)
        failovers = sum(m.failovers for m in recovered.request_metrics)
        match = sorted(map(str, recovered.rows)) == expected
        print(f"   killed node {primary} mid-query: {failovers} failover, "
              f"answer still identical = {match}")
        assert match and failovers == 1, "failover changed the answer"
    shard_session.close()

# -- 9. optional service layer demo (--serve / --connect) -----------------------------
if args.serve:
    import repro

    # The store holds whatever the sections above appended: the local
    # reference is a session attached to that same committed state.
    path = session.save_table("sales")
    local = SeabedSession(mode="seabed", master_key=MASTER_KEY)
    local.open_table(path)
    with repro.serve(stores=[path]) as handle:
        token = handle.mint_token("quickstart")
        print(f"\nservice layer: threaded server on {handle.host}:{handle.port}, "
              f"bearer-token auth, keys never leave the client")
        remote = repro.connect(
            handle.address, token, mode="seabed", master_key=MASTER_KEY)
        remote.open_table(path)
        sql = "SELECT country, sum(amount) FROM sales GROUP BY country"
        over_wire = remote.query(sql)
        local_rows = local.query(sql).rows
        match = over_wire.rows == local_rows
        print(f"   remote session over the socket answered identically = {match}")
        assert match, "the wire changed an answer"
        print(f"   [wire {over_wire.wire_time * 1e3:.1f} ms round trip | "
              f"queue {over_wire.queue_wait * 1e3:.2f} ms admission wait]")
        audit = remote.transport.audit_server()
        print(f"   keyless audit inside the serving process: ok={audit['ok']} "
              f"({audit['objects_walked']:,} objects walked, "
              f"{len(audit['flagged'])} flagged)")
        assert audit["ok"], audit["flagged"]

        # -- 9b. optional live telemetry demo (--metrics) ---------------------
        if args.metrics:
            from repro.obs import trace as obs_trace

            print("\ntelemetry: one traced query, stitched across processes")
            obs_trace.get_tracer().clear()
            with obs_trace.span("quickstart:traced-query"):
                remote.query(sql)
                ctx = obs_trace.current_context()
            spans = obs_trace.get_tracer().spans(trace_id=ctx["trace_id"])
            procs = {s.process for s in spans}
            print(f"   {len(spans)} spans from {len(procs)} processes "
                  f"({', '.join(sorted(procs))}):")
            for line in obs_trace.render_tree(spans).splitlines():
                print(f"     {line}")

            scrape = remote.transport.server_metrics()
            wanted = ("seabed_service_request_seconds_count",
                      "seabed_kernel_values_total",
                      "seabed_slow_queries_total")
            shown = [line for line in scrape["text"].splitlines()
                     if line.startswith(wanted)]
            print("   live Prometheus scrape of the serving process "
                  f"({len(scrape['text'].splitlines())} lines, showing "
                  f"{len(shown)}):")
            for line in shown[:8]:
                print(f"     {line}")
            assert any(
                line.startswith("seabed_service_request_seconds_count")
                for line in shown
            ), "the scrape is missing the request-latency histogram"
        remote.close()
    local.close()

if args.connect:
    import repro

    remote = repro.connect(
        args.connect, args.token, mode="seabed", master_key=MASTER_KEY)
    print(f"\nconnected to {args.connect}: "
          f"server info {remote.transport.server_info}")
    audit = remote.transport.audit_server()
    print(f"   keyless audit of the remote server: ok={audit['ok']}")
    if args.table:
        opened = remote.open_table(args.table)
        count = remote.query(f"SELECT count(*) FROM {opened.name}").rows[0]
        print(f"   {opened.name}: {count}")
    remote.close()
