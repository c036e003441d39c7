"""The AmpLab Big Data Benchmark (paper Section 6.7, Figure 9b-c).

Generators for the two BDB relations plus the query set with the paper's
simplifications applied:

- **rankings** (pageURL, pageRank, avgDuration): Q1 scans it with a
  pageRank threshold (variants A/B/C = 1000/100/10 over a 1..10000
  domain).
- **uservisits** (sourceIP, destURL, visitDate, adRevenue, ...): Q2 groups
  ad revenue by a sourceIP *prefix*.  The paper could not run substring
  search over encrypted data, so it "simplified query 2 by matching over
  deterministically encrypted prefixes" -- here the client uploads derived
  prefix columns (8/10/12 characters), exactly that preprocessing.
- Q3 joins the two tables on destURL = pageURL with a visitDate range,
  grouping revenue and average pageRank by sourceIP.
- Q4's external-script phase stays plaintext in the paper; phase 1 is a
  word-count style flatMap + reduceByKey over synthetic crawl documents
  (:func:`count_links`, run on the simulated cluster) and phase 2
  aggregates the resulting counts under encryption.

adRevenue is fixed-point cents (integers), the standard trick for
aggregating currency with integer-only homomorphic schemes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.core.schema import ColumnSpec, TableSchema
from repro.engine.cluster import SimulatedCluster
from repro.engine.metrics import JobMetrics
from repro.errors import SeabedError
from repro.workloads.distributions import zipf_choice


@dataclass
class BdbDataset:
    rankings: dict[str, np.ndarray]
    uservisits: dict[str, np.ndarray]
    rankings_schema: TableSchema
    uservisits_schema: TableSchema


def _random_ips(rng: np.random.Generator, count: int) -> list[str]:
    octets = rng.integers(1, 255, size=(count, 4))
    return [".".join(str(x) for x in row) for row in octets.tolist()]


def generate(
    num_rankings: int = 1000,
    num_uservisits: int = 10_000,
    seed: int = 0,
) -> BdbDataset:
    """Generate both relations at the requested scale."""
    if num_rankings < 1 or num_uservisits < 1:
        raise SeabedError("row counts must be positive")
    rng = np.random.default_rng(seed)
    urls = np.array([f"url{i:07d}.example.com" for i in range(num_rankings)],
                    dtype=object)
    rankings = {
        "pageURL": urls,
        "pageRank": rng.integers(1, 10_001, num_rankings).astype(np.int64),
        "avgDuration": rng.integers(1, 100, num_rankings).astype(np.int64),
    }
    ip_pool = np.array(_random_ips(rng, max(num_uservisits // 50, 8)), dtype=object)
    dest_codes = zipf_choice(rng, num_rankings, num_uservisits, exponent=1.05)
    source_ips = ip_pool[rng.integers(0, len(ip_pool), num_uservisits)]
    uservisits = {
        "sourceIP": source_ips,
        "destURL": urls[dest_codes],
        "visitDate": rng.integers(0, 2000, num_uservisits).astype(np.int64),
        "adRevenue": rng.integers(1, 100_000, num_uservisits).astype(np.int64),
        "userAgent": rng.choice(
            np.array(["firefox", "chrome", "safari", "edge"], dtype=object),
            num_uservisits,
        ),
        "countryCode": rng.choice(
            np.array(["US", "CA", "IN", "GB", "DE", "BR"], dtype=object),
            num_uservisits,
        ),
        "languageCode": rng.choice(
            np.array(["en", "fr", "hi", "de", "pt"], dtype=object), num_uservisits
        ),
        "searchWord": rng.choice(
            np.array([f"word{i}" for i in range(100)], dtype=object), num_uservisits
        ),
        "duration": rng.integers(1, 600, num_uservisits).astype(np.int64),
    }
    # Client pre-processing for Q2: deterministic prefix columns.
    for width in (8, 10, 12):
        uservisits[f"ipPrefix{width}"] = np.array(
            [ip[:width] for ip in source_ips.tolist()], dtype=object
        )
    rankings_schema = TableSchema("rankings", [
        ColumnSpec("pageURL", dtype="str", sensitive=True),
        ColumnSpec("pageRank", dtype="int", sensitive=True, nbits=16),
        ColumnSpec("avgDuration", dtype="int", sensitive=True),
    ])
    uservisits_schema = TableSchema("uservisits", [
        ColumnSpec("sourceIP", dtype="str", sensitive=True),
        ColumnSpec("destURL", dtype="str", sensitive=True),
        ColumnSpec("visitDate", dtype="int", sensitive=True, nbits=16),
        ColumnSpec("adRevenue", dtype="int", sensitive=True),
        ColumnSpec("userAgent", dtype="str", sensitive=False),
        ColumnSpec("countryCode", dtype="str", sensitive=False),
        ColumnSpec("languageCode", dtype="str", sensitive=False),
        ColumnSpec("searchWord", dtype="str", sensitive=False),
        ColumnSpec("duration", dtype="int", sensitive=False),
        ColumnSpec("ipPrefix8", dtype="str", sensitive=True),
        ColumnSpec("ipPrefix10", dtype="str", sensitive=True),
        ColumnSpec("ipPrefix12", dtype="str", sensitive=True),
    ])
    return BdbDataset(rankings, uservisits, rankings_schema, uservisits_schema)


#: Q1 pageRank thresholds for variants A/B/C (over a 1..10000 domain the
#: paper's 1000/100/10 thresholds keep their "almost all rows pass for C"
#: character).
Q1_THRESHOLDS = {"A": 9000, "B": 5000, "C": 1000}

#: Q2 prefix widths for variants A/B/C.
Q2_PREFIXES = {"A": 8, "B": 10, "C": 12}

#: Q3 visitDate ranges (days) for variants A/B/C: progressively larger.
Q3_DATE_RANGES = {"A": (0, 100), "B": (0, 600), "C": (0, 1800)}


def query_q1(variant: str) -> tuple[str, str]:
    """Q1 is a scan: (predicate SQL for the proxy scan API, description)."""
    threshold = Q1_THRESHOLDS[variant]
    return (
        f"SELECT count(*), sum(pageRank) FROM rankings WHERE pageRank > {threshold}",
        f"Q1{variant}: scan rankings where pageRank > {threshold}",
    )


def query_q2(variant: str) -> str:
    width = Q2_PREFIXES[variant]
    return (
        f"SELECT ipPrefix{width}, sum(adRevenue) FROM uservisits "
        f"GROUP BY ipPrefix{width}"
    )


def query_q3(variant: str) -> str:
    low, high = Q3_DATE_RANGES[variant]
    return (
        "SELECT sourceIP, sum(adRevenue), avg(pageRank) FROM uservisits "
        "JOIN rankings ON destURL = pageURL "
        f"WHERE visitDate BETWEEN {low} AND {high} GROUP BY sourceIP"
    )


def sample_queries() -> list[str]:
    """Sample set covering every BDB query shape (drives the planner)."""
    queries = [query_q1("A")[0], query_q3("A")]
    queries.extend(query_q2(v) for v in ("A", "B", "C"))
    return queries


# -- Q4: external-script phase ---------------------------------------------------


def generate_crawl_documents(
    num_documents: int, urls: np.ndarray, seed: int = 0
) -> list[tuple[str, str]]:
    """Synthetic (url, contents) documents for the Q4 word-count phase.

    Contents embed outbound links (``href=<url>``); phase 1 extracts link
    targets, mirroring the benchmark's page-rank-style external script.
    The text stays plaintext, as in the paper's simplification.
    """
    rng = np.random.default_rng(seed)
    words = [f"w{i}" for i in range(50)]
    docs = []
    for d in range(num_documents):
        n_links = int(rng.integers(1, 8))
        links = rng.integers(0, len(urls), n_links)
        tokens: list[str] = []
        for link in links.tolist():
            tokens.append(f"href={urls[link]}")
            tokens.extend(rng.choice(words, size=3).tolist())
        docs.append((str(urls[d % len(urls)]), " ".join(tokens)))
    return docs


def extract_links(document: tuple[str, str]) -> list[tuple[str, int]]:
    """Phase-1 map function: (target url, 1) per outbound link."""
    _source, contents = document
    return [
        (token[len("href="):], 1)
        for token in contents.split()
        if token.startswith("href=")
    ]


def count_links(
    cluster: SimulatedCluster, documents: list[tuple[str, str]], num_partitions: int
) -> tuple[dict[str, int], JobMetrics]:
    """Q4 phase 1 as Spark runs it: ``flatMap(extract_links)`` over at most
    ``num_partitions`` equal document slices, then ``reduceByKey(+)`` over
    ``cluster.config.cores`` reducers.

    Each ``flatMap`` task counts its links into one hash bucket per
    reducer (the map-side combine); each (bucket, url) entry crosses the
    shuffle as 32 bytes, and each ``shuffle-reduce`` task sums one bucket.
    """
    reducers = cluster.config.cores
    size = max(1, -(-len(documents) // max(1, num_partitions)))
    slices = [documents[i : i + size] for i in range(0, len(documents), size)]
    metrics = JobMetrics()

    def extract_and_combine(docs: list[tuple[str, str]]) -> list[Counter[str]]:
        buckets: list[Counter[str]] = [Counter() for _ in range(reducers)]
        for doc in docs:
            for url, one in extract_links(doc):
                buckets[hash(url) % reducers][url] += one
        return buckets

    def merge_bucket(idx: int) -> Counter[str]:
        merged: Counter[str] = Counter()
        for buckets in map_out:
            merged.update(buckets[idx])
        return merged

    map_out, _ = cluster.map_stage("flatMap", extract_and_combine, [(d,) for d in slices], metrics)
    metrics.shuffles.append((32 * sum(len(b) for buckets in map_out for b in buckets), 0))
    reduced, _ = cluster.map_stage(
        "shuffle-reduce", merge_bucket, [(i,) for i in range(reducers)], metrics
    )
    return {url: n for bucket in reduced for url, n in bucket.items()}, metrics
