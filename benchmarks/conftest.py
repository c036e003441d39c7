"""Shared fixtures for the benchmark harness.

Scales are configurable through ``SEABED_BENCH_SCALE`` (small | medium |
large); the default ``small`` keeps the full suite runnable on a laptop in
minutes while preserving every shape the paper reports (the datasets are
10^3-10^4x smaller than the paper's, so start-up costs shrink with them).
Results are written to ``results/``.

``BENCH_QUICK=1`` overrides everything with the ``quick`` scale: the
same benchmark shapes at CI-friendly sizes, so every PR exercises the
full measurement path (and the machine-readable ``BENCH_*.json``
artifacts) in seconds.
"""

from __future__ import annotations

import os

import pytest

SCALES = {
    # CI quick mode: smallest sizes that keep every measured ratio
    # meaningful (BENCH_QUICK=1).
    "quick": {
        "fig6_rows": [20_000, 40_000],
        "backend_rows": 600_000,
        "fig7_rows": 120_000,
        "fig8_rows": 60_000,
        "fig9a_rows": 60_000,
        "fig9a_groups": [10, 100],
        "bdb_rankings": 1_000,
        "bdb_uservisits": 10_000,
        "ada_rows": 10_000,
        "table5_rows": 10_000,
        "paillier_bits": 512,
        "store_rows": 200_000,
        "ingest_rows": 100_000,
        "pruning_rows": 400_000,
        "shard_rows": 60_000,
        "service_rows": 20_000,
        "service_sessions": 4,
        "kernel_rows": 200_000,
    },
    "small": {
        "fig6_rows": [50_000, 100_000, 200_000, 400_000],
        "backend_rows": 1_000_000,
        "fig7_rows": 400_000,
        "fig8_rows": 400_000,
        "fig9a_rows": 200_000,
        "fig9a_groups": [10, 100, 1_000, 10_000],
        "bdb_rankings": 3_000,
        "bdb_uservisits": 30_000,
        "ada_rows": 30_000,
        "table5_rows": 30_000,
        "paillier_bits": 1024,
        "store_rows": 400_000,
        "ingest_rows": 400_000,
        "pruning_rows": 1_000_000,
        "shard_rows": 400_000,
        "service_rows": 60_000,
        "service_sessions": 6,
        "kernel_rows": 1_000_000,
    },
    "medium": {
        "fig6_rows": [250_000, 500_000, 1_000_000, 2_000_000],
        "backend_rows": 2_000_000,
        "fig7_rows": 2_000_000,
        "fig8_rows": 2_000_000,
        "fig9a_rows": 1_000_000,
        "fig9a_groups": [10, 100, 1_000, 10_000, 100_000],
        "bdb_rankings": 10_000,
        "bdb_uservisits": 100_000,
        "ada_rows": 100_000,
        "table5_rows": 100_000,
        "paillier_bits": 1024,
        "store_rows": 2_000_000,
        "ingest_rows": 2_000_000,
        "pruning_rows": 4_000_000,
        "shard_rows": 1_000_000,
        "service_rows": 200_000,
        "service_sessions": 8,
        "kernel_rows": 4_000_000,
    },
    "large": {
        "fig6_rows": [1_000_000, 2_000_000, 4_000_000, 8_000_000],
        "backend_rows": 8_000_000,
        "fig7_rows": 8_000_000,
        "fig8_rows": 8_000_000,
        "fig9a_rows": 4_000_000,
        "fig9a_groups": [10, 100, 1_000, 10_000, 100_000, 1_000_000],
        "bdb_rankings": 30_000,
        "bdb_uservisits": 300_000,
        "ada_rows": 300_000,
        "table5_rows": 300_000,
        "paillier_bits": 1024,
        "store_rows": 8_000_000,
        "ingest_rows": 8_000_000,
        "pruning_rows": 8_000_000,
        "shard_rows": 4_000_000,
        "service_rows": 500_000,
        "service_sessions": 8,
        "kernel_rows": 8_000_000,
    },
}


@pytest.fixture(scope="session")
def scale() -> dict:
    if os.environ.get("BENCH_QUICK") == "1":
        return SCALES["quick"]
    name = os.environ.get("SEABED_BENCH_SCALE", "small")
    if name not in SCALES:
        raise ValueError(f"SEABED_BENCH_SCALE must be one of {sorted(SCALES)}")
    return SCALES[name]


@pytest.fixture(scope="session")
def paper_cluster():
    """A cluster shaped like the paper's testbed: 100 cores, 2 Gbps client
    link (Section 6.1) -- with job/task startup costs scaled down by the
    same factor as the datasets.

    The paper's ~0.6 s NoEnc floor is task-creation overhead against
    *billions* of rows; running 10^3-10^4x smaller data against the
    unscaled floor would flatten every ratio the figures report, so the
    floor shrinks proportionally to preserve the compute-to-startup
    balance.
    """
    from repro.engine.cluster import ClusterConfig, SimulatedCluster

    return SimulatedCluster(ClusterConfig(
        cores=100, job_startup_s=0.0005, task_startup_s=2e-5,
    ))


def run_once(benchmark, fn):
    """Time a full experiment exactly once through pytest-benchmark."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)
