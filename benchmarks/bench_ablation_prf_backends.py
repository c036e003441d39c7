"""Ablation: PRF backend choice (the AES-NI substitution).

Compares ASHE column throughput across the three PRF backends: the
vectorised SplitMix64 stand-in for hardware AES, the cryptographic BLAKE2b
default, and the from-scratch pure-Python AES-CTR.  This quantifies
exactly what the hardware substitution buys, and verifies that backend
choice never changes results.
"""

import time

import numpy as np

from repro.bench import ResultSink, format_table
from repro.crypto.ashe import AsheScheme
from repro.crypto.prf import prf_from_name

KEY = b"0123456789abcdef0123456789abcdef"
BACKENDS = ["splitmix64", "blake2", "aes-ctr"]
ROWS = {"splitmix64": 2_000_000, "blake2": 20_000, "aes-ctr": 2_000}


def test_ablation_prf_backends(benchmark):
    rates = {}
    values_by_backend = {}

    def sweep():
        for backend in BACKENDS:
            n = ROWS[backend]
            values = np.arange(n, dtype=np.int64)
            scheme = AsheScheme(prf_from_name(backend, KEY))
            t0 = time.perf_counter()
            cipher = scheme.encrypt_column(values, start_id=0)
            elapsed = time.perf_counter() - t0
            rates[backend] = n / elapsed
            ct = scheme.aggregate(cipher, None, 0)
            values_by_backend[backend] = scheme.decrypt_sum(ct.value, ct.ids)

    benchmark.pedantic(sweep, rounds=1, iterations=1)

    with ResultSink("ablation_prf_backends") as sink:
        sink.emit(format_table(
            ["PRF backend", "Encrypt throughput (rows/s)", "ns/row"],
            [
                (b, f"{rates[b]:,.0f}", f"{1e9 / rates[b]:,.0f}")
                for b in BACKENDS
            ],
            title="Ablation: ASHE throughput per PRF backend",
        ))
        sink.emit(format_table(
            ["Observation", "Value"],
            [
                ("vectorised / blake2 speedup", f"{rates['splitmix64'] / rates['blake2']:,.0f}x"),
                ("vectorised / pure-python-AES speedup",
                 f"{rates['splitmix64'] / rates['aes-ctr']:,.0f}x"),
                ("all backends decrypt identical sums", str(
                    len({values_by_backend[b] - sum(range(ROWS[b]))
                         for b in BACKENDS}) == 1
                )),
            ],
        ))

    assert rates["splitmix64"] > 10 * rates["blake2"] > 10 * rates["aes-ctr"] / 10
    for backend in BACKENDS:
        assert values_by_backend[backend] == sum(range(ROWS[backend]))


def test_ablation_straggler_injection(benchmark):
    """Section 6.2 observes GC stragglers hurting short jobs most; inject
    them and measure the relative slowdown of short vs long stages."""
    from repro.engine.cluster import ClusterConfig, SimulatedCluster
    from repro.engine.metrics import JobMetrics

    results = {}

    def sweep():
        for prob in (0.0, 0.05):
            cluster = SimulatedCluster(ClusterConfig(
                cores=16, task_startup_s=0.004, job_startup_s=0.0,
                straggler_prob=prob, straggler_factor=10.0, seed=3,
            ))
            job = JobMetrics()
            cluster.map_stage("short", sum, [(range(2_000),)] * 64, job)
            results[prob] = cluster.model([job]).server_s

    benchmark.pedantic(sweep, rounds=1, iterations=1)

    with ResultSink("ablation_stragglers") as sink:
        sink.emit(format_table(
            ["Straggler probability", "Stage makespan (ms)", "Slowdown"],
            [
                (f"{p:.0%}", f"{v * 1e3:,.1f}", f"{v / results[0.0]:,.2f}x")
                for p, v in results.items()
            ],
            title="Ablation: straggler (GC pause) injection on short stages",
        ))
    assert results[0.05] > results[0.0]
