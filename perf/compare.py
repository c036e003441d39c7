#!/usr/bin/env python3
"""Compare two sets of benchmark runs, or show one set's own spread.

    python3 perf/compare.py perf/out/results-A.json perf/out/results-B.json
    python3 perf/compare.py perf/out/results.json

One row per (end-to-end metric, workload): both medians, the run-to-run
spread (distance between the first and third quartile as a share of the
median, ``statistics.quantiles(values, n=4)``), the bound from
``BENCHMARK.json`` and a verdict:

- ``unresolved``  a set's own spread is wider than the bound, so the bound
  cannot be checked;
- ``worse``       B's median is worse than A's by more than the bound;
- ``better``      B's median is better than A's by more than A's spread;
- ``unchanged``   otherwise.

With one file the verdict column says whether the spread is within a third
of the bound, the steadiness the benchmark aims for.  Exits 1 on any
``worse`` (one file: on any spread over its bound), 2 when the two files
were not measured under comparable settings.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Environment keys that must match for two result files to be comparable.
COMPARABLE = ("nproc", "python", "numpy", "cryptography", "prf_backend",
              "seconds", "smoke", "rows", "clients", "flush_policy")


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / abs(statistics.median(values))


def metric_values(results: dict, workload: str, metric: str) -> list[float]:
    return [run["metrics"][metric]["value"]
            for run in results["workloads"][workload]["timed"]]


def main(paths: list[str]) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        contract = json.load(fh)
    loaded = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            loaded.append(json.load(fh))
    a, b = loaded[0], loaded[-1]
    if len(loaded) == 2:
        differing = [k for k in COMPARABLE
                     if a["environment"].get(k) != b["environment"].get(k)]
        if differing:
            print(f"incomparable result files: {differing} differ", file=sys.stderr)
            return 2

    worst = 0
    print(f"{'workload':16s} {'metric':22s} {'median A':>12s} {'median B':>12s} "
          f"{'change':>8s} {'spread A':>8s} {'spread B':>8s} {'bound':>6s}  verdict")
    for workload in (w["name"] for w in contract["workloads"]):
        for m in contract["end_to_end"]:
            va = metric_values(a, workload, m["name"])
            vb = metric_values(b, workload, m["name"])
            med_a, med_b = statistics.median(va), statistics.median(vb)
            sign = 1.0 if m["better"] == "lower" else -1.0
            worse_by = sign * (med_b - med_a) / abs(med_a)
            sp_a, sp_b, bound = spread(va), spread(vb), m["bound"]
            if len(loaded) == 1:
                verdict = ("steady" if sp_a <= bound / 3
                           else "within bound" if sp_a <= bound else "TOO NOISY")
                # setup_s is exempt from the spread rule (its medians are not)
                if sp_a > bound and m["name"] != "setup_s":
                    worst = 1
            elif max(sp_a, sp_b) > bound and m["name"] != "setup_s":
                verdict = "unresolved"
            elif worse_by > bound:
                verdict, worst = "worse", 1
            elif worse_by < -sp_a:
                verdict = "better"
            else:
                verdict = "unchanged"
            print(f"{workload:16s} {m['name']:22s} {med_a:12.4f} {med_b:12.4f} "
                  f"{worse_by:+8.1%} {sp_a:8.1%} {sp_b:8.1%} {bound:6.1%}  {verdict}")
    return worst


if __name__ == "__main__":
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1:]))
