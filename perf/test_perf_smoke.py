"""Smoke and self-test of the benchmark (collected by the tier-1 pytest run).

Every workload runs once per pass at smoke size (thousands of rows, one
set-up, one round); the runs go in parallel to stay within a few seconds.
"""

import glob
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

import compare

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    CONTRACT = json.load(_fh)
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]


def _bench(*extra: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "bench.py"), "--smoke", *extra],
        capture_output=True, text=True, timeout=120,
    )


@pytest.fixture(scope="module")
def smoke_runs():
    jobs = {(w, t): ("--workload", w, "--trace", str(t))
            for w in WORKLOADS for t in (0, 1)}
    jobs["corrupt"] = ("--workload", "scan-local", "--corrupt-expected")
    with ThreadPoolExecutor(max_workers=4) as pool:
        futures = {key: pool.submit(_bench, *argv) for key, argv in jobs.items()}
        return {key: f.result() for key, f in futures.items()}


def _result(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(done.stdout.rstrip().rsplit("\n", 1)[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_declared_metric_is_printed_with_its_unit(smoke_runs, workload, trace):
    done = smoke_runs[(workload, trace)]
    result = _result(done)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = CONTRACT["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    printed = {line.split()[0]: line.split()[-1]
               for line in done.stdout.splitlines()
               if line and not line.startswith(("#", "{"))}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert printed[m["name"]] == m["unit"]
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    if not trace:  # end-to-end metrics are never 0
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_pass_writes_parented_spans(smoke_runs):
    for workload in WORKLOADS:
        _result(smoke_runs[(workload, 1)])
        with open(os.path.join(HERE, "out", f"trace-{workload}.json"),
                  encoding="utf-8") as fh:
            events = json.load(fh)["traceEvents"]
        ids = {e["args"]["span"] for e in events}
        in_ops = [e for e in events if e["args"]["op"] is not None]
        assert in_ops and all(
            e["name"] == "op" or e["args"]["parent"] in ids for e in in_ops
        )


def test_a_corrupted_expected_answer_counts_as_failed(smoke_runs):
    result = _result(smoke_runs["corrupt"])
    assert result["failed"] >= 1 and result["correct"] is False


def test_no_scratch_or_process_survives(smoke_runs):
    for done in smoke_runs.values():
        assert done.returncode == 0
    assert glob.glob(os.path.join(HERE, "out", "scratch-*")) == []
    marker = os.path.join(HERE, "out", "scratch-").encode()
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/cmdline", "rb") as fh:
                    assert marker not in fh.read(), f"pid {entry} survived"
            except OSError:
                pass  # exited while we looked


def _results(values: dict) -> dict:
    env = {"nproc": 2, "seconds": 10.0}
    runs = [
        {"metrics": {m["name"]: {"value": values.get(m["name"], 10.0) * f}
                     for m in CONTRACT["end_to_end"]}}
        for f in (0.99, 1.0, 1.01)
    ]
    return {"environment": env, "workloads": {w: {"timed": runs} for w in WORKLOADS}}


def test_compare_verdicts(tmp_path, capsys):
    def write(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    base = write("a.json", _results({}))
    assert compare.main([base, write("same.json", _results({}))]) == 0
    assert "worse" not in capsys.readouterr().out
    slower = write("slow.json", _results({"query_p50_ms": 20.0}))
    assert compare.main([base, slower]) == 1
    assert "worse" in capsys.readouterr().out
    other = _results({})
    other["environment"]["nproc"] = 64
    assert compare.main([base, write("other.json", other)]) == 2
