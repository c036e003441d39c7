"""Crypto-kernel microbenchmarks: batch kernels vs the per-row reference.

Table 1 of the paper prices one AES-CTR PRF operation at 47 ns on AES-NI
hardware -- the number Seabed's whole performance argument rests on.
This benchmark measures what our kernels actually cost per operation:

- **PRF eval**: the AES-NI PRF's contiguous ``eval_range`` stream (one
  ECB call over all counter blocks) vs one ``eval_one`` call per ID.
- **ASHE pad stream**: ``AsheScheme.pad_range`` (one PRF stream, shared
  boundary evaluations) vs per-row scalar boundary evals, both on the
  same AES-NI PRF.
- **ORE partition compare**: ``OreScheme.compare_column`` over a whole
  packed partition vs a per-row ``compare_words`` loop.
- **DET column encrypt**: ``DetScheme.encrypt_column`` vs one
  ``encrypt_one`` (a query token) per value.
- **ORE column encrypt**: ``OreScheme.encrypt_column`` vs one
  ``encrypt_one`` (a query token) per value; both run CLWW on AES-NI.

The per-row reference path is timed on a subsample (it is the slow side
by construction) and normalised to ns/op.  Results land in
``BENCH_kernels.json`` with the enforced floors recorded alongside the
measurements: batch ASHE pad streams must beat the per-row reference by
**>= 5x** and ORE partition compares by **>= 25x** (in practice they are
orders of magnitude faster; the floors are regression tripwires -- the
ORE one sits above what the gather/scatter kernel the bit-parallel one
replaced could reach, 13x).  CI re-verifies the recorded floors from the
artifact.
"""

import json
import os
import platform
import time
from pathlib import Path

import numpy as np

from repro.bench import ResultSink, format_table
from repro.crypto.ashe import AsheScheme
from repro.crypto.det import DetScheme
from repro.crypto.ore import OreScheme
from repro.crypto.prf import AesNiCtrPrf

KEY = bytes(range(16))
REPEATS = 3
#: Rows the slow per-row reference path is timed on (then normalised).
REFERENCE_ROWS = 2_000
#: Floors enforced in-bench and re-verified by CI from the artifact.
FLOORS = {"ashe_pad_stream_ratio": 5.0, "ore_compare_ratio": 25.0}
PAPER_TABLE1_AES_NS = 47.0


def _ns_per_op(fn, ops: int) -> float:
    """Best-of-``REPEATS`` wall time for ``fn()``, normalised to ns/op."""
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best / ops * 1e9


def test_kernel_microbench(scale):
    rows = scale["kernel_rows"]
    ref_rows = min(rows, REFERENCE_ROWS)
    ops: dict[str, dict] = {}

    # -- PRF eval (the Table 1 number) -----------------------------------
    prf = AesNiCtrPrf(KEY)
    ops["prf_eval"] = {
        "batch_ns": _ns_per_op(lambda: prf.eval_range(0, rows), rows),
        "per_row_ns": _ns_per_op(
            lambda: [prf.eval_one(i) for i in range(ref_rows)], ref_rows
        ),
        "reference": "one eval_one call per ID",
        "backend": "aes-ni",
    }

    # -- ASHE pad stream --------------------------------------------------
    # Same PRF on both sides so the ratio isolates batching.
    ashe = AsheScheme(AesNiCtrPrf(KEY))

    def ashe_per_row():
        return [prf.eval_one(i) - prf.eval_one(i - 1) for i in range(1, ref_rows + 1)]

    ops["ashe_pad_stream"] = {
        "batch_ns": _ns_per_op(lambda: ashe.pad_range(1, rows), rows),
        "per_row_ns": _ns_per_op(ashe_per_row, ref_rows),
        "reference": "two scalar boundary evals per row",
    }

    # -- ORE partition compare -------------------------------------------
    ore = OreScheme(KEY, nbits=32)
    values = np.random.default_rng(7).integers(-(2**30), 2**30, size=rows)
    cipher = ore.encrypt_column(values)
    token = ore.token(0)
    sub = cipher[:ref_rows]
    sub_tuples = [tuple(int(w) for w in row) for row in sub]

    def ore_per_row():
        return [OreScheme.compare_words(ct, token) for ct in sub_tuples]

    ops["ore_compare"] = {
        "batch_ns": _ns_per_op(lambda: ore.compare_column(cipher, token), rows),
        "per_row_ns": _ns_per_op(ore_per_row, ref_rows),
        "reference": "per-row compare_words loop",
    }

    # -- DET column encrypt ----------------------------------------------
    det = DetScheme(KEY)
    codes = np.arange(rows, dtype=np.int64)
    sub_codes = codes[:ref_rows].tolist()

    def det_per_row():
        return [det.encrypt_one(c) for c in sub_codes]

    ops["det_encrypt"] = {
        "batch_ns": _ns_per_op(lambda: det.encrypt_column(codes), rows),
        "per_row_ns": _ns_per_op(det_per_row, ref_rows),
        "reference": "one encrypt_one call per value",
    }

    # -- ORE column encrypt ----------------------------------------------
    sub_values = values[:ref_rows].tolist()

    def ore_per_row():
        return [ore.encrypt_one(v) for v in sub_values]

    ops["ore_encrypt"] = {
        "batch_ns": _ns_per_op(lambda: ore.encrypt_column(values), rows),
        "per_row_ns": _ns_per_op(ore_per_row, ref_rows),
        "reference": "one encrypt_one call per value",
    }

    for entry in ops.values():
        entry.setdefault("ratio", entry["per_row_ns"] / entry["batch_ns"])

    with ResultSink("kernels") as sink:
        sink.emit(format_table(
            ["Kernel", "batch ns/op", "per-row ns/op", "ratio"],
            [
                [name, f"{e['batch_ns']:,.1f}", f"{e['per_row_ns']:,.1f}",
                 f"{e['ratio']:,.0f}x"]
                for name, e in ops.items()
            ],
            title=(
                f"Batch kernels vs per-row reference ({rows:,} rows, "
                f"reference on {ref_rows:,}; paper Table 1: "
                f"{PAPER_TABLE1_AES_NS:.0f} ns/AES-CTR op)"
            ),
        ))

    record = {
        "rows": rows,
        "reference_rows": ref_rows,
        "repeats": REPEATS,
        "hardware": {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "ops": ops,
        "floors": FLOORS,
        "table1": {
            "paper_aes_ni_ns": PAPER_TABLE1_AES_NS,
            "measured_prf_backend": ops["prf_eval"]["backend"],
            "measured_prf_ns": ops["prf_eval"]["batch_ns"],
        },
    }
    out = Path(__file__).resolve().parents[1] / "BENCH_kernels.json"
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    assert ops["ashe_pad_stream"]["ratio"] >= FLOORS["ashe_pad_stream_ratio"], (
        f"ASHE pad stream batch kernel only {ops['ashe_pad_stream']['ratio']:.1f}x "
        f"over the per-row reference (floor {FLOORS['ashe_pad_stream_ratio']}x)"
    )
    assert ops["ore_compare"]["ratio"] >= FLOORS["ore_compare_ratio"], (
        f"ORE compare batch kernel only {ops['ore_compare']['ratio']:.1f}x "
        f"over the per-row reference (floor {FLOORS['ore_compare_ratio']}x)"
    )
