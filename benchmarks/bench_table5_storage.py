"""Table 5: dataset characteristics (disk and memory size per system).

The paper reports on-disk and in-memory sizes of each dataset under
NoEnc / Seabed / Paillier (2048-bit ciphertexts).  We build scaled
versions of the synthetic and ad-analytics datasets, encrypt them under
all three modes, and report sizes plus the blow-up factors.  The disk
column is what the partition store that ships writes: ``disk_bytes`` of
the store the upload created (partition files, manifest and client-state
sidecar), the figure ``perf/``'s ``stored_bytes_per_row`` also reads.
Shape to check against the paper: Seabed costs ~1.1-2x NoEnc, Paillier
3-15x (worse the more measure-heavy the table).
"""

import pytest

from repro.bench import ResultSink, format_table
from repro.core.session import SeabedSession
from repro.engine.storage import memory_size
from repro.engine.store import disk_bytes
from repro.workloads import adanalytics, synthetic


def _sizes(client, table):
    memory = memory_size(client.server.table(table))
    return disk_bytes(client.save_table(table)), memory


@pytest.mark.parametrize("dataset_name", ["synthetic", "ad_analytics"])
def test_table5_storage(benchmark, scale, dataset_name):
    rows_count = scale["table5_rows"]
    if dataset_name == "synthetic":
        data = synthetic.generate(rows_count, seed=0)
        columns, schema = data.columns, data.schema
        samples = synthetic.sample_queries(data)
        table = schema.name
    else:
        data = adanalytics.generate(rows=rows_count, seed=0)
        columns, schema = data.columns, data.schema
        samples = adanalytics.sample_queries(data)
        table = schema.name

    results = {}

    def build_all():
        for mode in ("plain", "seabed", "paillier"):
            client = SeabedSession(
                mode=mode, paillier_bits=scale["paillier_bits"],
                paillier_blinding_pool=32, seed=1,
            )
            client.create_plan(schema, samples, storage_budget=12.0)
            client.upload(table, columns, num_partitions=8)
            results[mode] = _sizes(client, table)
            client.close()

    benchmark.pedantic(build_all, rounds=1, iterations=1)

    plain_disk, plain_mem = results["plain"]
    table_rows = []
    for mode in ("plain", "seabed", "paillier"):
        d, m = results[mode]
        table_rows.append((
            mode, rows_count, f"{d / 1e6:.1f}", f"{m / 1e6:.1f}",
            f"{d / plain_disk:.2f}x", f"{m / plain_mem:.2f}x",
        ))
    with ResultSink(f"table5_storage_{dataset_name}") as sink:
        sink.emit(format_table(
            ["System", "Rows", "Disk (MB)", "Memory (MB)", "Disk vs NoEnc",
             "Mem vs NoEnc"],
            table_rows,
            title=f"Table 5: storage characteristics -- {dataset_name}",
        ))
        seabed_disk, _ = results["seabed"]
        paillier_disk, _ = results["paillier"]
        sink.emit(format_table(
            ["Disk ratio", "Paper", "Measured"],
            [
                ("Seabed / NoEnc", "~1.1-2x", f"{seabed_disk / plain_disk:.2f}x"),
                ("Paillier / NoEnc", "3-15x", f"{paillier_disk / plain_disk:.2f}x"),
                ("Paillier / Seabed", "> 2.5x (asserted)",
                 f"{paillier_disk / seabed_disk:.2f}x"),
            ],
            title=f"Paper-vs-measured ({scale['paillier_bits']}-bit Paillier here)",
        ))

    # Paper shape: NoEnc < Seabed < Paillier, with Paillier far above.
    assert plain_disk < seabed_disk < paillier_disk
    assert paillier_disk > 2.5 * seabed_disk
