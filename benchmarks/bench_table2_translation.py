"""Table 2: query-translation examples.

Reproduces the paper's three rewrite rows -- ID preservation, SPLASHE, and
the group-by optimisation -- by translating the same SQL and printing the
resulting server requests.  The benchmark measures translation throughput
(the proxy's per-query rewriting cost, which the paper folds into client
time).
"""

import numpy as np
import pytest

from repro.bench import ResultSink, format_table
from repro.core.crypto_factory import CryptoFactory
from repro.core.encryptor import ClientTableState, EncryptionModule
from repro.core.planner import Planner
from repro.core.schema import ColumnSpec, TableSchema
from repro.core.translator import QueryTranslator
from repro.crypto.keys import KeyChain
from repro.query.parser import parse_query


@pytest.fixture(scope="module")
def translator():
    schema = TableSchema("tbl", [
        ColumnSpec("a", dtype="int", sensitive=True),
        ColumnSpec("b", dtype="int", sensitive=True, nbits=16),
        ColumnSpec("d", dtype="int", sensitive=True, distinct_values=list(range(4))),
        ColumnSpec("g", dtype="int", sensitive=True),
    ])
    samples = [
        parse_query("SELECT sum(a) FROM tbl WHERE b > 10"),
        parse_query("SELECT count(*) FROM tbl WHERE d = 2"),
        parse_query("SELECT sum(a) FROM tbl WHERE d = 2"),
        parse_query("SELECT g, sum(a) FROM tbl GROUP BY g"),
    ]
    enc, _ = Planner("seabed").plan(schema, samples)
    state = ClientTableState(schema=schema, enc_schema=enc)
    factory = CryptoFactory(KeyChain(b"t" * 32), "tbl")
    rng = np.random.default_rng(0)
    columns = {name: rng.integers(0, hi, 64)
               for name, hi in (("a", 100), ("b", 100), ("d", 4), ("g", 8))}
    module = EncryptionModule(factory, seed=0)
    module.encrypt_batch(state, columns, module.balance_splashe(state, columns),
                         num_partitions=2)
    return QueryTranslator(state, factory)


def _describe(tq) -> str:
    parts = []
    for req in tq.requests:
        ops = ", ".join(
            f"{type(a).__name__}({getattr(a, 'column', '*')})" for a in req.aggs
        )
        filt = type(req.filter).__name__ if req.filter is not None else "none"
        grp = f" groupBy={req.group_by}" if req.group_by else ""
        parts.append(f"[aggs: {ops}; filter: {filt}{grp}]")
    return " + ".join(parts)


CASES = [
    ("ID preservation",
     "SELECT sum(a) FROM tbl WHERE b > 10",
     "table.filter(OPE.leq).map(x=>(x(id),x(1))).reduce(ASHE)"),
    ("SPLASHE",
     "SELECT count(*) FROM tbl WHERE d = 2",
     "table.map(x=>(x(id),x(3))).reduce(ASHE)  -- filter eliminated"),
    ("Group-by optimisation",
     "SELECT g, sum(a) FROM tbl GROUP BY g",
     "map(x=>(x(1)+':'+r%10,(x(id),x(2)))).reduceByKey(ASHE)"),
]


def test_table2_translation_examples(benchmark, translator):
    rows = []
    for name, sql, paper_form in CASES:
        tq = translator.translate(parse_query(sql))
        rows.append((name, sql, _describe(tq)))
    with ResultSink("table2_translation") as sink:
        sink.emit(format_table(
            ["Rewrite", "SQL", "Seabed server request(s)"],
            rows,
            title="Table 2: query translation (structure of rewritten requests)",
        ))

    # Structural assertions mirroring the paper's claims.
    splashe_tq = translator.translate(parse_query(CASES[1][1]))
    assert splashe_tq.requests[0].filter is None  # predicate vanished

    benchmark(lambda: translator.translate(
        parse_query("SELECT sum(a) FROM tbl WHERE b > 10")
    ))
