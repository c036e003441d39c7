"""The advertising-analytics workload (paper Section 6.6, Figure 10).

Substitution note: the paper uses a proprietary
enterprise dataset (759M rows, 33 dimensions, 18 measures; 10 of each
sensitive) and a 168,352-query production log.  Both are reproduced
synthetically from the published shape:

- the schema has 33 dimensions with cardinalities spanning 2..10^4 and 18
  integer measures; 10 dimensions and 10 measures are marked sensitive;
- dimension values follow Zipf distributions (enhanced SPLASHE's storage
  win depends on exactly this skew);
- the query log consists of sum aggregations over measures grouped by
  hour-of-day with 1-12 groups per query (Section 6.6: "the queries are
  all aggregations that calculate sums of various measures while grouping
  by timestamp"), with ~20% requiring client post-processing, matching
  the published Table 4 split (134,298 server-only / 34,054
  post-processing out of 168,352).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.core.classify import QueryFeatures
from repro.core.schema import ColumnSpec, TableSchema
from repro.errors import SeabedError
from repro.workloads.distributions import zipf_choice, zipf_probabilities

#: Table 4's published counts for the ad-analytics log.
PAPER_LOG_TOTAL = 168_352
PAPER_LOG_SERVER = 134_298
PAPER_LOG_POST = 34_054

#: Dimension cardinalities: 33 dims spanning tiny enums to high-cardinality
#: identifiers; the 10 *sensitive* dimensions (the ones Figure 10b splay)
#: are listed smallest-first, mirroring the planner's prioritisation.
SENSITIVE_DIM_CARDINALITIES = [2, 3, 5, 8, 16, 24, 48, 96, 200, 1000]
#: 22 public dimensions; with ``hour`` and the 10 sensitive dimensions the
#: table has the paper's 33 dimensions in total.
PUBLIC_DIM_CARDINALITIES = [
    7, 12, 31, 4, 6, 10, 15, 20, 30, 50, 60, 80, 100, 150, 250, 400,
    600, 800, 1200, 2000, 5000, 10_000,
]

NUM_MEASURES = 18
NUM_SENSITIVE_MEASURES = 10


@dataclass
class AdAnalyticsDataset:
    columns: dict[str, np.ndarray]
    schema: TableSchema
    sensitive_dims: list[str]
    measures: list[str]


def expected_dim_counts(cardinality: int, rows: int) -> list[int]:
    """Expected per-value counts for a sensitive dimension (Zipf 1.2)."""
    probs = zipf_probabilities(cardinality, 1.2)
    return [int(round(p * rows)) + 1 for p in probs]


def dimension_name(index: int, sensitive: bool) -> str:
    return f"sdim{index:02d}" if sensitive else f"pdim{index:02d}"


def measure_name(index: int) -> str:
    return f"measure{index:02d}"


def generate(rows: int = 20_000, seed: int = 0) -> AdAnalyticsDataset:
    """Generate the ad-analytics table at the requested scale."""
    if rows < 1:
        raise SeabedError("rows must be positive")
    rng = np.random.default_rng(seed)
    columns: dict[str, np.ndarray] = {}
    specs: list[ColumnSpec] = []

    # hour-of-day is the grouping dimension every logged query uses.
    columns["hour"] = rng.integers(0, 24, rows).astype(np.int64)
    specs.append(ColumnSpec("hour", dtype="int", sensitive=False))

    sensitive_dims = []
    for i, card in enumerate(SENSITIVE_DIM_CARDINALITIES):
        name = dimension_name(i, sensitive=True)
        sensitive_dims.append(name)
        codes = zipf_choice(rng, card, rows, exponent=1.2)
        columns[name] = codes.astype(np.int64)
        probs = zipf_probabilities(card, 1.2)
        specs.append(ColumnSpec(
            name, dtype="int", sensitive=True,
            distinct_values=list(range(card)),
            value_counts={c: int(round(p * rows)) + 1 for c, p in enumerate(probs)},
        ))
    for i, card in enumerate(PUBLIC_DIM_CARDINALITIES):
        name = dimension_name(i, sensitive=False)
        columns[name] = zipf_choice(rng, card, rows, exponent=1.05).astype(np.int64)
        specs.append(ColumnSpec(name, dtype="int", sensitive=False))

    measures = []
    for i in range(NUM_MEASURES):
        name = measure_name(i)
        measures.append(name)
        columns[name] = rng.integers(0, 10_000, rows).astype(np.int64)
        specs.append(ColumnSpec(
            name, dtype="int", sensitive=i < NUM_SENSITIVE_MEASURES, nbits=32
        ))
    return AdAnalyticsDataset(
        columns=columns,
        schema=TableSchema("ad_analytics", specs),
        sensitive_dims=sensitive_dims,
        measures=measures,
    )


def stream_batches(
    dataset: AdAnalyticsDataset, num_batches: int
) -> Iterator[dict[str, np.ndarray]]:
    """Replay the dataset as *arriving* traffic: consecutive row batches.

    The paper's flagship workload is continuous ad-analytics ingestion
    (Section 3.1 motivates ASHE with exactly this write rate); this
    slices the generated table into ``num_batches`` consecutive batches
    so the upload can be driven as a stream -- first batch through
    ``SeabedSession.upload``, the rest through ``append_rows`` (see
    :func:`repro.workloads.persist.ingest_stream`).
    """
    if num_batches < 1:
        raise SeabedError("num_batches must be positive")
    nrows = len(next(iter(dataset.columns.values())))
    bounds = np.linspace(0, nrows, num_batches + 1).astype(np.int64)
    for i in range(num_batches):
        lo, hi = int(bounds[i]), int(bounds[i + 1])
        if lo == hi:
            continue
        yield {name: arr[lo:hi] for name, arr in dataset.columns.items()}


def sample_queries(dataset: AdAnalyticsDataset) -> list[str]:
    """Sample set: hour-grouped sums over each sensitive measure plus
    equality filters on each sensitive dimension (so the planner splays
    the right measure columns)."""
    queries = []
    for i in range(NUM_SENSITIVE_MEASURES):
        queries.append(
            f"SELECT hour, sum({measure_name(i)}) FROM ad_analytics GROUP BY hour"
        )
    for dim in dataset.sensitive_dims:
        queries.append(
            f"SELECT sum({measure_name(0)}), sum({measure_name(1)}) "
            f"FROM ad_analytics WHERE {dim} = 0"
        )
    return queries


# -- the production query log -----------------------------------------------------


@dataclass(frozen=True)
class LoggedQuery:
    """One entry of the synthetic production log."""

    sql: str
    num_groups: int
    features: QueryFeatures

    @property
    def category(self) -> str:
        return self.features.category()


def generate_query_log(
    num_queries: int = 2000, seed: int = 0
) -> list[LoggedQuery]:
    """Synthesise a query log with the published structural mix.

    Group counts concentrate on 1-12 (Section 6.6); the post-processing
    fraction matches Table 4's 34,054 / 168,352 ~ 20.2%.
    """
    rng = np.random.default_rng(seed)
    post_fraction = PAPER_LOG_POST / PAPER_LOG_TOTAL
    log: list[LoggedQuery] = []
    for _ in range(num_queries):
        measure = measure_name(int(rng.integers(0, NUM_SENSITIVE_MEASURES)))
        num_groups = int(rng.choice([1, 2, 4, 6, 8, 12],
                                    p=[0.35, 0.15, 0.2, 0.1, 0.15, 0.05]))
        if num_groups == 1:
            hour = int(rng.integers(0, 24))
            sql = (
                f"SELECT sum({measure}) FROM ad_analytics WHERE hour = {hour}"
            )
        else:
            hi = int(rng.integers(num_groups - 1, 24))
            lo = hi - num_groups + 1
            sql = (
                f"SELECT hour, sum({measure}) FROM ad_analytics "
                f"WHERE hour BETWEEN {lo} AND {hi} GROUP BY hour"
            )
        needs_post = bool(rng.random() < post_fraction)
        features = QueryFeatures(
            aggregates=frozenset({"sum"}),
            returns_data_for_client_compute=needs_post,
        )
        log.append(LoggedQuery(sql=sql, num_groups=num_groups, features=features))
    return log


def figure10a_queries(seed: int = 0) -> list[LoggedQuery]:
    """The 15 measurement queries of Figure 10a: five each at group sizes
    1, 4 and 8."""
    rng = np.random.default_rng(seed)
    queries: list[LoggedQuery] = []
    for num_groups in (1, 4, 8):
        for _ in range(5):
            measure = measure_name(int(rng.integers(0, NUM_SENSITIVE_MEASURES)))
            if num_groups == 1:
                hour = int(rng.integers(0, 24))
                sql = f"SELECT sum({measure}) FROM ad_analytics WHERE hour = {hour}"
            else:
                hi = int(rng.integers(num_groups - 1, 24))
                lo = hi - num_groups + 1
                sql = (
                    f"SELECT hour, sum({measure}) FROM ad_analytics "
                    f"WHERE hour BETWEEN {lo} AND {hi} GROUP BY hour"
                )
            queries.append(LoggedQuery(
                sql=sql, num_groups=num_groups,
                features=QueryFeatures(aggregates=frozenset({"sum"})),
            ))
    return queries
