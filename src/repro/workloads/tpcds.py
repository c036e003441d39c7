"""A feature catalog of the 99 TPC-DS queries (paper Table 4).

Substitution note: the paper classified the TPC-DS query set
manually.  We reproduce that analysis with a feature catalog
derived from the public TPC-DS v2 query templates: each query is tagged
with the structural features that determine Seabed support, and the
category comes from the shared classifier.

Feature assignment, approximating the published analysis:

- ``2R`` (3 queries): the customer-total-return pattern (q1, q30, q81)
  compares each customer's aggregate against 1.2x a per-group average of
  the same intermediate -- the intermediate must return to the client,
  be re-encrypted, and feed a second round.
- ``CPre`` (2 queries): q17 and q39 compute stdev/variance, needing
  client-squared columns.
- ``CPost`` (25 queries): window functions (rank/over), ROLLUP/grouping
  sets, and ratio-of-aggregates reporting that Seabed finishes at the
  client.
- ``S`` (69 queries): plain filtered/grouped sums, counts and averages.

Expected totals (paper Table 4, "TPC-DS" row): 99 / 69 / 2 / 25 / 3.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.classify import QueryFeatures

#: Queries whose templates use window functions (RANK/SUM OVER),
#: ROLLUP/GROUPING, or ratio post-processing.
_CPOST_QUERIES = frozenset({
    5, 9, 12, 14, 18, 20, 22, 23, 24, 27, 36, 44, 47, 49, 51, 53, 57,
    63, 67, 70, 77, 80, 86, 89, 98,
})
#: Queries computing stdev/variance.
_CPRE_QUERIES = frozenset({17, 39})
#: The customer-total-return two-round pattern.
_TWO_ROUND_QUERIES = frozenset({1, 30, 81})


@dataclass(frozen=True)
class TpcdsQuery:
    number: int
    features: QueryFeatures

    @property
    def name(self) -> str:
        return f"q{self.number}"

    @property
    def category(self) -> str:
        return self.features.category()


def catalog() -> list[TpcdsQuery]:
    queries = []
    for n in range(1, 100):
        if n in _TWO_ROUND_QUERIES:
            features = QueryFeatures(iterative=True)
        elif n in _CPRE_QUERIES:
            features = QueryFeatures(aggregates=frozenset({"stddev"}))
        elif n in _CPOST_QUERIES:
            features = QueryFeatures(returns_data_for_client_compute=True)
        else:
            features = QueryFeatures(aggregates=frozenset({"sum", "count", "avg"}))
        queries.append(TpcdsQuery(number=n, features=features))
    return queries


#: Paper Table 4, TPC-DS row.
PAPER_COUNTS = {"Total": 99, "S": 69, "CPre": 2, "CPost": 25, "2R": 3}


def category_counts() -> dict[str, int]:
    counts = {"Total": 99, "S": 0, "CPre": 0, "CPost": 0, "2R": 0}
    for q in catalog():
        counts[q.category] += 1
    return counts
