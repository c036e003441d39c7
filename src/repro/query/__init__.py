"""Query layer: a SQL-subset AST, parser, and plaintext executor.

Seabed's query translator (paper Section 4.4) consumes the client's
unmodified analytical queries and rewrites them for the encrypted schema.
This package supplies the plaintext side of that pipeline:

- :mod:`repro.query.ast` -- the query AST (aggregations, predicates,
  group-by, joins) shared by the planner, translator, and executors.
- :mod:`repro.query.parser` -- a recursive-descent parser for the
  OLAP-style SQL subset the paper's workloads use, including ``:name``
  parameter placeholders.
- :mod:`repro.query.executor` -- a direct numpy executor over plaintext
  columns: the ground truth for every correctness test and the NoEnc
  baseline semantics.
"""

from repro.query.ast import (
    Aggregate,
    And,
    Between,
    ColumnRef,
    Comparison,
    InList,
    JoinClause,
    Not,
    Or,
    Param,
    Query,
)
from repro.query.executor import execute_plain
from repro.query.parser import parse_query

__all__ = [
    "Aggregate",
    "And",
    "Between",
    "ColumnRef",
    "Comparison",
    "InList",
    "JoinClause",
    "Not",
    "Or",
    "Param",
    "Query",
    "execute_plain",
    "parse_query",
]
