"""Seabed core: planner, encryption module, translator, server, decryptor.

This package is the paper's Figure 5 in code:

- :mod:`repro.core.schema` -- plaintext schemas and the encrypted-schema
  plans the planner produces.
- :mod:`repro.core.planner` -- classifies columns as dimensions/measures
  from a sample query set and picks encryption schemes (Section 4.2).
- :mod:`repro.core.splashe` -- basic and enhanced SPLASHE transforms
  (Sections 3.3-3.4), including the `k`-selection rule and the
  dummy-entry frequency balancing.
- :mod:`repro.core.encryptor` -- the client-side encryption module
  (Section 4.3).
- :mod:`repro.core.translator` -- rewrites plaintext queries for the
  encrypted schema (Section 4.4, Table 2).
- :mod:`repro.core.server` -- the untrusted server: filter evaluation over
  tokens, ASHE aggregation with ID-list construction, group-by with one
  row set per group key (Section 4.5).
- :mod:`repro.core.decryptor` -- client-side decryption and
  post-processing (Section 4.6).
- :mod:`repro.core.session` -- the :class:`SeabedSession` facade tying it
  all together (prepared queries, translation cache, NoEnc and Paillier
  baseline modes) and the one table lifecycle (upload, append, compact,
  attach) over single-store and sharded placement.
- :mod:`repro.core.transport` -- the session's execution boundary and
  the store host every serving process shares.
"""

from repro.core.schema import ColumnSpec, Sensitivity, TableSchema
from repro.core.session import PreparedQuery, SeabedSession

__all__ = [
    "ColumnSpec",
    "PreparedQuery",
    "SeabedSession",
    "Sensitivity",
    "TableSchema",
]
