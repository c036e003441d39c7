"""Seabed reproduction: big-data analytics over encrypted datasets.

This package reimplements the system described in *Big Data Analytics over
Encrypted Datasets with Seabed* (OSDI 2016): the ASHE and SPLASHE encryption
schemes, the Seabed planner / encryptor / translator / decryptor pipeline,
a Paillier baseline, and a simulated-cluster columnar engine standing in for
the paper's Spark deployment.

Public entry points:

- :class:`repro.core.session.SeabedSession` -- the client-side session
  facade (plan, upload, ``prepare``/cached ``query`` over SQL text, scan,
  linear_regression).
- :class:`repro.core.session.PreparedQuery` -- translate once, execute
  many times with bound parameters (``:name`` placeholders in the SQL,
  :class:`repro.query.ast.Param` in a parsed query).
- :class:`repro.core.session.EncryptedTable` -- the one table handle
  (save / append / compact, and the sharding levers).
- :class:`repro.core.schema.TableSchema` / :class:`ColumnSpec` -- schema
  declarations fed to the planner.
- :mod:`repro.crypto` -- ASHE, DET, ORE, Paillier, PRFs.
- :mod:`repro.engine` -- the execution substrate.
- :mod:`repro.workloads` -- dataset and query-set generators used by the
  benchmark harness.
- :func:`repro.serve` / :func:`repro.connect` -- host stores behind the
  threaded TCP service and open sessions against it over the wire
  (:mod:`repro.net`).
"""

__version__ = "0.1.0"

__all__ = [
    "AppendStats",
    "ColumnSpec",
    "EncryptedTable",
    "LocalTransport",
    "Param",
    "PreparedQuery",
    "RemoteTransport",
    "SeabedSession",
    "TableSchema",
    "Transport",
    "__version__",
    "connect",
    "serve",
]

_LAZY = {
    "AppendStats": ("repro.core.session", "AppendStats"),
    "SeabedSession": ("repro.core.session", "SeabedSession"),
    "EncryptedTable": ("repro.core.session", "EncryptedTable"),
    "PreparedQuery": ("repro.core.session", "PreparedQuery"),
    "Param": ("repro.query.ast", "Param"),
    "ColumnSpec": ("repro.core.schema", "ColumnSpec"),
    "TableSchema": ("repro.core.schema", "TableSchema"),
    "Transport": ("repro.core.transport", "Transport"),
    "LocalTransport": ("repro.core.transport", "LocalTransport"),
    "RemoteTransport": ("repro.net.client", "RemoteTransport"),
    "connect": ("repro.net.client", "connect"),
    "serve": ("repro.net.service", "serve"),
}


def __getattr__(name):
    # Lazy imports keep `import repro` cheap and break no subpackage cycles.
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module 'repro' has no attribute {name!r}") from None
    import importlib

    return getattr(importlib.import_module(module_name), attr)
