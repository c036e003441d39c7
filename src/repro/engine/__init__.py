"""Execution substrate: a simulated-cluster columnar engine.

The paper's prototype runs on Apache Spark over an Azure HDInsight cluster
(tens of 16-core nodes).  This package replaces that substrate with a
deliberately transparent equivalent:

- :mod:`repro.engine.table` -- partitioned columnar tables (the "HDFS +
  cached RDD" role), with contiguous row IDs per partition.
- :mod:`repro.engine.cluster` -- a :class:`SimulatedCluster` that executes
  per-partition tasks for real, in the calling thread, and measures them,
  and ``model()``, the one pure function that turns those measurements
  into paper-scale latency: it schedules the measured durations onto N
  simulated cores and charges shuffle and client transfer to a
  bandwidth/latency link.  It is the only account of multi-core scaling.
- :mod:`repro.engine.metrics` -- per-stage and per-job measurements
  (task seconds, wall-clock, bytes, counters); nothing modelled.
- :mod:`repro.engine.storage` -- table serialisation and the disk /
  memory accounting behind the paper's Table 5.
- :mod:`repro.engine.store` -- the persistent columnar partition store:
  encrypted columns as raw little-endian buffers on disk, loaded back as
  read-only memory maps.  An opened table is one generation's snapshot
  and stage tasks receive its partitions, so a query keeps reading that
  snapshot while appends and compactions publish newer ones.

The simulation preserves the *shape* of the paper's scaling experiments
(latency vs rows, vs cores, vs selectivity) because every code path that
costs time in the paper -- per-partition aggregation, ID-list encoding,
worker-side compression, shuffle volume, driver merge -- executes for real
here; only the placement of tasks onto cores is simulated, and only by
whoever calls ``model()`` -- production telemetry carries measurements.
"""

from repro.engine.cluster import ClusterConfig, SimulatedCluster
from repro.engine.metrics import JobMetrics, StageMetrics
from repro.engine.store import open_store, write_store
from repro.engine.table import Partition, Table

__all__ = [
    "ClusterConfig",
    "JobMetrics",
    "Partition",
    "SimulatedCluster",
    "StageMetrics",
    "Table",
    "open_store",
    "write_store",
]
