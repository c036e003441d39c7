"""Encrypted zone-map index: per-partition statistics + partition pruning.

The untrusted server already stores every ciphertext column; this
package lets it *skip* partitions a predicate provably cannot match,
using only artifacts derivable from those ciphertexts (cf. the paper's
threat model, Section 2: anything the server can compute from what it
stores is leakage it already has).

- :mod:`repro.index.zonemap` -- builds per-partition statistics (ORE
  min/max ciphertexts, plain min/max, row counts) from ciphertext
  columns only, and joins each DET column's dictionary -- the
  partition's exact distinct tokens -- in as that column's artifact.
- :mod:`repro.index.prune` -- walks a translated server-side filter and
  intersects per-conjunct survivor sets, conservatively keeping a
  partition on any uncertainty so pruned execution stays bit-identical.
"""

from repro.index.prune import extreme_candidates, survivors
from repro.index.zonemap import build_partition_stats, stats_summary

__all__ = [
    "build_partition_stats",
    "extreme_candidates",
    "stats_summary",
    "survivors",
]
