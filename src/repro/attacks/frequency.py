"""Frequency attacks on deterministic encryption (Naveed et al., CCS'15).

The attack the paper defends against with SPLASHE (Sections 1-3): an
honest-but-curious server observing a deterministically encrypted column
sees the exact histogram of ciphertexts.  Armed with auxiliary knowledge
of the plaintext distribution (census data, public statistics), it matches
ciphertext frequencies to plaintext frequencies and decrypts the column
without any key material.

Two matchers are provided:

- :func:`frequency_attack` with ``method="sort"`` -- the classic attack:
  sort both histograms and align by rank.
- ``method="optimal"`` -- an l1-cost optimal assignment (Hungarian
  algorithm via :func:`scipy.optimize.linear_sum_assignment`), the
  strongest frequency-only adversary.

The result reports the fraction of *values* recovered and the fraction of
*rows* exposed, which the SPLASHE tests drive to chance level.

:func:`audit_zone_maps` extends the adversarial toolkit to the zone-map
index (:mod:`repro.index`): it verifies that every published index
artifact is **exactly recomputable by a keyless server from the
ciphertext columns it already stores** -- a DET column's artifact is
its partition's dictionary, exactly the distinct tokens its rows hold,
ORE bounds are member rows found with the public Compare, and no
artifact exists for a semantically secure (ASHE/Paillier) column.
Anything that fails recomputation must have been derived from plaintext
knowledge and is reported as a leakage violation.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Any, Hashable, Mapping, Sequence

import numpy as np

from repro.errors import SeabedError


@dataclass
class FrequencyAttackResult:
    """Outcome of one frequency-matching attack."""

    guesses: dict[Any, Hashable]  # ciphertext -> guessed plaintext value
    value_accuracy: float  # fraction of distinct values guessed correctly
    row_accuracy: float  # fraction of rows whose value the guess exposes
    num_ciphertexts: int

    def summary(self) -> str:
        return (
            f"{self.value_accuracy:.0%} of values recovered, "
            f"{self.row_accuracy:.0%} of rows exposed "
            f"({self.num_ciphertexts} distinct ciphertexts)"
        )


def frequency_attack(
    ciphertexts: Sequence[Any] | np.ndarray,
    auxiliary_distribution: Mapping[Hashable, float],
    true_mapping: Mapping[Any, Hashable] | None = None,
    method: str = "sort",
) -> FrequencyAttackResult:
    """Match ciphertext frequencies against an auxiliary distribution.

    ``ciphertexts`` is the encrypted column as the server sees it.
    ``auxiliary_distribution`` maps plaintext values to (relative)
    expected frequencies.  ``true_mapping`` (ciphertext -> true plaintext),
    when supplied, scores the attack; it exists only for evaluation and is
    never used to form guesses.
    """
    if method not in ("sort", "optimal"):
        raise SeabedError(f"unknown attack method {method!r}")
    counts = Counter(np.asarray(ciphertexts).tolist())
    if not counts:
        raise SeabedError("empty ciphertext column")
    total_rows = sum(counts.values())
    observed = sorted(counts.items(), key=lambda kv: -kv[1])
    aux_total = float(sum(auxiliary_distribution.values()))
    aux = sorted(
        ((v, f / aux_total) for v, f in auxiliary_distribution.items()),
        key=lambda kv: -kv[1],
    )

    if method == "sort":
        guesses = {
            ct: aux[rank][0]
            for rank, (ct, _n) in enumerate(observed)
            if rank < len(aux)
        }
    else:
        guesses = _optimal_assignment(observed, aux, total_rows)

    value_acc = 0.0
    row_acc = 0.0
    if true_mapping is not None:
        correct_values = sum(
            1 for ct, guess in guesses.items() if true_mapping.get(ct) == guess
        )
        value_acc = correct_values / len(counts)
        correct_rows = sum(
            counts[ct] for ct, guess in guesses.items()
            if true_mapping.get(ct) == guess
        )
        row_acc = correct_rows / total_rows
    return FrequencyAttackResult(
        guesses=guesses,
        value_accuracy=value_acc,
        row_accuracy=row_acc,
        num_ciphertexts=len(counts),
    )


def _optimal_assignment(
    observed: list[tuple[Any, int]],
    aux: list[tuple[Hashable, float]],
    total_rows: int,
) -> dict[Any, Hashable]:
    """Min-cost matching between observed and expected frequencies."""
    from scipy.optimize import linear_sum_assignment

    obs_freq = np.array([n / total_rows for _, n in observed])
    aux_freq = np.array([f for _, f in aux])
    cost = np.abs(obs_freq[:, None] - aux_freq[None, :])
    rows, cols = linear_sum_assignment(cost)
    return {observed[r][0]: aux[c][0] for r, c in zip(rows, cols)}


#: Encryption schemes whose ciphertexts are semantically secure: *no*
#: zone-map artifact may discriminate on them -- any statistic that did
#: would necessarily come from plaintext knowledge.
_SEMANTIC_SCHEMES = ("ashe", "paillier")


@dataclass
class ZoneMapAuditResult:
    """Outcome of auditing a table's zone maps against its ciphertexts."""

    partitions_checked: int
    artifacts_checked: int
    violations: list[str]

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        state = "ok" if self.ok else f"{len(self.violations)} violation(s)"
        return (
            f"zone-map audit: {self.artifacts_checked} artifacts over "
            f"{self.partitions_checked} partitions -- {state}"
        )


def _audit_spec(name: str, arr: np.ndarray, enc: str | None) -> dict:
    """The store's manifest column spec for ``arr`` (shared derivation:
    the audit must see exactly what the stats builder saw at write time),
    tolerating non-storable columns on ad-hoc in-memory tables."""
    from repro.engine.store import _column_spec

    try:
        spec = _column_spec(name, arr)
    except SeabedError:
        spec = {"dtype": None, "ndim": int(arr.ndim), "width": 1}
    if enc is not None:
        spec["enc"] = enc
    return spec


def _same_artifact(artifact: dict, expected: dict | None) -> bool:
    """Equal artifacts, a DET artifact's token array compared by value."""
    if expected is None or artifact.keys() != expected.keys():
        return False
    return all(np.array_equal(artifact[k], expected[k]) for k in expected)


def audit_zone_maps(
    table: Any, column_meta: Mapping[str, str] | None = None
) -> ZoneMapAuditResult:
    """Assert a table's zone maps leak nothing beyond the DET/ORE
    ciphertext baseline.

    ``table`` is a :class:`repro.engine.table.Table` whose ``zone_maps``
    were parsed from a store manifest; ``column_meta`` (physical column
    -> encryption scheme, as the manifest records it) tightens the check
    by flagging artifacts on semantically secure columns outright.

    The core criterion is *recomputability*: each partition's published
    statistics must equal what
    :func:`repro.index.zonemap.build_partition_stats` derives from the
    stored ciphertext columns alone, and each DET artifact the distinct
    tokens the column's rows hold.  The honest-but-curious server can
    run that builder itself, so a matching artifact gives it nothing it
    did not already have; a mismatching one encodes outside knowledge
    and is reported as a violation.
    """
    from repro.engine.table import Partition
    from repro.index.zonemap import (
        build_partition_stats,
        classify_column,
        join_dictionaries,
    )

    zone_maps = list(getattr(table, "zone_maps", None) or [])
    violations: list[str] = []
    artifacts = 0
    checked = 0
    for index, (part, stats) in enumerate(zip(table.partitions, zone_maps)):
        if not stats:
            continue
        checked += 1
        if int(stats.get("rows", -1)) != part.nrows:
            violations.append(
                f"partition {index}: stats claim {stats.get('rows')} rows, "
                f"column files hold {part.nrows}"
            )
        # Recompute from the tokens the rows hold, not from a stored
        # dictionary, which must itself be exactly those distinct tokens.
        decoded = Partition({n: part.column(n) for n in part.columns}, part.start_id)
        specs = {
            name: _audit_spec(
                name, arr, column_meta.get(name) if column_meta else None
            )
            for name, arr in decoded.columns.items()
        }
        distinct = {name: np.unique(arr) for name, arr in decoded.columns.items()
                    if classify_column(name, specs[name]) == "det"}
        for name, dictionary in part.dictionaries.items():
            if not np.array_equal(dictionary, distinct.get(name)):
                violations.append(
                    f"partition {index}: column {name!r} dictionary is not the "
                    "distinct tokens its rows hold"
                )
        expected = join_dictionaries(build_partition_stats(decoded, specs), distinct)
        for name, artifact in stats.get("columns", {}).items():
            artifacts += 1
            if name not in part.columns:
                violations.append(
                    f"partition {index}: artifact for column {name!r} which "
                    "the server does not even store"
                )
                continue
            if column_meta and column_meta.get(name) in _SEMANTIC_SCHEMES:
                violations.append(
                    f"partition {index}: column {name!r} is "
                    f"{column_meta[name]}-encrypted (semantically secure) but "
                    f"carries a {artifact.get('kind')!r} artifact"
                )
                continue
            kind = classify_column(name, specs[name])
            if artifact.get("kind") != kind:
                violations.append(
                    f"partition {index}: column {name!r} stats kind "
                    f"{artifact.get('kind')!r} does not match the stored "
                    f"ciphertext shape ({kind!r})"
                )
                continue
            if not _same_artifact(artifact, expected["columns"].get(name)):
                violations.append(
                    f"partition {index}: column {name!r} {kind} artifact is "
                    "not recomputable from the stored ciphertexts -- it "
                    "encodes information beyond the encryption-mode baseline"
                )
    return ZoneMapAuditResult(
        partitions_checked=checked,
        artifacts_checked=artifacts,
        violations=violations,
    )


def uniformity_chi2(ciphertexts: Sequence[Any] | np.ndarray) -> float:
    """Chi-square p-value that the ciphertext histogram is uniform.

    Used by the SPLASHE security tests: the enhanced-SPLASHE DET column
    should be statistically indistinguishable from uniform, leaving a
    frequency attacker at chance.
    """
    from scipy.stats import chisquare

    counts = np.asarray(list(Counter(np.asarray(ciphertexts).tolist()).values()))
    if counts.size < 2:
        return 1.0
    return float(chisquare(counts).pvalue)
