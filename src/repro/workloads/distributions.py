"""Skewed value distributions for workload generation.

The ad-analytics dimensions and the Big Data Benchmark URL popularity are
heavily skewed; enhanced SPLASHE's storage win (Section 3.4) exists
*because* of that skew.  These helpers produce bounded Zipf-like samples
with explicit probability vectors, so the planner's ``value_counts`` input
can be derived from the same distribution the generator used.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SeabedError


def zipf_probabilities(cardinality: int, exponent: float = 1.1) -> np.ndarray:
    """Normalised Zipf probabilities over ``cardinality`` ranks."""
    if cardinality < 1:
        raise SeabedError("cardinality must be positive")
    ranks = np.arange(1, cardinality + 1, dtype=np.float64)
    weights = ranks ** (-exponent)
    return weights / weights.sum()


def zipf_choice(
    rng: np.random.Generator,
    cardinality: int,
    size: int,
    exponent: float = 1.1,
) -> np.ndarray:
    """Sample ``size`` codes in ``[0, cardinality)`` with Zipf skew."""
    return rng.choice(cardinality, size=size, p=zipf_probabilities(cardinality, exponent))
