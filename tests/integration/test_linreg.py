"""Integration tests for the two-round-trip linear regression (2R)."""

import numpy as np
import pytest

from repro.core.session import SeabedSession
from repro.core.schema import ColumnSpec, TableSchema
from repro.errors import TranslationError


@pytest.fixture(scope="module")
def client():
    rng = np.random.default_rng(8)
    n = 2000
    x = rng.integers(0, 1000, n)
    noise = rng.integers(-40, 40, n)
    y = (3 * x + 250 + noise).astype(np.int64)
    year = rng.integers(2014, 2017, n)
    schema = TableSchema("points", [
        ColumnSpec("x", dtype="int", sensitive=True, nbits=32),
        ColumnSpec("y", dtype="int", sensitive=True, nbits=32),
        ColumnSpec("year", dtype="int", sensitive=False),
    ])
    client = SeabedSession(master_key=b"r" * 32, mode="seabed", seed=4)
    client.create_plan(schema, [
        "SELECT sum(x), sum(y), count(*) FROM points",
    ])
    client.upload("points", {"x": x, "y": y, "year": year}, num_partitions=4)
    client._ground_truth = (x, y, year)  # test-only stash
    return client


def test_recovers_slope_and_intercept(client):
    x, y, _ = client._ground_truth
    fit = client.linear_regression("points", "x", "y")
    slope, intercept = np.polyfit(x.astype(float), y.astype(float), 1)
    assert fit.slope == pytest.approx(slope, rel=1e-9)
    assert fit.intercept == pytest.approx(intercept, rel=1e-9)
    assert fit.r_squared > 0.99
    assert fit.n == len(x)


def test_two_round_trips_accounted(client):
    fit = client.linear_regression("points", "x", "y")
    assert fit.round_trips == 2
    assert len(fit.request_metrics) == 2
    assert client.cluster.model(fit.request_metrics).total_s > 0


def test_filtered_regression(client):
    x, y, year = client._ground_truth
    fit = client.linear_regression("points", "x", "y", where="year = 2015")
    mask = year == 2015
    slope, intercept = np.polyfit(x[mask].astype(float), y[mask].astype(float), 1)
    assert fit.slope == pytest.approx(slope, rel=1e-9)
    assert fit.n == int(mask.sum())


def test_empty_selection_rejected(client):
    with pytest.raises(TranslationError, match="empty selection"):
        client.linear_regression("points", "x", "y", where="year = 1900")


def test_zero_variance_rejected():
    schema = TableSchema("flat", [
        ColumnSpec("x", dtype="int", sensitive=True),
        ColumnSpec("y", dtype="int", sensitive=True),
    ])
    client = SeabedSession(mode="seabed", seed=1)
    client.create_plan(schema, ["SELECT sum(x), sum(y), count(*) FROM flat"])
    client.upload("flat", {"x": np.full(10, 5), "y": np.arange(10)})
    with pytest.raises(TranslationError, match="zero variance"):
        client.linear_regression("flat", "x", "y")
