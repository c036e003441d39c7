"""Fixtures shared by the integration suites."""

import pytest
from placement import PLACEMENTS, Placement


@pytest.fixture(params=PLACEMENTS)
def placed(request, tmp_path):
    """The placement a lifecycle test runs under (see ``placement.py``)."""
    placement = Placement(request.param, tmp_path)
    yield placement
    placement.close()
