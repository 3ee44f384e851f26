"""Shared fixtures for crowd tests.

``CrowdWorld`` construction runs the Table-1 Monte-Carlo calibration
(~0.3 s on a 2-vCPU box), so the default-seed world is built once per
session through the pipeline's worker-side cache and shared by every
test that does not need a custom world.
"""

import pytest

from repro.crowd.pipeline import _world_for
from repro.crowd.sampling import PopulationSpec


@pytest.fixture(scope="session")
def crowd_world():
    return _world_for(PopulationSpec(users=1))
