"""Flow-fidelity tests: isolate every run-level knob per test."""

import pytest


@pytest.fixture(autouse=True)
def _isolated_flow_env(isolated_env):
    """Every test in this directory opts into the shared fixture."""
