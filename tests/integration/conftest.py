"""Shared fixtures for integration tests."""

import pytest

from repro.core.middleware import PogoSimulation


@pytest.fixture
def sim():
    return PogoSimulation(seed=1234)
