"""Shared fixtures and the Hypothesis profile of the suite."""

import pytest
from hypothesis import settings

from repro.core.resource_vector import ErvLayout
from repro.platform.topology import odroid_xu3e, raptor_lake_i9_13900k

# Property tests draw the same examples on every run and keep no example
# database, so whether they pass depends on the code alone.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture
def intel():
    return raptor_lake_i9_13900k()


@pytest.fixture
def odroid():
    return odroid_xu3e()


@pytest.fixture
def intel_layout(intel):
    return ErvLayout(intel)


@pytest.fixture
def odroid_layout(odroid):
    return ErvLayout(odroid)
