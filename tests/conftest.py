"""Shared fixtures and hypothesis configuration."""

import pytest
from hypothesis import HealthCheck, settings

from tarpath.instance import NoiseModel, PLInstance

from .reference import fixture_e1, fixture_e2

settings.register_profile(
    "suite",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def e1() -> PLInstance:
    return fixture_e1(noise=None)


@pytest.fixture(scope="session")
def e2() -> PLInstance:
    return fixture_e2(noise=None)


@pytest.fixture(scope="session")
def e2_bernoulli() -> PLInstance:
    return fixture_e2(noise=NoiseModel.bernoulli())
