import pytest
from helpers import level34_order

from quatlift import fixture as fx
from quatlift.quatcore import class_set


@pytest.fixture(scope="session")
def algebra():
    return fx.fixture_algebra()


@pytest.fixture(scope="session")
def class_set_17():
    return fx.fixture_class_set()


@pytest.fixture(scope="session")
def space0():
    return fx.fixture_space(0)


@pytest.fixture(scope="session")
def space1():
    return fx.fixture_space(1)


@pytest.fixture(scope="session")
def golden_130():
    return fx.golden_lift(130)


@pytest.fixture(scope="session")
def cs34():
    return class_set(level34_order(), 3)
