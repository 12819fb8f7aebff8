import numpy as np
import pytest

from cosymlab import catalog


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(0)


@pytest.fixture(scope="session")
def ho_system():
    return catalog.harmonic_oscillator()


@pytest.fixture(scope="session")
def osc_system():
    return catalog.oscillator_2dof()


@pytest.fixture(scope="session")
def r4_system():
    return catalog.canonical_r4()


@pytest.fixture(scope="session")
def t4_system():
    return catalog.product_system("t3")


@pytest.fixture(scope="session")
def t6_system():
    return catalog.product_system("t5")


@pytest.fixture(scope="session")
def suspension_system():
    return catalog.suspension_rotation()
