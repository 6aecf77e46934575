import pytest

from frontwave.model import ModelParams, Nonlinearity, compute_equilibrium
from frontwave.semiwave import find_c0


@pytest.fixture(scope="session")
def s1_nl():
    # symmetric benchmark: H(z) = G(z) = 2z/(1+z), unit rates and diffusivities
    return Nonlinearity(2.0, 1.0, 2.0, 1.0)


@pytest.fixture(scope="session")
def s1_neumann():
    return ModelParams(d1=1.0, d2=1.0, a=1.0, b=1.0, mu1=1.0, mu2=1.0, boundary="neumann")


@pytest.fixture(scope="session")
def s1_dirichlet():
    return ModelParams(d1=1.0, d2=1.0, a=1.0, b=1.0, mu1=1.0, mu2=1.0, boundary="dirichlet")


@pytest.fixture(scope="session")
def s1_eq(s1_nl, s1_neumann):
    return compute_equilibrium(s1_nl, s1_neumann)


@pytest.fixture(scope="session")
def s1_c0(s1_nl, s1_neumann):
    """Free-boundary speed and its profile at default resolution."""
    return find_c0(s1_nl, s1_neumann)
