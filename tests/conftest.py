import numpy as np
import pytest

from varadhanlab import presets
from varadhanlab.noise import ControlH, GridSpec, lattice


def pytest_addoption(parser):
    parser.addoption("--runslow", action="store_true", default=False,
                     help="run slow validation experiments")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--runslow"):
        return
    skip = pytest.mark.skip(reason="slow experiment: use --runslow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)


@pytest.fixture(scope="session")
def mc_grid():
    return presets.mc_grid()


@pytest.fixture(scope="session")
def tiny_grid():
    return presets.tiny_grid()


@pytest.fixture(scope="session")
def small_grid():
    """First-variation scaling grid."""
    return GridSpec(L=1.25, nx=32, nt=32, T=1.0, nk=16, seed=7)


@pytest.fixture(scope="session")
def linear_model():
    return presets.linear_model()


@pytest.fixture(scope="session")
def nonlinear_model():
    return presets.nonlinear_model()


@pytest.fixture()
def rng():
    return np.random.default_rng(20240901)


def random_control(grid, cov, rng, scale=1.0):
    lat = lattice(cov, grid)
    return ControlH(lat, scale * rng.standard_normal((grid.nt, lat.ncoords)))
