"""Ready-made models and grids for the desk-scale experiments."""

from __future__ import annotations

from .covkernel import CovarianceSpec
from .funcs import B_DEFAULT, ONE, SIGMA_DEFAULT, ZERO
from .noise import GridSpec
from .solver import ModelSpec, ZeroInitial

WAVE_WHITE = CovarianceSpec("wave", 1, "white")
HEAT_WHITE = CovarianceSpec("heat", 1, "white")


def linear_model(eps: float = 1.0, cov: CovarianceSpec = WAVE_WHITE) -> ModelSpec:
    """Additive-noise oracle: sigma = 1, b = 0, w = 0."""
    return ModelSpec(cov, ONE, ZERO, ZeroInitial(), eps, 1.0)


def nonlinear_model(eps: float = 1.0, cov: CovarianceSpec = WAVE_WHITE) -> ModelSpec:
    """Default smooth test model: sigma = 1 + cos(u)/4 (>= 3/4), b = tanh(u)/2."""
    return ModelSpec(cov, SIGMA_DEFAULT, B_DEFAULT, ZeroInitial(), eps, 0.75)


def mc_grid(seed: int = 7) -> GridSpec:
    """Ensemble grid for d=1 wave experiments at t = 1 (L > |x| + T)."""
    return GridSpec(L=1.25, nx=128, nt=64, T=1.0, nk=64, seed=seed)


def tiny_grid(seed: int = 7) -> GridSpec:
    """Smallest sensible grid; adjoint/forward oracle comparisons."""
    return GridSpec(L=1.25, nx=16, nt=16, T=1.0, nk=8, seed=seed)
