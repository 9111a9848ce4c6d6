"""Ready-made models and grids for the desk-scale experiments."""

from __future__ import annotations

from .covkernel import CovarianceSpec
from .funcs import B_DEFAULT, ONE, SIGMA_DEFAULT, ZERO
from .noise import GridSpec
from .solver import ModelSpec, ZeroInitial

WAVE_WHITE = CovarianceSpec("wave", 1, "white")
HEAT_WHITE = CovarianceSpec("heat", 1, "white")


def linear_model() -> ModelSpec:
    """Additive-noise oracle: wave, d = 1 white noise, sigma = 1, b = 0, w = 0, eps = 1."""
    return ModelSpec(WAVE_WHITE, ONE, ZERO, ZeroInitial(), 1.0)


def nonlinear_model(cov: CovarianceSpec = WAVE_WHITE) -> ModelSpec:
    """Default smooth test model: sigma = 1 + cos(u)/4 (>= 3/4), b = tanh(u)/2, eps = 1."""
    return ModelSpec(cov, SIGMA_DEFAULT, B_DEFAULT, ZeroInitial(), 1.0)


def mc_grid(seed: int = 7) -> GridSpec:
    """Ensemble grid for d=1 wave experiments at t = 1 (L > |x| + T)."""
    return GridSpec(L=1.25, nx=128, nt=64, T=1.0, nk=64, seed=seed)


def tiny_grid(seed: int = 7) -> GridSpec:
    """Smallest sensible grid; adjoint/forward oracle comparisons."""
    return GridSpec(L=1.25, nx=16, nt=16, T=1.0, nk=8, seed=seed)
