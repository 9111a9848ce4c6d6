"""The benchmark's pinned seed-7 outputs, checked in tier-1.

The values are copies of the reference constants in
benchmarks/workloads.py (ENSEMBLE_REF, LONG_HORIZON_REF, TAIL_I), which the
benchmark checks only in its full runs.  Any change that claims
bit-identical numerics must keep them.
"""

import dataclasses

import numpy as np
import pytest

from varadhanlab import mc, presets
from varadhanlab.rate import rate_function

#: first replica stream of a seed-7 benchmark run (seed << 24)
STREAM0 = 7 << 24
SAMPLE_RTOL = 1e-9


def _check_chunk(model, grid, mean_ref, sd_ref):
    samples = mc.sample_endpoints(model, grid, mc.CHUNK, None, stream0=STREAM0)
    mean, sd = float(np.mean(samples)), float(np.std(samples))
    assert abs(mean - mean_ref) <= SAMPLE_RTOL * max(abs(mean_ref), sd_ref)
    assert abs(sd - sd_ref) <= SAMPLE_RTOL * sd_ref


def test_ensemble_chunk(mc_grid, nonlinear_model):
    _check_chunk(nonlinear_model, mc_grid, -0.0339285516698494, 0.652899587906391)


@pytest.mark.parametrize("operator, mean_ref, sd_ref", [
    ("wave", -0.03139854625827069, 0.6733972441090003),
    ("heat", -0.04614286221240245, 1.026596148394743),
])
def test_long_horizon_chunk(mc_grid, operator, mean_ref, sd_ref):
    cov = presets.WAVE_WHITE if operator == "wave" else presets.HEAT_WHITE
    grid = dataclasses.replace(mc_grid, nt=256)
    _check_chunk(presets.nonlinear_model(cov=cov), grid, mean_ref, sd_ref)


def test_tail_rate_point(mc_grid, nonlinear_model):
    res = rate_function(nonlinear_model, mc_grid, 1.0)
    assert res.converged
    assert res.I == pytest.approx(1.2040352514659385, rel=1e-9)
