import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from varadhanlab import covkernel as ck
from varadhanlab.errors import ZeroModeError

WAVE_WHITE = ck.CovarianceSpec("wave", 1, "white")
WAVE_R1D3 = ck.CovarianceSpec("wave", 3, "riesz", 1.0)
HEAT_R05 = ck.CovarianceSpec("heat", 1, "riesz", 0.5)


class TestCovarianceSpec:
    def test_riesz_range_enforced(self):
        with pytest.raises(ValueError):
            ck.CovarianceSpec("wave", 1, "riesz", 1.5)   # beta >= min(d,2)
        with pytest.raises(ValueError):
            ck.CovarianceSpec("heat", 2, "riesz", 2.0)
        with pytest.raises(ValueError):
            ck.CovarianceSpec("wave", 4, "riesz", 1.0)   # wave d <= 3

    def test_white_only_d1(self):
        with pytest.raises(ValueError):
            ck.CovarianceSpec("wave", 2, "white")
        ck.CovarianceSpec("heat", 1, "white")

    def test_exponents(self):
        assert WAVE_R1D3.exponents == (2.0, 2.0, 2.0)
        assert HEAT_R05.exponents == (0.75, 0.75, 1.0)


class TestSpectralDensity:
    def test_riesz_printed_formula(self):
        # |xi|^{-(d-beta)} at |xi| = 2, d = 3, beta = 1
        assert ck.spectral_density(WAVE_R1D3, np.array([2.0, 0.0, 0.0])) \
            == pytest.approx(0.25)

    def test_white_is_lebesgue(self):
        assert ck.spectral_density(WAVE_WHITE, 3.7) == 1.0

    def test_direct_evaluation(self):
        spec = ck.CovarianceSpec("wave", 1, "riesz", 0.5)
        assert ck.spectral_density(spec, 4.0) == pytest.approx(0.5)

    def test_zero_mode_signals(self):
        with pytest.raises(ZeroModeError):
            ck.spectral_density(WAVE_R1D3, np.zeros(3))


class TestFourierLambda:
    def test_wave_zero_frequency_limit(self):
        assert ck.fourier_lambda(WAVE_WHITE, 0.5, 0.0) == pytest.approx(0.5)

    def test_heat_mass_conservation(self):
        assert ck.fourier_lambda(HEAT_R05, 0.37, 0.0) == pytest.approx(1.0)

    def test_wave_printed_value(self):
        # sin(pi/2) / (2 pi) at t = 1/4, |xi| = 1
        assert ck.fourier_lambda(WAVE_WHITE, 0.25, 1.0) \
            == pytest.approx(1.0 / (2.0 * np.pi))

    def test_bounds_sampled(self, rng):
        for spec in (WAVE_WHITE, WAVE_R1D3, HEAT_R05):
            t = rng.uniform(0.01, 2.0, 50)
            # keep heat exponents representable in float64
            r = rng.uniform(0.01, 40.0 if spec.operator == "wave" else 3.0, 50)
            for ti, ri in zip(t, r):
                xi = np.zeros(spec.d)
                xi[0] = ri
                v = ck.fourier_lambda(spec, ti, xi)
                if spec.operator == "wave":
                    assert abs(v * 2.0 * np.pi * ri) <= 1.0 + 1e-12
                else:
                    assert 0.0 < v <= 1.0


class TestG1:
    def test_wave_white_exact(self):
        # t^2 / 4 via the radial integral of sin^2 / xi^2; the closed form
        # holds it to rounding, the quadrature to its tolerance
        assert ck.g1(WAVE_WHITE, 2.0) == pytest.approx(1.0, rel=1e-14)
        assert ck.g1(WAVE_WHITE, 2.0, method="quadrature") == pytest.approx(1.0, rel=1e-6)

    def test_closed_form_loads_no_scipy(self):
        # the power-law constants are Gamma values from math, so closed-form
        # g1 for wave and heat imports neither scipy.integrate nor scipy.special
        code = ("import json, sys\n"
                "from varadhanlab import covkernel as ck\n"
                "for spec in (ck.CovarianceSpec('wave', 1, 'white'),\n"
                "             ck.CovarianceSpec('wave', 3, 'riesz', 1.5),\n"
                "             ck.CovarianceSpec('heat', 1, 'white'),\n"
                "             ck.CovarianceSpec('heat', 2, 'riesz', 0.5)):\n"
                "    assert ck.g1(spec, 0.7) > 0.0\n"
                "print(json.dumps(sorted(m for m in ('scipy.integrate', 'scipy.special')\n"
                "                        if m in sys.modules)))\n")
        src = Path(__file__).resolve().parents[1] / "src"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": str(src)}, check=True,
                             timeout=120)
        assert json.loads(out.stdout.splitlines()[-1]) == []

    def test_heat_scaling_ratio(self):
        # g1(4t)/g1(t) = 4^{(2-beta)/2} at beta = 1/2
        ratio = ck.g1(HEAT_R05, 4.0) / ck.g1(HEAT_R05, 1.0)
        assert ratio == pytest.approx(4.0 ** 0.75, rel=1e-12)

    def test_wave_riesz_scaling_ratio(self):
        ratio = ck.g1(WAVE_R1D3, 2.0) / ck.g1(WAVE_R1D3, 1.0)
        assert ratio == pytest.approx(4.0, rel=1e-12)

    @pytest.mark.parametrize("spec", [
        WAVE_WHITE, WAVE_R1D3, HEAT_R05,
        ck.CovarianceSpec("wave", 2, "riesz", 0.5),
        ck.CovarianceSpec("wave", 2, "riesz", 1.5),
        ck.CovarianceSpec("heat", 2, "riesz", 1.5),
        ck.CovarianceSpec("heat", 1, "white"),
        ck.CovarianceSpec("heat", 4, "riesz", 1.0),
    ])
    def test_quadrature_matches_closed_form(self, spec):
        for t in (0.3, 1.0):
            closed = ck.g1(spec, t)
            quad = ck.g1(spec, t, method="quadrature")
            assert quad == pytest.approx(closed, rel=1e-3)

    def test_monotone(self):
        ts = np.linspace(0.05, 1.0, 12)
        vals = [ck.g1(HEAT_R05, t) for t in ts]
        assert np.all(np.diff(vals) > 0)


class TestJ2:
    def test_integral_exponent_matches_delta(self):
        # int_0^t j2 follows t^delta with delta = 2 (wave), 1 (heat)
        ts = np.geomspace(0.05, 1.0, 6)
        for spec in (WAVE_WHITE, HEAT_R05):
            samples = [(t, ck.j2_integral(spec, t)) for t in ts]
            fitted = ck.fit_exponent(samples)
            assert fitted == pytest.approx(spec.exponents[2], abs=1e-9)


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("kernel", [
    lambda spec, t: ck.g1(spec, t),
    lambda spec, t: ck.fourier_lambda(spec, t, 1.0),
    lambda spec, t: ck.j2_integral(spec, t),
], ids=["g1", "fourier_lambda", "j2_integral"])
@pytest.mark.parametrize("spec", [WAVE_WHITE, HEAT_R05], ids=["wave", "heat"])
def test_non_finite_time_is_a_value_error(kernel, spec, t):
    with pytest.raises(ValueError, match="finite and nonnegative"):
        kernel(spec, t)


class TestFitExponent:
    def test_wave_white_slope(self):
        ts = np.geomspace(0.05, 1.0, 10)
        fit = ck.fit_exponent([(t, ck.g1(WAVE_WHITE, t)) for t in ts])
        assert fit == pytest.approx(2.0, abs=0.01)

    def test_heat_slope(self):
        ts = np.geomspace(0.05, 1.0, 10)
        fit = ck.fit_exponent([(t, ck.g1(HEAT_R05, t)) for t in ts])
        assert fit == pytest.approx(0.75, abs=0.01)

    def test_linear_input(self):
        ts = np.geomspace(0.1, 2.0, 8)
        assert ck.fit_exponent([(t, 3.0 * t) for t in ts]) == pytest.approx(1.0)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            ck.fit_exponent([(0.1, -1.0), (0.3, 1.0), (0.6, 1.0), (1.5, 1.0)])

    def test_needs_decade(self):
        with pytest.raises(ValueError):
            ck.fit_exponent([(1.0, 1.0), (1.2, 1.1), (1.4, 1.2), (1.6, 1.3)])


class TestSlabMeans:
    @pytest.mark.parametrize("spec", [WAVE_WHITE, WAVE_R1D3, HEAT_R05])
    def test_matches_dense_quadrature(self, spec, rng):
        trapz = getattr(np, "trapezoid", None) or np.trapz
        for _ in range(8):
            a = rng.uniform(0.0, 0.8)
            b = a + rng.uniform(0.01, 0.3)
            r = rng.uniform(0.0, 30.0, 5)
            u = np.linspace(a, b, 8001)
            if spec.operator == "wave":
                f = np.where(r[:, None] > 0,
                             np.sin(2 * np.pi * r[:, None] * u)
                             / np.where(r[:, None] > 0, 2 * np.pi * r[:, None], 1.0),
                             u[None, :])
            else:
                f = np.exp(-4 * np.pi ** 2 * r[:, None] ** 2 * u)
            want = trapz(f ** 2, u, axis=1) / (b - a)
            got = ck.slab_l2_mean(spec, r, a, b)
            assert np.allclose(got, want, rtol=5e-6, atol=1e-12)

    def test_tiny_radius_branch_continuous(self):
        # the series branch must join the exact branch without a jump
        r = np.array([0.0, 1e-10, 1e-6, 1e-5, 1e-4])
        vals = ck.slab_l2_mean(WAVE_WHITE, r, 0.3, 0.4)
        assert np.all(np.isfinite(vals))
        assert np.allclose(vals, vals[0], rtol=1e-6)
        near = ck.slab_l2_mean(WAVE_WHITE, np.array([1e-3, 2e-3]), 0.3, 0.4)
        assert np.allclose(near, vals[0], rtol=1e-3)
