import math

import numpy as np
import pytest

from varadhanlab import presets
from varadhanlab.errors import TiltError
from varadhanlab.mc import (CHUNK, DensityCurve, estimate_density, gaussian_kde,
                            sample_endpoints, silverman_bandwidth,
                            support_convergence, tilted_density,
                            varadhan_sweep, _batch_se)
from varadhanlab.noise import ControlH, GridSpec, lattice
from varadhanlab.rate import rate_function, RateOptions
from varadhanlab.solver import g1_grid

COV = presets.WAVE_WHITE


@pytest.fixture(scope="module")
def linear_rate(mc_grid, linear_model):
    return rate_function(linear_model, mc_grid, 1.0, x=0.0,
                         options=RateOptions(multistart=1))


class TestKde:
    def test_standard_normal_log_density(self, rng):
        # bypass the solver entirely: known value log phi(0) = -0.91894
        samples = rng.standard_normal(20_000)
        bw = silverman_bandwidth(samples)
        p = gaussian_kde(samples, np.array([0.0]), bw)[0]
        se = _batch_se(samples, np.array([0.0]), bw)[0]
        bias = 0.5 * bw ** 2  # |d^2 log p / dy^2| = 1 at the mode
        assert abs(math.log(p) + 0.9189385) < 3.0 * se / p + bias

    def test_se_shrinks_with_n(self, rng):
        # doubling N shrinks the batch-mean SE by about 1/sqrt(2); average
        # over y points and repetitions to tame the SE-of-SE noise
        y = np.linspace(-1.5, 1.5, 21)
        bw = 0.15
        ratios = []
        for _ in range(4):
            samples = rng.standard_normal(20_000)
            se1 = _batch_se(samples[:10_000], y, bw).mean()
            se2 = _batch_se(samples, y, bw).mean()
            ratios.append(se2 / se1)
        assert np.mean(ratios) == pytest.approx(1.0 / math.sqrt(2.0), rel=0.2)

    def test_degenerate_sample_signals(self):
        with pytest.raises(ValueError):
            silverman_bandwidth(np.ones(100))


class TestEstimateDensity:
    def test_linear_center_density(self, mc_grid, linear_model):
        gg = g1_grid(COV, mc_grid, 1.0)
        curve = estimate_density(linear_model, mc_grid, 5000,
                                 np.array([0.0]), x=0.0)
        curve.validate()
        want = -0.5 * math.log(2.0 * math.pi * gg)
        bias = 0.5 * curve.bandwidth ** 2 / gg
        assert abs(curve.log_p[0] - want) < 3.0 * curve.log_se[0] + bias

    def test_minimum_replica_guard(self, mc_grid, linear_model):
        with pytest.raises(ValueError):
            estimate_density(linear_model, mc_grid, 100, np.array([0.0]), x=0.0)

    def test_mass_and_log_masking(self, mc_grid, linear_model):
        y = np.linspace(-3.0, 3.0, 41)
        curve = estimate_density(linear_model, mc_grid, 2000, y, x=0.0)
        curve.validate()
        assert np.all(curve.p_hat >= 0.0)
        far = np.abs(y) > 2.5
        assert np.all(np.isnan(curve.log_p[far]) | (curve.p_hat[far] > 3 * curve.se[far]))

    def test_csv_export(self, mc_grid, linear_model, tmp_path):
        curve = estimate_density(linear_model, mc_grid, 2000,
                                 np.array([-0.5, 0.0, 0.5]), x=0.0)
        out = tmp_path / "d.csv"
        curve.to_csv(out)
        header = out.read_text().splitlines()[0]
        assert header == "eps,y,p_hat,se,log_p,log_se"


class TestReproducibility:
    def test_bit_identical_reruns(self, mc_grid, linear_model):
        a = sample_endpoints(linear_model, mc_grid, 1500, 0.0)
        b = sample_endpoints(linear_model, mc_grid, 1500, 0.0)
        assert np.array_equal(a, b)

    def test_executor_does_not_change_results(self, mc_grid, linear_model):
        import concurrent.futures
        a = sample_endpoints(linear_model, mc_grid, 1500, 0.0)
        with concurrent.futures.ThreadPoolExecutor(max_workers=4) as ex:
            b = sample_endpoints(linear_model, mc_grid, 1500, 0.0, executor=ex)
        assert np.array_equal(a, b)


class TestTiltedDensity:
    def test_null_tilt_matches_plain(self, mc_grid, linear_model):
        lat = lattice(COV, mc_grid)
        h0 = ControlH.zeros(lat)
        bw = 0.05
        p, se, diag = tilted_density(linear_model, mc_grid, 3000, 0.0, h0,
                                     eps=1.0, x=0.0, bandwidth=bw)
        curve = estimate_density(linear_model, mc_grid, 3000, np.array([0.0]),
                                 x=0.0, bandwidth=bw)
        assert p == pytest.approx(float(curve.p_hat[0]), rel=1e-12)
        assert diag["mean_weight"] == 1.0

    def test_mean_weight_is_martingale(self, mc_grid, linear_model, linear_rate):
        # mild tilt: the weight mean must sit near 1 within MC error
        h = 0.25 * linear_rate.h_star
        p, se, diag = tilted_density(linear_model, mc_grid, 4000, 0.3, h,
                                     eps=1.0, x=0.0)
        var = math.exp(h.norm_sq) - 1.0
        assert abs(diag["mean_weight"] - 1.0) < 3.0 * math.sqrt(var / diag["n"])

    def test_far_tail_matches_gaussian(self, mc_grid, linear_model, linear_rate):
        # y = 1 is four standard deviations out at eps = 1/2; the plain
        # estimator sees no hits there while the tilted one nails the value
        gg = g1_grid(COV, mc_grid, 1.0)
        sd = 0.5 * math.sqrt(gg)
        exact = math.exp(-0.5 / (0.25 * gg)) / (sd * math.sqrt(2 * math.pi))
        plain = estimate_density(linear_model.with_eps(0.5), mc_grid, 4000,
                                 np.array([1.0]), x=0.0)
        assert plain.p_hat[0] < 10 * exact or np.isnan(plain.log_p[0])
        p, se, diag = tilted_density(linear_model, mc_grid, 6000, 1.0,
                                     linear_rate.h_star, eps=0.5, x=0.0)
        bias = 2.0 * (diag["bandwidth"] / (0.5 * sd)) ** 2 * exact * 16
        assert abs(p - exact) < 3.0 * se + 0.1 * exact
        assert diag["ess"] > 100

    def test_poor_tilt_signals(self, mc_grid, linear_model, linear_rate):
        # a tilt pointed at -1 cannot populate +4 SD
        with pytest.raises(TiltError):
            tilted_density(linear_model, mc_grid, 2000, 1.0,
                           -1.0 * linear_rate.h_star, eps=0.35, x=0.0)

    def test_agrees_with_plain_where_both_valid(self, mc_grid, linear_model,
                                                linear_rate):
        # joint 3 SE agreement in the near-tail where both estimators work
        y = 0.75
        plain = estimate_density(linear_model, mc_grid, 8000, np.array([y]),
                                 x=0.0)
        p, se, diag = tilted_density(linear_model, mc_grid, 8000, y,
                                     linear_rate.h_star, eps=1.0, x=0.0)
        joint = 3.0 * math.hypot(float(plain.se[0]), se) + 0.05 * p
        assert abs(p - float(plain.p_hat[0])) < joint


class TestVaradhanSweep:
    def test_linear_rows_match_exact_relation(self, mc_grid, linear_model,
                                              linear_rate):
        # eps^2 log p + y^2/(2 g1) = -eps^2 log(2 pi eps^2 g1)/2 row by row
        gg = g1_grid(COV, mc_grid, 1.0)
        sweep = varadhan_sweep(linear_model, mc_grid, [1.0, 0.7, 0.5], 1.0,
                               linear_rate.I, n=6000, x=0.0,
                               h_star=linear_rate.h_star)
        for row in sweep.rows:
            want = -1.0 / (2.0 * gg) \
                - row.eps ** 2 * 0.5 * math.log(2 * math.pi * row.eps ** 2 * gg)
            tol = 3.0 * row.eps2_log_se + 0.04 * row.eps ** 2
            assert abs(row.eps2_log_p - want) < tol

    def test_center_rows_vanish(self, mc_grid, linear_model):
        # at y = Phi0 the limit is 0 and each row is the vanishing correction
        gg = g1_grid(COV, mc_grid, 1.0)
        sweep = varadhan_sweep(linear_model, mc_grid, [1.0, 0.5], 0.0, 0.0,
                               n=4000, x=0.0)
        for row in sweep.rows:
            want = -row.eps ** 2 * 0.5 * math.log(2 * math.pi * row.eps ** 2 * gg)
            assert abs(row.eps2_log_p - want) < 3 * row.eps2_log_se + 0.02

    def test_untilted_flags_unreachable_rows(self, mc_grid, linear_model,
                                             linear_rate):
        # y = 1 sits at 5.7 standard deviations when eps = 0.35: without a
        # tilt that row must be flagged and the rest still extrapolate
        sweep = varadhan_sweep(linear_model, mc_grid, [1.0, 0.7, 0.35], 1.0,
                               linear_rate.I, n=3000, x=0.0)
        flagged = [r for r in sweep.rows if not r.ok]
        assert flagged and all(r.eps <= 0.35 for r in flagged)
        assert "importance sampling" in flagged[0].note
        assert np.isfinite(sweep.limit)

    def test_csv_columns(self, mc_grid, linear_model, linear_rate, tmp_path):
        sweep = varadhan_sweep(linear_model, mc_grid, [1.0, 0.7], 1.0,
                               linear_rate.I, n=2000, x=0.0,
                               h_star=linear_rate.h_star)
        out = tmp_path / "s.csv"
        sweep.to_csv(out)
        head = out.read_text().splitlines()[0]
        assert head == ("eps,y,p_hat,se,log_p,eps2_log_p,minus_I,gap,"
                        "ess,mean_weight,bandwidth")

    def test_tilted_rows_keep_diagnostics(self, mc_grid, linear_model,
                                          linear_rate):
        sweep = varadhan_sweep(linear_model, mc_grid, [1.0, 0.7], 1.0,
                               linear_rate.I, n=2000, x=0.0,
                               h_star=linear_rate.h_star)
        for k, row in enumerate(sweep.rows):
            # the same streams as the sweep's own call for this eps
            _, _, diag = tilted_density(linear_model, mc_grid, 2000, 1.0,
                                        linear_rate.h_star, eps=row.eps, x=0.0,
                                        stream0=k * (2000 + CHUNK))
            assert (row.ess, row.mean_weight, row.bandwidth) == \
                (diag["ess"], diag["mean_weight"], diag["bandwidth"])
        untilted = varadhan_sweep(linear_model, mc_grid, [1.0, 0.7], 0.0, 0.0,
                                  n=2000, x=0.0)
        assert all(math.isnan(r.ess) for r in untilted.rows)

    def test_eps_list_must_decrease(self, mc_grid, linear_model):
        with pytest.raises(ValueError):
            varadhan_sweep(linear_model, mc_grid, [0.5, 1.0], 1.0, 2.0, n=2000,
                           x=0.0)


class TestSupportConvergence:
    def test_c1_medians_decreasing(self, mc_grid, nonlinear_model):
        rows = support_convergence(nonlinear_model, mc_grid, [3, 4, 5, 6], 400,
                                   x=0.0)
        med = [r["c1_median"] for r in rows]
        assert all(b < a for a, b in zip(med, med[1:]))

    def test_c2_with_target_control(self, mc_grid, nonlinear_model, rng):
        lat = lattice(COV, mc_grid)
        h = ControlH(lat, 0.2 * rng.standard_normal((mc_grid.nt, lat.ncoords)))
        rows = support_convergence(nonlinear_model, mc_grid, [3, 5], 150, h=h,
                                   x=0.0)
        assert rows[-1]["c2_median"] < rows[0]["c2_median"]

    def test_c2_zero_control_reduces_to_c1_form(self, mc_grid, linear_model):
        lat = lattice(COV, mc_grid)
        rows = support_convergence(linear_model, mc_grid, [4], 100,
                                   h=ControlH.zeros(lat), x=0.0)
        # u(omega - v^n + 0) vs Phi^0 is the C1 statement with target Phi^0
        assert rows[0]["c2_median"] == pytest.approx(rows[0]["c1_median"],
                                                     rel=0.7)

    def test_linear_gap_rate(self, linear_model):
        # few retained modes isolate the time-smoothing error: the median
        # gap shrinks consistently with 2^{-n/2} within +-1/4 in the slope
        g = GridSpec(L=1.25, nx=64, nt=64, T=1.0, nk=4, seed=11)
        rows = support_convergence(linear_model, g, [3, 4, 5, 6], 400, x=0.0)
        med = np.array([r["c1_median"] for r in rows])
        slope = np.polyfit([r["n"] for r in rows], np.log2(med), 1)[0]
        assert -0.75 <= slope <= -0.25

    def test_empty_localization_signals(self, mc_grid, nonlinear_model):
        from varadhanlab.errors import GridError
        with pytest.raises(GridError):
            support_convergence(nonlinear_model, mc_grid, [6], 5, theta=0.51,
                                x=0.0)
