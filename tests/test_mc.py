import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from varadhanlab import mc, noise, presets, solver
from varadhanlab.errors import GridError, TiltError
from varadhanlab.mc import (CHUNK, DensityCurve, estimate_density, gaussian_kde,
                            sample_endpoints, silverman_bandwidth,
                            support_convergence, tilted_density,
                            varadhan_sweep, _batch_se)
from varadhanlab.noise import ControlH, GridSpec, lattice
from varadhanlab.rate import rate_function
from varadhanlab.solver import g1_grid

COV = presets.WAVE_WHITE


@pytest.fixture(scope="module")
def linear_rate(mc_grid, linear_model):
    return rate_function(linear_model, mc_grid, 1.0, x=0.0)


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
        want = -0.5 * math.log(2.0 * math.pi * gg)
        bias = 0.5 * curve.bandwidth ** 2 / gg
        assert abs(curve.log_p[0] - want) < 3.0 * curve.log_se[0] + bias

    def test_minimum_replica_guard(self, mc_grid, linear_model):
        with pytest.raises(ValueError):
            estimate_density(linear_model, mc_grid, 100, np.array([0.0]), x=0.0)

    def test_mass_and_log_masking(self, mc_grid, linear_model):
        y = np.linspace(-3.0, 3.0, 41)
        curve = estimate_density(linear_model, mc_grid, 2000, y, x=0.0)
        assert np.all(curve.p_hat >= 0.0)
        far = np.abs(y) > 2.5
        assert np.all(np.isnan(curve.log_p[far]) | (curve.p_hat[far] > 3 * curve.se[far]))

    def test_mass_bound_needs_a_grid_that_resolves_the_kernel(self):
        # the same overshooting trapezoid sum (1.25) fails on steps <= 2 bw
        # and is not read as a mass on a coarser grid; a curve is checked
        # when it is built
        y = np.array([-1.0, 0.0, 1.0])
        p_hat = np.array([0.25, 1.0, 0.25])
        with pytest.raises(AssertionError, match="captured mass"):
            DensityCurve(1.0, y, p_hat, np.zeros(3), 0.5)
        DensityCurve(1.0, y, p_hat, np.zeros(3), 0.49)
        with pytest.raises(AssertionError, match="nonnegative"):
            DensityCurve(1.0, y, -p_hat, np.zeros(3), 0.49)


class TestReproducibility:
    def test_bit_identical_reruns(self, mc_grid, linear_model):
        a = sample_endpoints(linear_model, mc_grid, 1500, 0.0)
        b = sample_endpoints(linear_model, mc_grid, 1500, 0.0)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("tilt", [False, True], ids=["plain", "tilted"])
    @pytest.mark.parametrize("cov", [presets.WAVE_WHITE, presets.HEAT_WHITE],
                             ids=["wave", "heat"])
    def test_executor_does_not_change_results(self, mc_grid, cov, tilt):
        # the workers share one engine and initial table; with more workers
        # than chunks and frequent thread switches, the three chunks must
        # still come out as the serial run's, dots included
        import concurrent.futures
        import sys
        m = presets.nonlinear_model(cov=cov).with_eps(0.5)
        lat = lattice(cov, mc_grid)
        h = ControlH(lat, 0.3 * np.random.default_rng(3).standard_normal(
            (mc_grid.nt, lat.ncoords))) if tilt else None
        a = sample_endpoints(m, mc_grid, 1300, 0.0, h=h, stream0=5)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with concurrent.futures.ThreadPoolExecutor(max_workers=4) as ex:
                b = sample_endpoints(m, mc_grid, 1300, 0.0, h=h, stream0=5, executor=ex)
        finally:
            sys.setswitchinterval(interval)
        if tilt:
            assert np.array_equal(a[1], b[1])
            a, b = a[0], b[0]
        assert np.array_equal(a, b)


    @pytest.mark.parametrize("tilt", [False, True], ids=["plain", "tilted"])
    def test_two_workers_match_the_serial_run(self, tiny_grid, nonlinear_model, tilt,
                                              monkeypatch):
        # with a CPU to spare, two chunk threads share the one fill helper
        # under frequent thread switches: three chunks, as serial
        import concurrent.futures
        import sys
        monkeypatch.setattr(noise, "_CPUS", 3)
        lat = lattice(nonlinear_model.cov, tiny_grid)
        h = ControlH(lat, 0.3 * np.random.default_rng(5).standard_normal(
            (tiny_grid.nt, lat.ncoords))) if tilt else None
        a = sample_endpoints(nonlinear_model, tiny_grid, 2 * CHUNK + 100, 0.0, h=h)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with concurrent.futures.ThreadPoolExecutor(max_workers=2) as ex:
                b = sample_endpoints(nonlinear_model, tiny_grid, 2 * CHUNK + 100, 0.0,
                                     h=h, executor=ex)
        finally:
            sys.setswitchinterval(interval)
        if tilt:
            assert np.array_equal(a[1], b[1])
            a, b = a[0], b[0]
        assert np.array_equal(a, b)


class TestSampleEndpointsGuards:
    def test_no_replicas_is_a_value_error(self, tiny_grid, nonlinear_model):
        with pytest.raises(ValueError, match="n >= 1"):
            sample_endpoints(nonlinear_model, tiny_grid, 0, 0.0)


class TestUnitWorkspace:
    def test_no_stale_workspace_row_is_read(self, monkeypatch):
        # the seed-7 ensemble chunk runs in four sub-batches of one unit
        # workspace; each starting from buffers filled with NaN, a row read
        # before its sub-batch wrote it would turn the endpoints NaN
        model, grid, stream0 = presets.nonlinear_model(), presets.mc_grid(7), 7 << 24
        want = sample_endpoints(model, grid, CHUNK, 0.0, stream0=stream0)
        workspace, sizes = mc._workspace, []

        def poisoned(lat, jt, size):
            views = workspace(lat, jt, size)

            def fill(b):
                sizes.append(b)
                for buffer in views(size).values():
                    buffer.fill(np.nan)
                return views(b)

            return fill

        monkeypatch.setattr(mc, "_workspace", poisoned)
        got = sample_endpoints(model, grid, CHUNK, 0.0, stream0=stream0)
        assert sizes == [CHUNK // 4] * 4
        assert np.array_equal(got, want)


class TestStreamInvariance:
    """Each stream's endpoint is a function of the stream id alone."""

    N_STREAMS = 40

    @pytest.fixture(scope="class")
    def alone(self, tiny_grid, nonlinear_model):
        # every stream simulated on its own, with and without a tilt
        lat = lattice(nonlinear_model.cov, tiny_grid)
        h = ControlH(lat, 0.3 * np.random.default_rng(5).standard_normal(
            (tiny_grid.nt, lat.ncoords)))
        plain = np.array([sample_endpoints(nonlinear_model, tiny_grid, 1, 0.0,
                                           stream0=s)[0]
                          for s in range(self.N_STREAMS)])
        tilted = [sample_endpoints(nonlinear_model, tiny_grid, 1, 0.0, h=h, stream0=s)
                  for s in range(self.N_STREAMS)]
        return h, plain, np.array([t[0][0] for t in tilted]), \
            np.array([t[1][0] for t in tilted])

    @staticmethod
    def _close(got, want):
        # 1e-12, not bit-equality: the blocked history GEMM rounds a batch
        # of one differently from a larger batch (3e-16 seen)
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want).max())

    @settings(max_examples=25, deadline=None)
    @given(stream0=st.integers(0, 20), n=st.integers(1, 20),
           chunk=st.integers(1, 25), per_batch=st.integers(1, 25),
           tilt=st.booleans())
    def test_endpoint_independent_of_batching(self, tiny_grid, nonlinear_model,
                                              alone, stream0, n, chunk, per_batch,
                                              tilt):
        # chunks of `chunk` streams split into equal sub-batches of at most
        # per_batch streams, the last one possibly shorter
        h, plain, tilted, dots = alone
        window = slice(stream0, stream0 + n)
        lat = lattice(nonlinear_model.cov, tiny_grid)
        state = solver._sub_batch(lat, tiny_grid.nt, 1)[1]
        with mock.patch.object(mc, "CHUNK", chunk), \
                mock.patch.object(solver, "_STATE_BUDGET", per_batch * state):
            if tilt:
                got, got_dots = sample_endpoints(nonlinear_model, tiny_grid, n, 0.0,
                                                 h=h, stream0=stream0)
                self._close(got, tilted[window])
                self._close(got_dots, dots[window])
            else:
                got = sample_endpoints(nonlinear_model, tiny_grid, n, 0.0,
                                       stream0=stream0)
                self._close(got, plain[window])


class TestTiltedDensity:
    def test_null_tilt_matches_plain(self, mc_grid, linear_model):
        # a zero tilt weighs every draw 1: the plain KDE of the same draws
        # at the tilted estimator's bandwidth
        lat = lattice(COV, mc_grid)
        h0 = ControlH.zeros(lat)
        log_p, _, diag = tilted_density(linear_model, mc_grid, 3000, 0.0, h0,
                                        eps=1.0, x=0.0)
        samples = sample_endpoints(linear_model, mc_grid, 3000, 0.0)
        bw = silverman_bandwidth(samples, -1.0 / 3.0)
        plain = gaussian_kde(samples, np.array([0.0]), bw)
        assert math.exp(log_p) == pytest.approx(float(plain[0]), rel=1e-12)
        assert diag["log_mean_weight"] == 0.0 and diag["bandwidth"] == bw

    def test_mean_weight_is_martingale(self, mc_grid, linear_model, linear_rate):
        # mild tilt: the weight mean must sit near 1 within MC error
        h = 0.25 * linear_rate.h_star
        _, _, diag = tilted_density(linear_model, mc_grid, 4000, 0.3, h,
                                    eps=1.0, x=0.0)
        var = math.exp(h.norm_sq) - 1.0
        mean_weight = math.exp(diag["log_mean_weight"])
        assert abs(mean_weight - 1.0) < 3.0 * math.sqrt(var / diag["n"])
        # the log is formed max-shifted: a weight mean below the smallest
        # subnormal, where a linear mean would read 0, stays finite
        _, _, sharp = tilted_density(linear_model, mc_grid, 2000, 1.0,
                                     linear_rate.h_star, eps=0.04, x=0.0)
        assert -math.inf < sharp["log_mean_weight"] < math.log(5e-324)

    def test_far_tail_matches_gaussian(self, mc_grid, linear_model, linear_rate):
        # y = 1 is four standard deviations out at eps = 1/2; the plain
        # estimator sees no hits there while the tilted one nails the value
        gg = g1_grid(COV, mc_grid, 1.0)
        sd = 0.5 * math.sqrt(gg)
        exact = math.exp(-0.5 / (0.25 * gg)) / (sd * math.sqrt(2 * math.pi))
        plain = estimate_density(linear_model.with_eps(0.5), mc_grid, 4000,
                                 np.array([1.0]), x=0.0)
        assert plain.p_hat[0] < 10 * exact or np.isnan(plain.log_p[0])
        log_p, rel_se, diag = tilted_density(linear_model, mc_grid, 6000, 1.0,
                                             linear_rate.h_star, eps=0.5, x=0.0)
        p, se = math.exp(log_p), rel_se * math.exp(log_p)
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
        log_p, rel_se, _ = tilted_density(linear_model, mc_grid, 8000, y,
                                          linear_rate.h_star, eps=1.0, x=0.0)
        p, se = math.exp(log_p), rel_se * math.exp(log_p)
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
        lat = lattice(COV, mc_grid)
        sweep = varadhan_sweep(linear_model, mc_grid, [1.0, 0.5], 0.0, 0.0,
                               n=4000, x=0.0, h_star=ControlH.zeros(lat))
        for row in sweep.rows:
            want = -row.eps ** 2 * 0.5 * math.log(2 * math.pi * row.eps ** 2 * gg)
            assert abs(row.eps2_log_p - want) < 3 * row.eps2_log_se + 0.02

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
            assert (row.ess, row.log_mean_weight, row.bandwidth) == \
                (diag["ess"], diag["log_mean_weight"], diag["bandwidth"])
        # a row whose tilt fails keeps no diagnostics
        tilted = mc.tilted_density

        def fail_last(*args, **kwargs):
            if kwargs["eps"] == 0.5:
                raise TiltError("poor tilt")
            return tilted(*args, **kwargs)

        with mock.patch.object(mc, "tilted_density", fail_last):
            failed = varadhan_sweep(linear_model, mc_grid, [1.0, 0.7, 0.5], 1.0,
                                    linear_rate.I, n=2000, x=0.0,
                                    h_star=linear_rate.h_star)
        assert [r.ok for r in failed.rows] == [True, True, False]
        # ... and no linear-scale values: NaN, not a false 0
        last = failed.rows[-1]
        assert all(map(math.isnan, (last.ess, last.p_hat, last.se)))

    def test_small_eps_rows_stay_finite(self, tiny_grid, nonlinear_model):
        # p_hat at eps = 0.03 lies near exp(-1370), far below the smallest
        # float: the rows are formed in log space and keep a positive se
        res = rate_function(nonlinear_model, tiny_grid, 1.0)
        sweep = varadhan_sweep(nonlinear_model, tiny_grid, [0.1, 0.05, 0.03, 0.02],
                               1.0, res.I, n=2000, h_star=res.h_star)
        assert [r.ok for r in sweep.rows] == [True] * 4
        for row in sweep.rows:
            assert math.isfinite(row.eps2_log_p) and row.eps2_log_se > 0.0
        assert abs(sweep.limit + res.I) < 0.05 * res.I

    @pytest.mark.parametrize("eps_list", [[0.5, 1.0], [1.0, 0.7, 0.0],
                                          [1.0, 0.5, math.nan], [0.5]],
                             ids=["increasing", "zero", "nan", "one-entry"])
    def test_eps_list_must_decrease(self, mc_grid, linear_model, eps_list,
                                    monkeypatch):
        # a bad list fails before the first tilted row draws anything
        draws = []
        monkeypatch.setattr(mc, "sample_endpoints", lambda *a, **kw: draws.append(a))
        with pytest.raises(ValueError):
            varadhan_sweep(linear_model, mc_grid, eps_list, 1.0, 2.0, n=2000,
                           x=0.0, h_star=ControlH.zeros(lattice(COV, mc_grid)))
        assert not draws


class TestSupportConvergence:
    def test_c1_medians_decreasing(self, mc_grid, nonlinear_model):
        rows = support_convergence(nonlinear_model, mc_grid, [3, 4, 5, 6], 400,
                                   x=0.0)
        med = [r["c1_median"] for r in rows]
        assert all(b < a for a, b in zip(med, med[1:]))

    def test_linear_gap_rate(self, linear_model):
        # few retained modes isolate the time-smoothing error: the median
        # gap shrinks consistently with 2^{-n/2} within +-1/4 in the slope
        g = GridSpec(L=1.25, nx=64, nt=64, T=1.0, nk=4, seed=11)
        rows = support_convergence(linear_model, g, [3, 4, 5, 6], 400, x=0.0)
        med = np.array([r["c1_median"] for r in rows])
        slope = np.polyfit([r["n"] for r in rows], np.log2(med), 1)[0]
        assert -0.75 <= slope <= -0.25

    def test_empty_level_list_draws_no_replica(self, tiny_grid, nonlinear_model,
                                               monkeypatch):
        draws = []
        monkeypatch.setattr(mc, "sample_endpoints", lambda *a, **kw: draws.append(a))
        with pytest.raises(ValueError, match="n_list is empty"):
            support_convergence(nonlinear_model, tiny_grid, [], 40)
        assert not draws

    @pytest.mark.parametrize("n_list, theta, error", [
        ([0, 2], 0.9, ValueError), ([-1], 0.9, ValueError),
        ([2, 3], float("nan"), ValueError), ([2, 3], float("inf"), ValueError),
        ([2, 3], 0.5, ValueError), ([2, 5], 0.9, GridError)],
        ids=["zero", "negative", "nan", "inf", "half", "not-dividing"])
    def test_bad_levels_or_theta_draw_no_replica(self, tiny_grid, nonlinear_model,
                                                 monkeypatch, n_list, theta, error):
        # every level n >= 1 with 2^n | nt = 16, and 1/2 < theta < inf
        draws = []
        monkeypatch.setattr(mc, "sample_endpoints", lambda *a, **kw: draws.append(a))
        with pytest.raises(error):
            support_convergence(nonlinear_model, tiny_grid, n_list, 40, theta=theta)
        assert not draws

    def test_empty_localization_signals(self, mc_grid, nonlinear_model):
        with pytest.raises(GridError):
            support_convergence(nonlinear_model, mc_grid, [6], 5, theta=0.51,
                                x=0.0)


class TestSupportConvergenceMemory:
    def test_peak_has_no_replica_increments(self, monkeypatch):
        # the skeleton solves are stubbed (they hold one path's field each),
        # so the peak is the sampling's: one chunk's increment block, the
        # initial table and the chunk's O(B) allowance as in
        # tests/test_solver.py::TestChunkMemory, a few (nt, ncoords) arrays of
        # the replica in hand and O(n) scalars; no (n, nt, ncoords) term
        import tracemalloc

        from varadhanlab.skeleton import solve_phi
        from varadhanlab.solver import _BLOCK

        cov = presets.HEAT_WHITE
        grid = GridSpec(L=1.25, nx=16, nt=256, T=1.0, nk=8, seed=1)
        m = presets.nonlinear_model(cov=cov)
        lat = lattice(cov, grid)
        phi0 = solve_phi(m, grid, ControlH.zeros(lat))
        monkeypatch.setattr(mc, "solve_phi", lambda *args: phi0)
        n, nt, nspec = 2 * CHUNK, grid.nt, lat.nspec
        support_convergence(m, grid, [2], 8)            # warm the lattice and weights
        tracemalloc.start()
        try:
            support_convergence(m, grid, [2, 3], n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        bound = (CHUNK * _BLOCK * lat.ncoords * 8 + (nt + 1) * grid.nx * 8
                 + CHUNK * (8192 + 32 * (grid.nx + nspec) * 16)
                 + 8 * nt * lat.ncoords * 8 + n * 64)
        assert peak < bound < n * nt * lat.ncoords * 8
