import numpy as np
import pytest

from varadhanlab import presets, solver
from varadhanlab.covkernel import CovarianceSpec
from varadhanlab.funcs import parse_func
from varadhanlab.noise import (ControlH, GridSpec, Lattice, ht_inner, lattice,
                               sample_path)
from varadhanlab.mc import sample_endpoints
from varadhanlab.skeleton import (bare_kernel_control, dphi_window_norm,
                                  expansion_check, forward_xi, gradient_phi,
                                  solve_phi)
from varadhanlab.solver import (_drive, _factor, _forward, _observation_index,
                                _prepare, g1_grid)

COV = presets.WAVE_WHITE


@pytest.fixture(scope="module")
def setup(small_grid):
    lat = lattice(COV, small_grid)
    rng = np.random.default_rng(77)
    h = ControlH(lat, 0.4 * rng.standard_normal((small_grid.nt, lat.ncoords)))
    return lat, h


class TestSolvePhi:
    def test_zero_control_zero_drift_gives_w(self, small_grid):
        from varadhanlab.funcs import ONE, ZERO
        from varadhanlab.solver import BumpInitial, ModelSpec
        m = ModelSpec(COV, ONE, ZERO, BumpInitial(amp0=0.5, width0=0.3), 1.0)
        lat = lattice(COV, small_grid)
        phi = solve_phi(m, small_grid, ControlH.zeros(lat))
        w = m.w.table(lat, np.arange(small_grid.nt + 1) * small_grid.dt)
        assert np.allclose(phi.values, w, atol=1e-14)

    def test_linear_kernel_control_endpoint(self, small_grid):
        # h = c * (Lambda projected on the h-grid): endpoint = c * g1(t)
        m = presets.linear_model()
        lat = lattice(COV, small_grid)
        phi0 = solve_phi(m, small_grid, ControlH.zeros(lat))
        direction = bare_kernel_control(m, small_grid, phi0, x=0.0)
        c = 1.7
        phi = solve_phi(m, small_grid, c * direction)
        want = c * g1_grid(COV, small_grid, 1.0)
        assert phi.endpoint(0.0) == pytest.approx(want, rel=1e-12)

    def test_endpoint_stable_under_refinement(self):
        from varadhanlab.noise import GridSpec
        m = presets.nonlinear_model()
        endpoints = []
        for fac in (1, 2, 4):
            grid = GridSpec(L=1.25, nx=32 * fac, nt=16 * fac, T=1.0,
                            nk=8 * fac, seed=0)
            lat = lattice(COV, grid)
            coeffs = np.zeros((grid.nt, lat.ncoords))
            # a fixed low-mode control, refinement-stable by mode labels
            coeffs[:, 0] = 1.0
            coeffs[:, 1] = -0.5
            phi = solve_phi(m, grid, ControlH(lat, coeffs))
            endpoints.append(phi.endpoint(0.0))
        d1 = abs(endpoints[1] - endpoints[0])
        d2 = abs(endpoints[2] - endpoints[1])
        assert d2 < d1


def _bare_kernel_by_slab(model, grid, phi, t=None, x=None):
    """bare_kernel_control's coefficients with one transform and one extract per slab."""
    eng, _ = _prepare(model, grid, t)
    lat, jt = eng.lat, eng.jt
    onehot = np.zeros(lat.spatial_shape)
    onehot[_observation_index(model, grid, lat, x)] = 1.0 / (grid.dx ** lat.d)
    seed_spec = lat.to_spec(onehot)
    coeffs = np.zeros((grid.nt, lat.ncoords))
    for i in range(jt):
        kernel = lat.to_field(eng.weights[:, jt - i] * seed_spec)
        coeffs[i] = lat.extract(model.sigma(phi.values[i]) * kernel)
    return coeffs


@pytest.mark.parametrize("cov, grid, t", [
    (COV, presets.mc_grid(), None),
    (CovarianceSpec("heat", 1, "white"), presets.mc_grid(), 0.5),
    (CovarianceSpec("wave", 2, "riesz", 1.0),
     GridSpec(L=1.25, nx=16, nt=8, T=1.0, nk=6, seed=3), None),
    (CovarianceSpec("heat", 3, "riesz", 1.5),
     GridSpec(L=2.0, nx=8, nt=4, T=0.5, nk=3, seed=3), None)],
    ids=["wave-white", "heat-white-half", "wave-riesz-d2", "heat-riesz-d3"])
def test_bare_kernel_control_is_one_batched_extract(cov, grid, t, monkeypatch):
    model = presets.nonlinear_model(cov=cov)
    lat = lattice(cov, grid)
    h = ControlH(lat, 0.3 * np.random.default_rng(5).standard_normal(
        (grid.nt, lat.ncoords)))
    phi = solve_phi(model, grid, h, t)
    want = _bare_kernel_by_slab(model, grid, phi, t)
    calls = []
    extract = Lattice.extract
    monkeypatch.setattr(Lattice, "extract",
                        lambda self, f: calls.append(f.shape) or extract(self, f))
    got = bare_kernel_control(model, grid, phi, t)
    assert len(calls) == 1
    if cov.operator == "wave":
        assert np.array_equal(got.coeffs, want)
    else:   # the adjoint's heat sweep is the geometric recursion K_{l+1} = q K_l
        assert np.max(np.abs(got.coeffs - want)) <= 1e-15 * np.max(np.abs(want))


class TestGradient:
    def test_linear_gradient_is_kernel(self, small_grid, setup):
        lat, h = setup
        m = presets.linear_model()
        G = gradient_phi(m, small_grid, h, x=0.0)
        G0 = gradient_phi(m, small_grid, ControlH.zeros(lat), x=0.0)
        assert np.allclose(G.coeffs, G0.coeffs, atol=1e-12)
        bare = bare_kernel_control(m, small_grid,
                                   solve_phi(m, small_grid, h), x=0.0)
        assert np.allclose(G.coeffs, bare.coeffs, atol=1e-12)

    def test_finite_differences_ten_directions(self, small_grid, setup):
        lat, h = setup
        m = presets.nonlinear_model()
        rng = np.random.default_rng(11)
        G = gradient_phi(m, small_grid, h, x=0.0)
        delta = 1e-5
        for _ in range(10):
            g = ControlH(lat, rng.standard_normal((small_grid.nt, lat.ncoords)))
            fp = solve_phi(m, small_grid, h + delta * g).endpoint(0.0)
            fm = solve_phi(m, small_grid, h + (-delta) * g).endpoint(0.0)
            fd = (fp - fm) / (2 * delta)
            assert abs(fd - ht_inner(G, g)) / abs(fd) < 1e-4

    def test_forward_equation_agrees_with_adjoint(self, tiny_grid):
        m = presets.nonlinear_model()
        lat = lattice(COV, tiny_grid)
        rng = np.random.default_rng(3)
        h = ControlH(lat, 0.5 * rng.standard_normal((tiny_grid.nt, lat.ncoords)))
        G = gradient_phi(m, tiny_grid, h, x=0.0)
        Xi = forward_xi(m, tiny_grid, h, x=0.0)
        assert np.max(np.abs(G.coeffs - Xi.coeffs)) < 1e-8

    def test_frechet_remainder_vanishes(self, small_grid, setup):
        # |Phi(h + h0) - Phi(h) - <G, h0>| / ||h0|| -> 0; run the skeleton
        # around a nonzero state so the quadratic term is not degenerate
        from varadhanlab.funcs import B_DEFAULT, SIGMA_DEFAULT
        from varadhanlab.solver import BumpInitial, ModelSpec
        lat, h = setup
        m = ModelSpec(COV, SIGMA_DEFAULT, B_DEFAULT,
                      BumpInitial(amp0=1.2, width0=0.4), 1.0)
        rng = np.random.default_rng(21)
        G = gradient_phi(m, small_grid, h, x=0.0)
        db = ControlH(lat, rng.standard_normal((small_grid.nt, lat.ncoords)))
        db = (1.0 / db.norm) * db
        base = solve_phi(m, small_grid, h).endpoint(0.0)
        ratios = []
        for size in (1e-1, 1e-2, 1e-3, 1e-4):
            h0 = size * db
            val = solve_phi(m, small_grid, h + h0).endpoint(0.0)
            ratios.append(abs(val - base - ht_inner(G, h0)) / h0.norm)
        assert all(b < a for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] < 1e-3 * ratios[0]


# sigma stays bounded away from 0 and every point the solutions visit keeps
# away from the kinks of affine_clamped (checked in the test)
_SIGMAS = ["const:1.3", "cos_perturbed:1.0,0.25", "affine_clamped:1.0,0.5,0.25,4.0"]
_DRIFTS = ["zero", "const:0.3", "affine:0.1,-0.5", "affine_clamped:0.0,0.5,-2.0,2.0",
           "cos_perturbed:0.2,0.5", "tanh_bounded:0.5"]


@pytest.mark.parametrize("sigma, b", [(_SIGMAS[i % 3], drift)
                                      for i, drift in enumerate(_DRIFTS)])
def test_gradient_routes_across_registry(tiny_grid, sigma, b):
    from varadhanlab.solver import ModelSpec, ZeroInitial
    sigma, b = parse_func(sigma), parse_func(b)
    m = ModelSpec(COV, sigma, b, ZeroInitial(), 0.7)
    lat = lattice(COV, tiny_grid)
    rng = np.random.default_rng(8)
    h = ControlH(lat, 0.4 * rng.standard_normal((tiny_grid.nt, lat.ncoords)))
    path = sample_path(lat, 3)
    phi, u = solve_phi(m, tiny_grid, h), solve_phi(m, tiny_grid, path.control(m.eps))
    for f in (sigma, b):
        if f.name == "affine_clamped":
            a_, slope, lo, hi = f.args
            v = a_ + slope * np.concatenate([phi.values.ravel(), u.values.ravel()])
            assert np.min(np.minimum(v - lo, hi - v)) > 0.1

    G = gradient_phi(m, tiny_grid, h, x=0.0)
    delta = 1e-5
    for _ in range(3):
        g = ControlH(lat, rng.standard_normal((tiny_grid.nt, lat.ncoords)))
        fp = solve_phi(m, tiny_grid, h + delta * g).endpoint(0.0)
        fm = solve_phi(m, tiny_grid, h + (-delta) * g).endpoint(0.0)
        fd = (fp - fm) / (2 * delta)
        assert abs(fd - ht_inner(G, g)) <= 1e-4 * abs(fd)
    Xi = forward_xi(m, tiny_grid, h, x=0.0)
    assert np.max(np.abs(G.coeffs - Xi.coeffs)) < 1e-10
    D = m.eps * forward_xi(m, tiny_grid, path.control(m.eps), x=0.0).coeffs
    Da = m.eps * gradient_phi(m, tiny_grid, path.control(m.eps), x=0.0, phi=u).coeffs
    assert np.max(np.abs(D - Da)) < 1e-12


def chaos_draws(model, grid, h, n, t=None, x=None, stream0=0):
    """First-chaos draws around Phi^h at (t, x) of streams stream0 .. stream0 + n - 1.

    The route of expansion_check: the Girsanov dots of an eps = 0
    sample_endpoints run tilted by G = gradient_phi(h).
    """
    G = gradient_phi(model, grid, h, t, x)
    return sample_endpoints(model.with_eps(0.0), grid, n, x, t=t, h=G, stream0=stream0)[1]


class TestChaos:
    def test_centered(self, mc_grid, nonlinear_model):
        lat = lattice(COV, mc_grid)
        rng = np.random.default_rng(5)
        h = ControlH(lat, 0.3 * rng.standard_normal((mc_grid.nt, lat.ncoords)))
        draws = chaos_draws(nonlinear_model, mc_grid, h, 4000, x=0.0)
        assert abs(draws.mean()) < 3.0 * draws.std() / np.sqrt(len(draws))

    def test_variance_identity_three_controls(self, mc_grid, nonlinear_model):
        lat = lattice(COV, mc_grid)
        rng = np.random.default_rng(6)
        controls = [ControlH.zeros(lat),
                    ControlH(lat, 0.3 * rng.standard_normal((mc_grid.nt, lat.ncoords))),
                    ControlH(lat, 0.7 * rng.standard_normal((mc_grid.nt, lat.ncoords)))]
        for h in controls:
            draws = chaos_draws(nonlinear_model, mc_grid, h, 4000, x=0.0)
            gamma = gradient_phi(nonlinear_model, mc_grid, h, x=0.0).norm_sq
            var = draws.var(ddof=1)
            se = var * np.sqrt(2.0 / len(draws))
            assert abs(var - gamma) < 3.0 * se
            assert gamma > 0.0

    def test_linear_zero_control_variance_is_g1(self, small_grid, linear_model):
        lat = lattice(COV, small_grid)
        draws = chaos_draws(linear_model, small_grid, ControlH.zeros(lat), 2000, x=0.0)
        # in the linear case each draw is the Gaussian convolution itself
        gamma = g1_grid(COV, small_grid, 1.0)
        var = draws.var(ddof=1)
        assert abs(var - gamma) < 3.0 * var * np.sqrt(2.0 / len(draws))

    def test_sub_batches_keep_path_order(self, small_grid, nonlinear_model,
                                         monkeypatch):
        # ten paths in sub-batches of 3, 3, 3 and 1 give the draws of one batch
        lat = lattice(COV, small_grid)
        h = ControlH(lat, 0.3 * np.random.default_rng(8).standard_normal(
            (small_grid.nt, lat.ncoords)))
        whole = chaos_draws(nonlinear_model, small_grid, h, 10, x=0.0)
        state = solver._sub_batch(lat, small_grid.nt, 1)[1]
        monkeypatch.setattr(solver, "_STATE_BUDGET", 3 * state)
        split = chaos_draws(nonlinear_model, small_grid, h, 10, x=0.0)
        assert np.all(np.abs(split - whole) <= 1e-12 * np.abs(whole).max())

    @pytest.mark.parametrize("t", [0.4, None])
    def test_dots_pair_the_gradient_with_every_stream_row(self, mc_grid, nonlinear_model,
                                                          monkeypatch, t):
        # G is zero from row jt on (26 of 64 rows at t = 0.4); each stream
        # draws each of its nt rows once, and its dot is the one with G
        lat = lattice(COV, mc_grid)
        h = ControlH(lat, 0.3 * np.random.default_rng(9).standard_normal(
            (mc_grid.nt, lat.ncoords)))
        streams = list(range(100, 160))
        G = gradient_phi(nonlinear_model, mc_grid, h, t, 0.0)
        whole = np.stack([sample_path(lat, s).increments for s in streams])
        want = np.einsum("bik,ik->b", whole, G.coeffs)
        draws = []
        sample = solver.sample_increments

        def spy(lat, streams, out):
            draws.append((len(streams), out.shape[1]))
            return sample(lat, streams, out)

        monkeypatch.setattr(solver, "sample_increments", spy)
        got = chaos_draws(nonlinear_model, mc_grid, h, len(streams), t=t, x=0.0,
                          stream0=streams[0])
        assert sum(b * rows for b, rows in draws) == len(streams) * mc_grid.nt
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def tangent_chaos(model, grid, h, increments, t=None, x=None):
    """First chaos at (t, x) by a forward sweep of the tangent equation.

    N_j = sum_{i<j} K_{j-i} * [ sigma(Phi_i) synthesize(dW_i) + f_i N_i ],
    f_i = dt (sigma'(Phi_i) H_i + b'(Phi_i)), the eps-derivative of the
    shifted mild map at eps = 0, run as one batch over increments, a
    (B, nt, ncoords) array.  It never forms the gradient, so it is an
    independent reference for the dots with gradient_phi of chaos_draws.
    """
    eng, w_tab = _prepare(model, grid, t)
    point = _observation_index(model, grid, eng.lat, x)
    drive = _drive(eng, h=h)
    pv = _forward(model, eng, w_tab, drive)
    lat, dt = eng.lat, grid.dt
    zeros = np.zeros((eng.jt + 1, 1) + lat.spatial_shape)

    def integrand(j, n):
        return (model.sigma(pv[j]) * lat.synthesize(increments[:, j])
                + _factor(model, dt, pv[j], drive(j)) * n)

    n_final, _ = eng.forward(zeros, integrand, batch_shape=(len(increments),))
    return n_final[(slice(None), *point)]


_CHAOS_CASES = {
    "wave-d1": (presets.WAVE_WHITE, presets.tiny_grid()),
    "heat-d1": (presets.HEAT_WHITE, presets.tiny_grid()),
    "wave-d1-two-blocks": (presets.WAVE_WHITE,      # nt > _BLOCK, ragged last block
                           GridSpec(L=1.25, nx=16, nt=40, T=1.0, nk=8, seed=7)),
    "wave-d2-riesz": (CovarianceSpec("wave", 2, "riesz", 1.0),
                      GridSpec(L=2.5, nx=16, nt=8, T=1.0, nk=4, seed=3)),
    "heat-d2-riesz": (CovarianceSpec("heat", 2, "riesz", 1.0),
                      GridSpec(L=2.5, nx=16, nt=8, T=1.0, nk=4, seed=3)),
}


class TestChaosOracle:
    @pytest.mark.parametrize("streams", [list(range(20, 45))], ids=["streams"])
    @pytest.mark.parametrize("t", [None, 0.5])
    @pytest.mark.parametrize("case", sorted(_CHAOS_CASES))
    def test_dots_match_tangent_sweep(self, case, t, streams):
        cov, grid = _CHAOS_CASES[case]
        m = presets.nonlinear_model(cov=cov)
        lat = lattice(cov, grid)
        h = ControlH(lat, 0.4 * np.random.default_rng(3).standard_normal(
            (grid.nt, lat.ncoords)))
        got = chaos_draws(m, grid, h, len(streams), t=t, stream0=streams[0])
        whole = np.stack([sample_path(lat, s).increments for s in streams])
        want = tangent_chaos(m, grid, h, whole, t=t)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_no_paths_is_a_value_error(self, tiny_grid, nonlinear_model):
        lat = lattice(COV, tiny_grid)
        with pytest.raises(ValueError, match="n >= 1"):
            expansion_check(nonlinear_model, tiny_grid, ControlH.zeros(lat), 0, [0.5])


class TestExpansion:
    def test_linear_case_is_exact(self, small_grid, linear_model):
        lat = lattice(COV, small_grid)
        rng = np.random.default_rng(9)
        h = ControlH(lat, rng.standard_normal((small_grid.nt, lat.ncoords)))
        rows = expansion_check(linear_model, small_grid, h, 50,
                               [0.4, 0.2, 0.1], x=0.0)
        for row in rows:
            assert row["median_residual"] < 1e-10

    def test_nonlinear_residual_decreasing(self, mc_grid, nonlinear_model):
        lat = lattice(COV, mc_grid)
        rng = np.random.default_rng(10)
        h = ControlH(lat, 0.3 * rng.standard_normal((mc_grid.nt, lat.ncoords)))
        rows = expansion_check(nonlinear_model, mc_grid, h, 300,
                               [0.4, 0.2, 0.1, 0.05], x=0.0)
        med = [r["median_residual"] for r in rows]
        assert all(b < a for a, b in zip(med, med[1:]))

    @pytest.mark.parametrize("eps_list", [[0.5, 0.0], [0.5, -0.1], [float("nan")], [2.0]])
    def test_eps_outside_zero_one_draws_nothing(self, tiny_grid, nonlinear_model,
                                                monkeypatch, eps_list):
        # eps = 0 would divide by zero into NaN medians; with_eps rejects
        # eps > 1 only after the chaos draws
        calls = []
        monkeypatch.setattr(solver, "sample_increments",
                            lambda *a: calls.append(a))
        with pytest.raises(ValueError, match=r"every eps must lie in \(0, 1\]"):
            expansion_check(nonlinear_model, tiny_grid,
                            ControlH.zeros(lattice(COV, tiny_grid)), 10, eps_list)
        assert not calls

    def test_gaussian_identity_at_h_zero(self, small_grid, linear_model):
        # eps^-1 (u - w) has variance g1(t) for every eps
        from varadhanlab.mc import sample_endpoints
        for eps in (0.5, 0.25):
            m = linear_model.with_eps(eps)
            u = sample_endpoints(m, small_grid, 3000, 0.0)
            var = (u / eps).var()
            gg = g1_grid(COV, small_grid, 1.0)
            assert abs(var - gg) < 3.0 * gg * np.sqrt(2.0 / len(u))


class TestWindowNorm:
    def test_full_window_is_gamma_bar(self, small_grid, setup):
        lat, h = setup
        m = presets.nonlinear_model()
        G = gradient_phi(m, small_grid, h, x=0.0)
        full = dphi_window_norm(m, small_grid, h, rho=1.0, x=0.0, gradient=G)
        assert full == pytest.approx(G.norm_sq, rel=1e-12)

    def test_linear_window_is_g1(self, small_grid):
        m = presets.linear_model()
        lat = lattice(COV, small_grid)
        h = ControlH.zeros(lat)
        G = gradient_phi(m, small_grid, h, x=0.0)
        for rho in (0.25, 0.5, 1.0):
            got = dphi_window_norm(m, small_grid, h, rho, x=0.0, gradient=G)
            # the trailing window [t-rho, t] holds the lags up to rho
            assert got == pytest.approx(g1_grid(COV, small_grid, rho), rel=1e-10)

    def test_window_scaling_slope(self, small_grid, setup):
        # log-log slope of the window norm against g1(rho) near one
        lat, h = setup
        m = presets.nonlinear_model()
        G = gradient_phi(m, small_grid, h, x=0.0)
        rhos = np.array([4, 8, 16, 32]) * small_grid.dt
        norms = [dphi_window_norm(m, small_grid, h, r, x=0.0, gradient=G)
                 for r in rhos]
        g1s = [g1_grid(COV, small_grid, r) for r in rhos]
        slope = np.polyfit(np.log(g1s), np.log(norms), 1)[0]
        assert 0.9 <= slope <= 1.1

    def test_lower_bound_mechanism(self, small_grid, setup):
        # window norm >= sigma0^2 g1(rho)/2 - r(rho), with the remainder
        # ratio r(rho)/g1(rho) vanishing as rho -> 0
        lat, h = setup
        m = presets.nonlinear_model()
        phi = solve_phi(m, small_grid, h)
        G = gradient_phi(m, small_grid, h, x=0.0, phi=phi)
        bare = bare_kernel_control(m, small_grid, phi, x=0.0)
        chi = G + (-1.0) * bare
        dt = small_grid.dt
        ratios = []
        for nwin in (32, 16, 8, 4, 2):
            rho = nwin * dt
            i0 = small_grid.nt - nwin
            win = dphi_window_norm(m, small_grid, h, rho, x=0.0, gradient=G)
            g1w = g1_grid(COV, small_grid, rho)
            r = dt * np.sum(chi.coeffs[i0:] ** 2)
            assert win >= 0.5 * m.sigma0 ** 2 * g1w - r - 1e-12
            ratios.append(r / g1w)
        assert ratios[-1] < 0.05
        assert ratios[-1] < ratios[0]

    def test_gamma_bar_positive_for_tested_controls(self, small_grid, setup):
        lat, h = setup
        m = presets.nonlinear_model()
        for hh in (ControlH.zeros(lat), h, 2.0 * h):
            assert gradient_phi(m, small_grid, hh, x=0.0).norm_sq > 0.0
