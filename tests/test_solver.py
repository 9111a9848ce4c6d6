import numpy as np
import pytest

from varadhanlab import presets
from varadhanlab.covkernel import CovarianceSpec, g1
from varadhanlab.errors import BlowUpError, GridError, MemoryBudgetError
from varadhanlab.funcs import ONE, ZERO, make_func
from varadhanlab.noise import ControlH, GridSpec, lattice, sample_path
from varadhanlab.solver import (BumpInitial, ModelSpec, ZeroInitial,
                                check_wave_domain, endpoint_ensemble,
                                first_variation, g1_grid, malliavin_adjoint,
                                malliavin_normsq, picard_verify, simulate,
                                simulate_shifted)

COV = presets.WAVE_WHITE


class TestModelSpec:
    def test_sigma0_lower_bound_enforced(self):
        with pytest.raises(ValueError):
            ModelSpec(COV, make_func("cos_perturbed", 1.0, 0.25), ZERO,
                      ZeroInitial(), 1.0, 0.9)   # inf sigma = 0.75 < 0.9

    def test_eps_range(self):
        with pytest.raises(ValueError):
            presets.linear_model(eps=1.5)

    def test_wave_domain_guard(self):
        grid = GridSpec(L=0.9, nx=32, nt=16, T=1.0, nk=16, seed=0)
        with pytest.raises(GridError):
            check_wave_domain(presets.linear_model(), grid, 0.0)

    @pytest.mark.parametrize("entry", [
        "endpoint_ensemble", "sample_endpoints", "gradient_phi", "first_variation",
        "malliavin_adjoint", "rate_function", "rate_profile", "support_probe",
        "bare_kernel_control", "forward_xi", "chaos_ensemble"])
    def test_entry_points_enforce_wave_domain(self, entry):
        # L = 0.9 < |x| + T = 1: periodic wraparound would reach x
        from varadhanlab.mc import sample_endpoints
        from varadhanlab.rate import rate_function, rate_profile, support_probe
        from varadhanlab.skeleton import (bare_kernel_control, chaos_ensemble,
                                          forward_xi, gradient_phi)

        grid = GridSpec(L=0.9, nx=32, nt=16, T=1.0, nk=16, seed=0)
        m = presets.nonlinear_model()
        lat = lattice(COV, grid)
        path = sample_path(lat, 0)
        calls = {
            "endpoint_ensemble": lambda: endpoint_ensemble(m, grid, [0, 1], 0.0),
            "sample_endpoints": lambda: sample_endpoints(m, grid, 2, 0.0),
            "gradient_phi": lambda: gradient_phi(m, grid, ControlH.zeros(lat), x=0.0),
            "first_variation": lambda: first_variation(
                m, grid, path, simulate(m, grid, path), x=0.0),
            "malliavin_adjoint": lambda: malliavin_adjoint(
                m, grid, path, simulate(m, grid, path), x=0.0),
            "rate_function": lambda: rate_function(m, grid, 1.0, x=0.0),
            "rate_profile": lambda: rate_profile(m, grid, [0.5, 1.0], x=0.0),
            "support_probe": lambda: support_probe(m, grid, 2, [1.0], x=0.0),
            "bare_kernel_control": lambda: bare_kernel_control(
                m, grid, simulate(m, grid, path), x=0.0),
            "forward_xi": lambda: forward_xi(m, grid, ControlH.zeros(lat), x=0.0),
            "chaos_ensemble": lambda: chaos_ensemble(
                m, grid, ControlH.zeros(lat), [0, 1], x=0.0),
        }
        with pytest.raises(GridError):
            calls[entry]()


@pytest.fixture(scope="module")
def linear_endpoints(mc_grid):
    m = presets.linear_model(eps=0.5)
    return endpoint_ensemble(m, mc_grid, range(10_000), 0.0)


class TestSimulate:
    def test_linear_variance_matches_g1(self, mc_grid, linear_endpoints):
        # Gaussian stochastic convolution: Var u(t,x) = eps^2 g1(t)
        u = linear_endpoints
        var = u.var()
        want_grid = 0.25 * g1_grid(COV, mc_grid, 1.0)
        want_cont = 0.25 * g1(COV, 1.0)
        se = want_grid * np.sqrt(2.0 / len(u))
        assert abs(var - want_grid) < 3 * se
        assert abs(var - want_cont) < 3 * se + 0.005 * want_cont

    def test_noiseless_driftless_returns_w(self, tiny_grid):
        m = ModelSpec(COV, ONE, ZERO, BumpInitial(amp0=0.7, width0=0.3),
                      eps=0.0, sigma0=1.0)
        lat = lattice(COV, tiny_grid)
        u = simulate(m, tiny_grid, sample_path(lat, 0))
        w = m.w.table(lat, u.times)
        assert np.allclose(u.values, w, atol=1e-14)

    def test_moments_bounded_in_eps(self, mc_grid):
        # sup over the eps grid of E|u|^p stays below one fixed constant
        # for p = 2, 4, 8 (uniform moment bound, no blow-up as eps varies)
        worst = 0.0
        for eps in (0.1, 0.4, 0.7, 1.0):
            m = presets.nonlinear_model(eps=eps)
            u = endpoint_ensemble(m, mc_grid, range(2000), 0.0)
            moments = [np.mean(np.abs(u) ** p) for p in (2, 4, 8)]
            assert np.all(np.isfinite(moments))
            worst = max(worst, max(moments))
        assert worst < 50.0

    def test_gaussian_law_kurtosis(self, linear_endpoints):
        u = linear_endpoints
        z = (u - u.mean()) / u.std()
        k4 = np.mean(z ** 4) - 3.0
        assert abs(k4) < 3.0 * np.sqrt(24.0 / len(u))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_blow_up_signals_step(self):
        grid = GridSpec(L=1.25, nx=32, nt=32, T=1.0, nk=16, seed=0)
        m = ModelSpec(COV, ONE, make_func("affine", 0.0, 1e18), ZeroInitial(),
                      1.0, 1.0)
        lat = lattice(COV, grid)
        with pytest.raises(BlowUpError) as err:
            simulate(m, grid, sample_path(lat, 0))
        assert err.value.step is not None

    def test_refinement_decreases_error(self):
        # couple a coarse and a refined run through the same Brownian modes
        coarse = GridSpec(L=1.25, nx=32, nt=16, T=1.0, nk=8, seed=5)
        fine = GridSpec(L=1.25, nx=64, nt=32, T=1.0, nk=16, seed=5)
        finer = GridSpec(L=1.25, nx=128, nt=64, T=1.0, nk=32, seed=5)
        m = presets.nonlinear_model()
        gaps = []
        for ga, gb in ((coarse, fine), (fine, finer)):
            la, lb = lattice(COV, ga), lattice(COV, gb)
            vals_a, vals_b = [], []
            for s in range(60):
                pb = sample_path(lb, s)
                inc_a = _coarsen(pb, la)
                ua = simulate(m, ga, inc_a).endpoint(0.0)
                ub = simulate(m, gb, pb).endpoint(0.0)
                vals_a.append(ua)
                vals_b.append(ub)
            gaps.append(np.mean(np.abs(np.array(vals_a) - np.array(vals_b))))
        assert gaps[1] < gaps[0]

    def test_l2_continuity(self, mc_grid):
        # E|u(t,x) - u(t',x)|^2 decays monotonically as t' -> t dyadically
        m = presets.nonlinear_model()
        lat = lattice(COV, mc_grid)
        fields = [simulate(m, mc_grid, sample_path(lat, s)) for s in range(60)]
        jt = mc_grid.nt
        diffs = []
        for gap in (16, 8, 4, 2, 1):
            d = [np.abs(f.values[jt, 0] - f.values[jt - gap, 0]) ** 2
                 for f in fields]
            diffs.append(np.mean(d))
        assert all(b < a for a, b in zip(diffs, diffs[1:]))


def _coarsen(path_fine, lat_coarse):
    """Restrict a fine path to a coarse lattice: sum time pairs, match modes."""
    from varadhanlab.noise import NoisePath
    lf = path_fine.lattice
    ratio = lf.grid.nt // lat_coarse.grid.nt
    inc = path_fine.increments.reshape(lat_coarse.grid.nt, ratio, -1).sum(axis=1)
    fine_cols = {lbl: i for i, lbl in enumerate(lf.coord_label)}
    out = np.zeros((lat_coarse.grid.nt, lat_coarse.ncoords))
    for j, lbl in enumerate(lat_coarse.coord_label):
        out[:, j] = inc[:, fine_cols[lbl]]
    return NoisePath(lat_coarse, out)


class TestShiftIdentity:
    def test_pathwise_identity_every_replica(self, mc_grid, rng):
        # simulate with the path translated by eps^-1 h equals the shifted
        # equation driven by the original path, pathwise to solver precision
        m = presets.nonlinear_model(eps=0.5)
        lat = lattice(COV, mc_grid)
        h = ControlH(lat, 0.4 * rng.standard_normal((mc_grid.nt, lat.ncoords)))
        for s in range(20):
            p = sample_path(lat, s)
            u1 = simulate(m, mc_grid, p.shifted(h, 1.0 / m.eps))
            u2 = simulate_shifted(m, mc_grid, p, h)
            assert np.max(np.abs(u1.values - u2.values)) < 1e-8

    def test_zero_control_reduces_to_simulate(self, small_grid):
        m = presets.nonlinear_model()
        lat = lattice(COV, small_grid)
        p = sample_path(lat, 2)
        u1 = simulate(m, small_grid, p)
        u2 = simulate_shifted(m, small_grid, p, ControlH.zeros(lat))
        assert np.array_equal(u1.values, u2.values)

    def test_linear_limit_matches_skeleton(self, small_grid, rng):
        # sigma = 1, b = 0, eps -> 0: shifted field equals w + <Lambda, h>
        from varadhanlab.skeleton import solve_phi
        m = presets.linear_model(eps=0.0)
        lat = lattice(COV, small_grid)
        h = ControlH(lat, rng.standard_normal((small_grid.nt, lat.ncoords)))
        p = sample_path(lat, 0)
        u = simulate_shifted(m, small_grid, p, h)
        phi = solve_phi(m, small_grid, h)
        assert np.allclose(u.values, phi.values, atol=1e-12)


class TestFirstVariation:
    def test_linear_norm_is_exact(self, small_grid):
        m = presets.linear_model(eps=0.5)
        lat = lattice(COV, small_grid)
        p = sample_path(lat, 1)
        u = simulate(m, small_grid, p)
        D = first_variation(m, small_grid, p, u, x=0.0)
        want = 0.25 * g1_grid(COV, small_grid, 1.0)
        assert malliavin_normsq(D, small_grid) == pytest.approx(want, rel=1e-12)

    def test_rows_beyond_t_vanish(self, small_grid):
        m = presets.nonlinear_model(eps=0.5)
        lat = lattice(COV, small_grid)
        p = sample_path(lat, 1)
        u = simulate(m, small_grid, p)
        D = first_variation(m, small_grid, p, u, t=0.5, x=0.0)
        jt = small_grid.time_index(0.5)
        assert np.all(D[jt:] == 0.0)
        assert np.any(D[:jt] != 0.0)

    def test_matches_adjoint_route(self, small_grid):
        m = presets.nonlinear_model(eps=0.75)
        lat = lattice(COV, small_grid)
        p = sample_path(lat, 4)
        u = simulate(m, small_grid, p)
        D = first_variation(m, small_grid, p, u, x=0.0)
        Da = malliavin_adjoint(m, small_grid, p, u, x=0.0)
        assert np.max(np.abs(D - Da)) < 1e-12

    def test_eps_scaling_of_norm(self, small_grid):
        # E ||D u||^2 / eps^2 stays within 5% across eps
        vals = []
        for eps in (0.25, 0.5, 1.0):
            m = presets.nonlinear_model(eps=eps)
            lat = lattice(COV, small_grid)
            norms = []
            for s in range(40):
                p = sample_path(lat, s)
                u = simulate(m, small_grid, p)
                Da = malliavin_adjoint(m, small_grid, p, u, x=0.0)
                norms.append(malliavin_normsq(Da, small_grid))
            vals.append(np.mean(norms) / eps ** 2)
        assert max(vals) / min(vals) < 1.05

    def test_memory_budget_guard(self, small_grid):
        m = presets.nonlinear_model()
        lat = lattice(COV, small_grid)
        p = sample_path(lat, 0)
        u = simulate(m, small_grid, p)
        with pytest.raises(MemoryBudgetError):
            first_variation(m, small_grid, p, u, x=0.0, memory_budget=1024)


class TestPicard:
    def test_linear_converges_after_one_sweep(self, small_grid):
        m = presets.linear_model()
        lat = lattice(COV, small_grid)
        res = picard_verify(m, small_grid, sample_path(lat, 0), 3)
        assert res[0] > 0.0
        assert res[1] == 0.0

    def test_geometric_decay_nonlinear(self, small_grid):
        m = presets.nonlinear_model()
        lat = lattice(COV, small_grid)
        res = picard_verify(m, small_grid, sample_path(lat, 0), 8)
        tail = res[1:6]
        assert all(b < 0.5 * a for a, b in zip(tail, tail[1:]))

    def test_iteration_count_guard(self, small_grid):
        m = presets.linear_model()
        lat = lattice(COV, small_grid)
        with pytest.raises(ValueError):
            picard_verify(m, small_grid, sample_path(lat, 0), 0)


class TestFieldExport:
    def test_binary_and_csv(self, tiny_grid, tmp_path):
        m = presets.linear_model()
        lat = lattice(COV, tiny_grid)
        u = simulate(m, tiny_grid, sample_path(lat, 0))
        u.save(tmp_path / "f.bin")
        u.slice_csv(tmp_path / "f.csv")
        raw = (tmp_path / "f.bin").read_bytes()
        assert raw[:8] == b"VLFIELD1"
        lines = (tmp_path / "f.csv").read_text().strip().splitlines()
        assert lines[0] == "index,value"
        assert len(lines) == 1 + tiny_grid.nx
