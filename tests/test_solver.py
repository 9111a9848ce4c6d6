import tracemalloc

import numpy as np
import pytest

from varadhanlab import mc, presets
from varadhanlab.covkernel import CovarianceSpec, g1
from varadhanlab.errors import BlowUpError, GridError, MemoryBudgetError
from varadhanlab.funcs import ONE, ZERO, ScalarFunc
from varadhanlab.mc import sample_endpoints
from varadhanlab.noise import (ControlH, GridSpec, NoisePath, ht_inner, lattice,
                               sample_increments, sample_path)
from varadhanlab.skeleton import forward_xi, gradient_phi, solve_phi
from varadhanlab.solver import (_BLOCK, BumpInitial, MildEngine, ModelSpec,
                                ZeroInitial, _Increments, _sub_batch,
                                check_wave_domain, g1_grid)

COV = presets.WAVE_WHITE


class TestModelSpec:
    def test_sigma0_lower_bound_enforced(self):
        # sigma0 is the exact inf |sigma|: 0.75 here, 0 once sigma crosses 0
        m = ModelSpec(COV, ScalarFunc("cos_perturbed", (1.0, 0.25)), ZERO)
        assert m.sigma0 == 0.75
        with pytest.raises(ValueError, match="must be > 0"):
            ModelSpec(COV, ScalarFunc("cos_perturbed", (0.25, 1.0)), ZERO)

    @pytest.mark.parametrize("sigma0", [float("nan"), float("inf")])
    def test_sigma0_must_be_finite(self, sigma0):
        with pytest.raises(ValueError, match="must be finite"):
            ModelSpec(COV, ScalarFunc("const", (sigma0,)), ZERO)

    def test_eps_range(self):
        with pytest.raises(ValueError):
            presets.linear_model().with_eps(1.5)

    def test_wave_domain_guard(self):
        grid = GridSpec(L=0.9, nx=32, nt=16, T=1.0, nk=16, seed=0)
        with pytest.raises(GridError):
            check_wave_domain(presets.linear_model().cov, grid, 0.0)

    @pytest.mark.parametrize("entry", [
        "sample_endpoints", "gradient_phi", "rate_function",
        "rate_profile", "support_probe", "bare_kernel_control", "forward_xi",
        "expansion_check"])
    def test_entry_points_enforce_wave_domain(self, entry):
        # L = 0.9 < |x| + T = 1: periodic wraparound would reach x
        from varadhanlab.rate import rate_function, rate_profile, support_probe
        from varadhanlab.skeleton import bare_kernel_control, expansion_check

        grid = GridSpec(L=0.9, nx=32, nt=16, T=1.0, nk=16, seed=0)
        m = presets.nonlinear_model()
        lat = lattice(COV, grid)
        path = sample_path(lat, 0)
        calls = {
            "sample_endpoints": lambda: sample_endpoints(m, grid, 2, 0.0),
            "gradient_phi": lambda: gradient_phi(m, grid, ControlH.zeros(lat), x=0.0),
            "rate_function": lambda: rate_function(m, grid, 1.0, x=0.0),
            "rate_profile": lambda: rate_profile(m, grid, [0.5, 1.0], x=0.0),
            "support_probe": lambda: support_probe(m, grid, [1.0], x=0.0),
            "bare_kernel_control": lambda: bare_kernel_control(
                m, grid, solve_phi(m, grid, path.control(m.eps)), x=0.0),
            "forward_xi": lambda: forward_xi(m, grid, ControlH.zeros(lat), x=0.0),
            "expansion_check": lambda: expansion_check(
                m, grid, ControlH.zeros(lat), 2, [0.5], x=0.0),
        }
        with pytest.raises(GridError):
            calls[entry]()

    def test_field_endpoint_enforces_wave_domain(self, tiny_grid, nonlinear_model):
        # L = 1.25 < |x| + T = 1.5: the wave value at x = 0.5 has wrapped around
        lat = lattice(COV, tiny_grid)
        fields = [solve_phi(nonlinear_model, tiny_grid, ControlH.zeros(lat)),
                  solve_phi(nonlinear_model, tiny_grid,
                            sample_path(lat, 0).control(nonlinear_model.eps))]
        for f in fields:
            assert np.isfinite(f.endpoint([0.2]))
            with pytest.raises(GridError):
                f.endpoint([0.5])
        heat = presets.nonlinear_model(cov=presets.HEAT_WHITE)
        assert np.isfinite(solve_phi(heat, tiny_grid, ControlH.zeros(
            lattice(presets.HEAT_WHITE, tiny_grid))).endpoint([0.5]))


@pytest.fixture(scope="module")
def linear_endpoints(mc_grid):
    m = presets.linear_model().with_eps(0.5)
    return sample_endpoints(m, mc_grid, 10_000, 0.0)


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
        m = ModelSpec(COV, ONE, ZERO, BumpInitial(amp0=0.7, width0=0.3), eps=0.0)
        lat = lattice(COV, tiny_grid)
        u = solve_phi(m, tiny_grid, sample_path(lat, 0).control(m.eps))
        w = m.w.table(lat, np.arange(tiny_grid.nt + 1) * tiny_grid.dt)
        assert np.allclose(u.values, w, atol=1e-14)

    def test_moments_bounded_in_eps(self, mc_grid):
        # sup over the eps grid of E|u|^p stays below one fixed constant
        # for p = 2, 4, 8 (uniform moment bound, no blow-up as eps varies)
        worst = 0.0
        for eps in (0.1, 0.4, 0.7, 1.0):
            m = presets.nonlinear_model().with_eps(eps)
            u = sample_endpoints(m, mc_grid, 2000, 0.0)
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
        m = ModelSpec(COV, ONE, ScalarFunc("affine", (0.0, 1e18)), ZeroInitial(), 1.0)
        lat = lattice(COV, grid)
        with pytest.raises(BlowUpError) as err:
            solve_phi(m, grid, sample_path(lat, 0).control(m.eps))
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
                ua = solve_phi(m, ga, inc_a.control(m.eps)).endpoint(0.0)
                ub = solve_phi(m, gb, pb.control(m.eps)).endpoint(0.0)
                vals_a.append(ua)
                vals_b.append(ub)
            gaps.append(np.mean(np.abs(np.array(vals_a) - np.array(vals_b))))
        assert gaps[1] < gaps[0]

    def test_l2_continuity(self, mc_grid):
        # E|u(t,x) - u(t',x)|^2 decays monotonically as t' -> t dyadically
        m = presets.nonlinear_model()
        lat = lattice(COV, mc_grid)
        fields = [solve_phi(m, mc_grid, sample_path(lat, s).control(m.eps))
                  for s in range(60)]
        jt = mc_grid.nt
        diffs = []
        for gap in (16, 8, 4, 2, 1):
            d = [np.abs(f.values[jt, 0] - f.values[jt - gap, 0]) ** 2
                 for f in fields]
            diffs.append(np.mean(d))
        assert all(b < a for a, b in zip(diffs, diffs[1:]))


class TestStreamedIncrements:
    @pytest.mark.parametrize("nt", [5, _BLOCK, _BLOCK + 1, 70])
    @pytest.mark.parametrize("short", [1, 3])
    def test_block_draws_equal_one_shot_draw(self, nt, short):
        # jt = nt - short < nt: blocks end at jt, the rest is drawn for the dot
        grid = GridSpec(L=1.25, nx=16, nt=nt, T=1.0, nk=8, seed=4)
        lat = lattice(COV, grid)
        streams = [0, 7, 12345]
        whole = np.stack([sample_path(lat, s).increments for s in streams])
        jt = max(1, nt - short)
        h = ControlH(lat, np.random.default_rng(nt).standard_normal((nt, lat.ncoords)))
        buffer = np.empty((len(streams), min(_BLOCK, nt), lat.ncoords))
        inc = _Increments(MildEngine(COV, grid, jt), streams, h, 0.5, buffer)
        scale = 0.5 / grid.dt
        slabs = []
        for j in range(jt):
            # the drive of slab j; its increments sit in the block buffer
            # until the next draw refills it
            drive = inc(j)
            slabs.append(inc.buffer[:, j % _BLOCK].copy())
            assert np.array_equal(drive, lat.synthesize(h.coeffs[j] + scale * slabs[-1]))
        assert np.array_equal(np.stack(slabs, axis=1), whole[:, :jt])
        dots = inc.girsanov()
        want = np.einsum("bik,ik->b", whole, h.coeffs)
        np.testing.assert_allclose(dots, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
        # the live generators went on to row nt, and the next draw continues
        # there: rows nt .. 2 nt of the same streams on a grid twice as long
        longer = lattice(COV, GridSpec(L=1.25, nx=16, nt=2 * nt, T=2.0, nk=8, seed=4))
        more = sample_increments(lat, inc.generators, np.empty_like(whole))
        assert np.array_equal(more, np.stack([sample_path(longer, s).increments[nt:]
                                              for s in streams]))

    def test_tilted_ensemble_dots_before_t(self, mc_grid):
        # t < T: the Girsanov dot still pairs h with all nt rows of dW
        m = presets.nonlinear_model().with_eps(0.5)
        lat = lattice(COV, mc_grid)
        h = ControlH(lat, np.random.default_rng(2).standard_normal((mc_grid.nt, lat.ncoords)))
        streams = range(40, 80)
        _, dots = sample_endpoints(m, mc_grid, len(streams), 0.0, t=0.4, h=h, stream0=40)
        whole = np.stack([sample_path(lat, s).increments for s in streams])
        want = np.einsum("bik,ik->b", whole, h.coeffs)
        np.testing.assert_allclose(dots, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


class TestChunkMemory:
    @pytest.mark.parametrize("operator", ["wave", "heat"])
    def test_traced_peak_has_no_full_increments(self, operator):
        # peak bytes of one chunk that fits one sub-batch, from shapes: one
        # increment block, the initial table, for wave the (nspec, nt, B)
        # complex history and the open block's (nspec, _BLOCK, 2B) far sums,
        # plus an O(B) allowance for the per-stream generators and per-step
        # spectra and fields; no (B, nt, ncoords) term
        cov = CovarianceSpec(operator, 1, "white")
        grid = GridSpec(L=1.25, nx=16, nt=256, T=1.0, nk=8, seed=1)
        m = presets.nonlinear_model(cov=cov)
        lat = lattice(cov, grid)
        B, nt, nspec = 64, grid.nt, lat.nspec
        sample_endpoints(m, grid, B, 0.0)              # warm the lattice and weights
        tracemalloc.start()
        try:
            sample_endpoints(m, grid, B, 0.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        bound = (B * _BLOCK * lat.ncoords * 8 + (nt + 1) * grid.nx * 8
                 + B * (8192 + 32 * (grid.nx + nspec) * 16))
        if operator == "wave":
            bound += nspec * nt * B * 16 + nspec * _BLOCK * 2 * B * 8
        assert peak < bound

    @pytest.mark.parametrize("entry", ["sample_endpoints", "expansion_check"])
    def test_full_chunk_holds_one_sub_batch_at_a_time(self, entry):
        # a 512-replica wave chunk at nt = 256 runs in sub-batches of the
        # size _sub_batch gives, so its peak is one sub-batch's state (the
        # increment rows and history of each of its streams), far sums and
        # O(size) allowance as above, plus a few (nt + 1, nx) tables: no
        # (nspec, nt, 512) history; expansion_check's first-chaos and
        # shifted draws are such chunks
        from varadhanlab.skeleton import expansion_check

        grid = GridSpec(L=1.25, nx=32, nt=256, T=1.0, nk=16, seed=1)
        m = presets.nonlinear_model()
        lat = lattice(COV, grid)
        B, nt, nspec = mc.CHUNK, grid.nt, lat.nspec
        size, state = _sub_batch(lat, nt, B)
        h = ControlH.zeros(lat)
        run = {"sample_endpoints": lambda: sample_endpoints(m, grid, B, 0.0),
               "expansion_check": lambda: expansion_check(m, grid, h, B, [0.5], x=0.0)}
        run[entry]()                                    # warm the lattice and weights
        tracemalloc.start()
        try:
            run[entry]()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        bound = (size * (state + nspec * _BLOCK * 2 * 8 + 8192 + 32 * (grid.nx + nspec) * 16)
                 + 4 * (nt + 1) * grid.nx * 8)
        assert peak < bound < B * nt * nspec * 16


def _coarsen(path_fine, lat_coarse):
    """Restrict a fine path to a coarse lattice: sum time pairs, match modes.

    A coordinate is named by its mode m and its part, read off the float
    slot extract reads it from: 0 for cos (or the zero mode), 1 for sin.
    """
    lf = path_fine.lattice
    ratio = lf.grid.nt // lat_coarse.grid.nt
    inc = path_fine.increments.reshape(lat_coarse.grid.nt, ratio, -1).sum(axis=1)

    def names(lat):
        return [(tuple(lat._m[s // 2].tolist()), s % 2) for s in lat._extract_slot]

    fine_cols = {name: i for i, name in enumerate(names(lf))}
    return NoisePath(lat_coarse, inc[:, [fine_cols[name] for name in names(lat_coarse)]])


class TestShiftIdentity:
    def test_pathwise_identity_every_replica(self, mc_grid, rng):
        # the field of the path translated by eps^-1 h equals the shifted
        # equation driven by the original path, pathwise to solver precision
        m = presets.nonlinear_model().with_eps(0.5)
        lat = lattice(COV, mc_grid)
        h = ControlH(lat, 0.4 * rng.standard_normal((mc_grid.nt, lat.ncoords)))
        for s in range(20):
            p = sample_path(lat, s)
            shifted = NoisePath(lat, p.increments + mc_grid.dt / m.eps * h.coeffs)
            u1 = solve_phi(m, mc_grid, shifted.control(m.eps))
            u2 = solve_phi(m, mc_grid, h + p.control(m.eps))
            assert np.max(np.abs(u1.values - u2.values)) < 1e-8

    @pytest.mark.parametrize("with_h", [False, True])
    def test_ensemble_matches_single_path_solves(self, mc_grid, with_h):
        # a batch synthesizes its drive slab by slab, one path all at once:
        # both give every stream the same endpoint to rounding
        m = presets.nonlinear_model().with_eps(0.7)
        lat = lattice(COV, mc_grid)
        rng = np.random.default_rng(5)
        h = ControlH(lat, 0.4 * rng.standard_normal((mc_grid.nt, lat.ncoords))) \
            if with_h else None
        streams = range(4)
        batch = sample_endpoints(m, mc_grid, len(streams), 0.0, h=h)
        if with_h:
            batch = batch[0]
        controls = [sample_path(lat, s).control(m.eps) for s in streams]
        single = [solve_phi(m, mc_grid, h + c if with_h else c).endpoint(0.0)
                  for c in controls]
        np.testing.assert_allclose(batch, single, rtol=1e-12, atol=0.0)

    def test_zero_control_reduces_to_simulate(self, small_grid):
        m = presets.nonlinear_model()
        lat = lattice(COV, small_grid)
        p = sample_path(lat, 2)
        u1 = solve_phi(m, small_grid, p.control(m.eps))
        u2 = solve_phi(m, small_grid, ControlH.zeros(lat) + p.control(m.eps))
        assert np.array_equal(u1.values, u2.values)

    def test_linear_limit_matches_skeleton(self, small_grid, rng):
        # sigma = 1, b = 0, eps -> 0: shifted field equals w + <Lambda, h>
        m = presets.linear_model().with_eps(0.0)
        lat = lattice(COV, small_grid)
        h = ControlH(lat, rng.standard_normal((small_grid.nt, lat.ncoords)))
        p = sample_path(lat, 0)
        u = solve_phi(m, small_grid, h + p.control(m.eps))
        phi = solve_phi(m, small_grid, h)
        assert np.allclose(u.values, phi.values, atol=1e-12)


class TestFirstVariation:
    """D u(t, x) = eps G(c) for the path's control c = path.control(eps).

    The lane route is eps forward_xi(c), the adjoint route
    eps gradient_phi(c, phi=u).
    """

    def test_linear_norm_is_exact(self, small_grid):
        m = presets.linear_model().with_eps(0.5)
        lat = lattice(COV, small_grid)
        p = sample_path(lat, 1)
        D = m.eps * forward_xi(m, small_grid, p.control(m.eps), x=0.0).coeffs
        want = 0.25 * g1_grid(COV, small_grid, 1.0)
        assert ControlH(lat, D).norm_sq == pytest.approx(want, rel=1e-12)

    def test_rows_beyond_t_vanish(self, small_grid):
        m = presets.nonlinear_model().with_eps(0.5)
        lat = lattice(COV, small_grid)
        p = sample_path(lat, 1)
        D = m.eps * forward_xi(m, small_grid, p.control(m.eps), t=0.5, x=0.0).coeffs
        jt = small_grid.time_index(0.5)
        assert np.all(D[jt:] == 0.0)
        assert np.any(D[:jt] != 0.0)

    def test_matches_adjoint_route(self, small_grid):
        m = presets.nonlinear_model().with_eps(0.75)
        lat = lattice(COV, small_grid)
        p = sample_path(lat, 4)
        u = solve_phi(m, small_grid, p.control(m.eps))
        D = m.eps * forward_xi(m, small_grid, p.control(m.eps), x=0.0).coeffs
        Da = m.eps * gradient_phi(m, small_grid, p.control(m.eps), x=0.0, phi=u).coeffs
        assert np.max(np.abs(D - Da)) < 1e-12

    @pytest.mark.parametrize("t", [None, 0.5])
    def test_matches_central_differences_of_simulate(self, small_grid, t):
        # the path perturbed by tau dt g has the control c + eps tau g, so
        # d/dtau u(t, x) = <D, g>_{H_T} with D = eps G(c)
        m = presets.nonlinear_model().with_eps(0.6)
        lat = lattice(COV, small_grid)
        p = sample_path(lat, 5)
        D = ControlH(lat, m.eps * gradient_phi(m, small_grid, p.control(m.eps), t,
                                               x=0.0).coeffs)
        rng = np.random.default_rng(11)
        dt, tau = small_grid.dt, 1e-5
        for _ in range(3):
            g = ControlH(lat, rng.standard_normal((small_grid.nt, lat.ncoords)))
            up, down = (solve_phi(m, small_grid, NoisePath(
                lat, p.increments + s * dt * g.coeffs).control(m.eps), t).endpoint(0.0)
                for s in (tau, -tau))
            fd = (up - down) / (2 * tau)
            assert abs(fd - ht_inner(D, g)) <= 1e-4 * abs(fd)

    def test_eps_scaling_of_norm(self, small_grid):
        # E ||D u||^2 / eps^2 stays within 5% across eps
        vals = []
        for eps in (0.25, 0.5, 1.0):
            m = presets.nonlinear_model().with_eps(eps)
            lat = lattice(COV, small_grid)
            norms = []
            for s in range(40):
                p = sample_path(lat, s)
                u = solve_phi(m, small_grid, p.control(m.eps))
                Da = m.eps * gradient_phi(m, small_grid, p.control(m.eps), x=0.0,
                                          phi=u).coeffs
                norms.append(ControlH(lat, Da).norm_sq)
            vals.append(np.mean(norms) / eps ** 2)
        assert max(vals) / min(vals) < 1.05

    def test_memory_budget_guard(self):
        # the lane state would take about 8.6e9 bytes, past the 2 GiB budget;
        # the guard must raise before any of it is allocated
        grid = GridSpec(L=1.25, nx=256, nt=128, T=1.0, nk=127, seed=0)
        m = presets.nonlinear_model()
        p = sample_path(lattice(COV, grid), 0)
        tracemalloc.start()
        try:
            with pytest.raises(MemoryBudgetError, match="needs 8[0-9]{9} bytes"):
                forward_xi(m, grid, p.control(m.eps), x=0.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50e6

    def test_budget_guard_runs_before_the_forward_solve(self, monkeypatch):
        from varadhanlab import skeleton

        def no_solve(*args, **kwargs):
            raise AssertionError("forward solve ran before the budget guard")

        grid = GridSpec(L=1.25, nx=256, nt=128, T=1.0, nk=127, seed=0)
        m = presets.nonlinear_model()
        monkeypatch.setattr(skeleton, "_forward", no_solve)
        with pytest.raises(MemoryBudgetError):
            forward_xi(m, grid, ControlH.zeros(lattice(COV, grid)), x=0.0)


class TestFieldExport:
    def test_binary_header(self, tiny_grid, tmp_path):
        m = presets.linear_model()
        lat = lattice(COV, tiny_grid)
        u = solve_phi(m, tiny_grid, sample_path(lat, 0).control(m.eps))
        u.save(tmp_path / "f.bin")
        raw = (tmp_path / "f.bin").read_bytes()
        assert raw[:8] == b"VLFIELD1"
