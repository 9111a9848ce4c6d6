import numpy as np
import pytest
from scipy import optimize

from varadhanlab import presets, rate
from varadhanlab.errors import BracketError, GridError
from varadhanlab.funcs import ONE, ScalarFunc
from varadhanlab.noise import ControlH, GridSpec, lattice
from varadhanlab.rate import rate_function, rate_profile, support_probe
from varadhanlab.skeleton import solve_phi
from varadhanlab.solver import ModelSpec, ZeroInitial, g1_grid

COV = presets.WAVE_WHITE


@pytest.fixture(scope="module")
def grid():
    # coarse spectral grid keeps each skeleton solve cheap
    return GridSpec(L=1.25, nx=64, nt=32, T=1.0, nk=32, seed=13)


def init_shift(model, grid, z, alpha, x=None):
    """The constructive bracket (+h, -h) of z at (T, x)."""
    hp = rate._init_shift(rate._Skeleton(model, grid, None, x), z, alpha)
    return hp, -1.0 * hp


class TestInitShift:
    def test_linear_closed_form_scaling(self, grid, linear_model):
        # sigma=1, b=0, w=0, z=1, alpha=0.1: scale = 1.1/g1, endpoints +-1.1
        hp, hm = init_shift(linear_model, grid, 1.0, 0.1, x=0.0)
        up = solve_phi(linear_model, grid, hp).endpoint(0.0)
        dn = solve_phi(linear_model, grid, hm).endpoint(0.0)
        assert up == pytest.approx(1.1, rel=1e-10)
        assert dn == pytest.approx(-1.1, rel=1e-10)
        # the control is the kernel direction scaled by 1.1/g1
        gg = g1_grid(COV, grid, 1.0)
        assert hp.norm_sq == pytest.approx(1.1 ** 2 / gg, rel=1e-10)

    def test_center_point_any_margin(self, grid, nonlinear_model):
        lat = lattice(COV, grid)
        z = solve_phi(nonlinear_model, grid, ControlH.zeros(lat)).endpoint(0.0)
        for alpha in (0.01, 1.0):
            hp, hm = init_shift(nonlinear_model, grid, z, alpha, x=0.0)
            up = solve_phi(nonlinear_model, grid, hp).endpoint(0.0)
            dn = solve_phi(nonlinear_model, grid, hm).endpoint(0.0)
            assert dn < z < up

    def test_nonlinear_brackets_target(self, grid, nonlinear_model):
        hp, hm = init_shift(nonlinear_model, grid, 2.0, 0.5, x=0.0)
        up = solve_phi(nonlinear_model, grid, hp).endpoint(0.0)
        dn = solve_phi(nonlinear_model, grid, hm).endpoint(0.0)
        assert dn < 2.0 < up

    def test_unbounded_drift_signals(self, grid):
        m = ModelSpec(COV, ONE, ScalarFunc("affine", (0.0, 0.5)), ZeroInitial(), 1.0)
        with pytest.raises(BracketError):
            init_shift(m, grid, 1.0, 0.1, x=0.0)

    @pytest.mark.parametrize("z, alpha", [(np.nan, 0.1), (np.inf, 0.1), (-np.inf, 0.1),
                                          (1.0, np.nan), (1.0, np.inf), (1.0, 0.0)])
    def test_non_finite_target_or_margin_is_a_value_error(
            self, tiny_grid, nonlinear_model, monkeypatch, z, alpha):
        # a non-finite scale would make a NaN control and read as a blow-up
        solves = []
        monkeypatch.setattr(rate, "solve_phi", lambda *a, **kw: solves.append(a))
        with pytest.raises(ValueError, match="z = |alpha = "):
            init_shift(nonlinear_model, tiny_grid, z, alpha)
        assert not solves


class TestRateFunction:
    def test_linear_matches_closed_form(self, grid, linear_model):
        res = rate_function(linear_model, grid, 1.0, x=0.0)
        want = 1.0 / (2.0 * g1_grid(COV, grid, 1.0))
        assert res.converged
        assert res.I == pytest.approx(want, rel=1e-3)

    def test_zero_at_reachable_center(self, grid, nonlinear_model):
        lat = lattice(COV, grid)
        y0 = solve_phi(nonlinear_model, grid, ControlH.zeros(lat)).endpoint(0.0)
        res = rate_function(nonlinear_model, grid, y0, x=0.0)
        assert res.converged
        assert res.I == 0.0
        assert res.h_star.norm == 0.0

    def test_linear_symmetry(self, grid, linear_model):
        rp = rate_function(linear_model, grid, 0.8, x=0.0)
        rm = rate_function(linear_model, grid, -0.8, x=0.0)
        assert rp.I == pytest.approx(rm.I, rel=1e-6)

    def test_feasibility_and_stationarity(self, grid, nonlinear_model):
        res = rate_function(nonlinear_model, grid, 1.2, x=0.0)
        assert res.converged
        assert res.residual < 1e-6 * np.sqrt(g1_grid(COV, grid, 1.0)) * 1.25
        assert res.stationarity < 1e-4
        assert res.gamma_bar_at_hstar > 0.0

    def test_refinement_stability(self, linear_model, nonlinear_model):
        # I on (nt, nk) and (2nt, 2nk) agree within 2%
        for model in (linear_model, nonlinear_model):
            vals = []
            for fac in (1, 2):
                g = GridSpec(L=1.25, nx=64 * fac, nt=32 * fac, T=1.0,
                             nk=32 * fac, seed=13)
                vals.append(rate_function(model, g, 1.0, x=0.0).I)
            assert abs(vals[1] - vals[0]) / vals[0] < 0.02


    def test_one_augmented_lagrangian_run_per_point(self, grid, nonlinear_model,
                                                    monkeypatch):
        runs = []
        solve = rate._auglag_solve

        def spy(*args):
            runs.append(solve(*args))
            return runs[-1]

        monkeypatch.setattr(rate, "_auglag_solve", spy)
        res = rate_function(nonlinear_model, grid, 1.2, x=0.0)
        assert runs == [res]
        assert res.adjoint_sweeps >= res.iterations >= 1
        lat = lattice(COV, grid)
        y0 = solve_phi(nonlinear_model, grid, ControlH.zeros(lat)).endpoint(0.0)
        centre = rate_function(nonlinear_model, grid, y0, x=0.0)
        assert len(runs) == 1 and centre.iterations == 0


class TestRateProfile:
    def test_linear_parabola(self, grid, linear_model):
        y_grid = np.linspace(-1.0, 1.0, 9)
        results = rate_profile(linear_model, grid, y_grid, x=0.0)
        gg = g1_grid(COV, grid, 1.0)
        for r in results:
            assert r.converged
            assert r.I == pytest.approx(r.y ** 2 / (2.0 * gg), rel=1e-3, abs=1e-9)

    def test_profile_minimum_at_center(self, grid, nonlinear_model):
        lat = lattice(COV, grid)
        y0 = solve_phi(nonlinear_model, grid, ControlH.zeros(lat)).endpoint(0.0)
        y_grid = np.unique(np.concatenate([np.linspace(-1.5, 1.5, 7), [y0]]))
        results = rate_profile(nonlinear_model, grid, y_grid, x=0.0)
        vals = np.array([r.I for r in results])
        arg = float(y_grid[np.argmin(vals)])
        cell = np.max(np.diff(y_grid))
        assert abs(arg - y0) <= cell + 1e-12
        # empirically quasi-convex: nondecreasing away from the minimum
        k = int(np.argmin(vals))
        assert np.all(np.diff(vals[k:]) >= -1e-9)
        assert np.all(np.diff(vals[:k + 1]) <= 1e-9)

    def test_unsorted_grid_rejected(self, grid, linear_model):
        with pytest.raises(ValueError):
            rate_profile(linear_model, grid, [0.5, 0.1], x=0.0)

    @pytest.mark.parametrize("y", [np.nan, np.inf, -np.inf])
    def test_non_finite_target_is_a_value_error(self, grid, linear_model, y):
        # a NaN target would become a NaN control and read as a blow-up
        with pytest.raises(ValueError, match="not finite"):
            rate_function(linear_model, grid, y, x=0.0)
        with pytest.raises(ValueError, match="non-finite"):
            rate_profile(linear_model, grid, [0.5, y], x=0.0)

    @pytest.mark.parametrize("tol_rel", [float("nan"), -1.0, 0.0, float("inf")])
    @pytest.mark.parametrize("profile", [False, True])
    def test_tolerance_outside_the_open_half_line_is_a_value_error(
            self, tiny_grid, nonlinear_model, monkeypatch, tol_rel, profile):
        solves = []
        monkeypatch.setattr(rate, "solve_phi", lambda *a, **kw: solves.append(a))
        with pytest.raises(ValueError, match="tol_rel"):
            if profile:
                rate_profile(nonlinear_model, tiny_grid, [0.5, 1.0], tol_rel=tol_rel)
            else:
                rate_function(nonlinear_model, tiny_grid, 1.0, tol_rel=tol_rel)
        assert not solves                             # raised before any solve


class TestSupportProbe:
    def test_budget_zero_degenerate(self, grid, nonlinear_model):
        lat = lattice(COV, grid)
        y0 = solve_phi(nonlinear_model, grid, ControlH.zeros(lat)).endpoint(0.0)
        [(lo, hi)] = support_probe(nonlinear_model, grid, [0.0], x=0.0)
        assert lo == hi == pytest.approx(y0)

    @pytest.mark.parametrize("budget", [-1.0, [-1.0, 1.0], [np.nan, 1.0],
                                        np.inf, [1.0, np.inf]])
    def test_negative_budget_is_a_value_error(self, grid, nonlinear_model, budget,
                                              monkeypatch):
        # no control has ||h||^2 / 2 < 0 (or NaN), so there is no interval;
        # an infinite budget would make an infinite ray and read as a blow-up
        solves = []
        monkeypatch.setattr(rate, "solve_phi", lambda *a, **kw: solves.append(a))
        with pytest.raises(ValueError, match="must be a number >= 0"):
            support_probe(nonlinear_model, grid, budget, x=0.0)
        assert not solves

    def test_empty_budget_list_is_a_value_error(self, tiny_grid, nonlinear_model,
                                                monkeypatch):
        solves = []
        monkeypatch.setattr(rate, "solve_phi", lambda *a, **kw: solves.append(a))
        with pytest.raises(ValueError, match="budget list is empty"):
            support_probe(nonlinear_model, tiny_grid, [])
        assert not solves

    def test_widths_increase_with_budget(self, grid, nonlinear_model):
        intervals = support_probe(nonlinear_model, grid, [1.0, 10.0, 100.0], x=0.0)
        widths = [hi - lo for lo, hi in intervals]
        assert widths[0] < widths[1] < widths[2]

    def test_linear_budget_maximum(self, linear_model):
        # optimal direction is the kernel itself: max = sqrt(2 B g1)
        g = GridSpec(L=1.25, nx=256, nt=64, T=1.0, nk=128, seed=13)
        for budget in (1.0, 10.0):
            [(lo, hi)] = support_probe(linear_model, g, [budget], x=0.0)
            from varadhanlab.covkernel import g1
            want = np.sqrt(2.0 * budget * g1(COV, 1.0))
            assert hi == pytest.approx(want, rel=0.01)
            assert lo == pytest.approx(-want, rel=0.01)


@pytest.mark.parametrize("entry", [
    lambda m, g: rate_function(m, g, 1.0, x=0.0),
    lambda m, g: rate_profile(m, g, [0.5, 1.0], x=0.0),
    lambda m, g: support_probe(m, g, [1.0], x=0.0)],
    ids=["rate_function", "rate_profile", "support_probe"])
def test_wave_domain_guard_fires_before_any_solve(nonlinear_model, monkeypatch, entry):
    # L = 0.9 < |x| + T = 1: periodic wraparound would reach x
    solves = []
    monkeypatch.setattr(rate, "solve_phi", lambda *a, **kw: solves.append(a))
    with pytest.raises(GridError, match="finite propagation speed"):
        entry(nonlinear_model, GridSpec(L=0.9, nx=32, nt=16, T=1.0, nk=16, seed=0))
    assert not solves


class TestSkeletonSolves:
    @pytest.fixture()
    def calls(self, monkeypatch):
        # every forward skeleton solve of the rate layer goes through
        # rate.solve_phi, except gradient_phi's own solve at the centre
        calls = []
        solve = rate.solve_phi

        def counting(*args, **kwargs):
            calls.append(args[2])
            return solve(*args, **kwargs)

        monkeypatch.setattr(rate, "solve_phi", counting)
        return calls

    @pytest.fixture()
    def sweeps(self, monkeypatch):
        # every adjoint sweep of the rate layer is one rate.gradient_phi call
        sweeps = []
        gradient = rate.gradient_phi

        def counting(*args, **kwargs):
            sweeps.append(args[2])
            return gradient(*args, **kwargs)

        monkeypatch.setattr(rate, "gradient_phi", counting)
        return sweeps

    @pytest.fixture()
    def stops(self, monkeypatch):
        # the result of every L-BFGS-B run, one per outer iteration
        stops = []
        minimize = optimize.minimize
        monkeypatch.setattr(optimize, "minimize",
                            lambda *a, **kw: stops.append(minimize(*a, **kw)) or stops[-1])
        return stops

    def test_point_counts_every_solve(self, tiny_grid, nonlinear_model, calls):
        res = rate_function(nonlinear_model, tiny_grid, 1.0)
        assert res.skeleton_solves == len(calls)
        # the cold start's solves are not AL evaluations, so they have no sweep
        assert res.skeleton_solves > res.adjoint_sweeps >= res.iterations >= 1

    def test_cold_point_solves_no_control_twice(self, tiny_grid, nonlinear_model,
                                                calls, stops):
        # Phi^0 serves the kernel direction, the bracket ends brentq's first
        # calls, its root the first AL evaluation, and L-BFGS restarts each
        # outer iteration at its last point: each is remembered, not solved
        # again.  At y = -0.7 every L-BFGS stop returns its last evaluation.
        res = rate_function(nonlinear_model, tiny_grid, -0.7)
        assert res.iterations > 1 and [r.status for r in stops] == [0] * res.iterations
        keys = {h.coeffs.tobytes() for h in calls}
        assert len(keys) == len(calls) == res.skeleton_solves

    def test_minimiser_is_the_last_l_bfgs_iterate(self, tiny_grid, nonlinear_model,
                                                  stops):
        # at y = 1 the last L-BFGS run stops ABNORMAL: its res.x is an
        # earlier iterate than its last trial point, and h* must be res.x
        res = rate_function(nonlinear_model, tiny_grid, 1.0)
        assert res.converged and "ABNORMAL" in stops[-1].message
        assert res.h_star.coeffs.tobytes() == stops[-1].x.tobytes()

    def test_centre_counts_the_gradient_solve(self, tiny_grid, nonlinear_model, calls):
        # the centre's gradient sweeps the remembered Phi^0
        y0 = solve_phi(nonlinear_model, tiny_grid,
                       ControlH.zeros(lattice(COV, tiny_grid))).endpoint()
        del calls[:]
        res = rate_function(nonlinear_model, tiny_grid, y0)
        assert res.I == 0.0 and res.iterations == 0
        assert res.skeleton_solves == len(calls) == 1

    def test_profile_counts_sum_to_its_solves(self, tiny_grid, nonlinear_model, calls):
        y0 = solve_phi(nonlinear_model, tiny_grid,
                       ControlH.zeros(lattice(COV, tiny_grid))).endpoint()
        del calls[:]
        results = rate_profile(nonlinear_model, tiny_grid, sorted([y0, 0.5, 1.0]))
        assert all(r.skeleton_solves >= r.adjoint_sweeps for r in results)
        assert sum(r.skeleton_solves for r in results) == len(calls)

    def test_profile_warm_start_is_a_memo_hit(self, tiny_grid, nonlinear_model,
                                              calls, sweeps, monkeypatch):
        # the second point starts from the first's minimiser, whose field and
        # gradient the evaluator of their (t, x) still holds
        starts = []
        auglag = rate._auglag_solve
        monkeypatch.setattr(rate, "_auglag_solve",
                            lambda sk, y, h0, tol_c: starts.append(
                                (h0.coeffs.tobytes(), len(calls), len(sweeps)))
                            or auglag(sk, y, h0, tol_c))
        results = rate_profile(nonlinear_model, tiny_grid, [1.0, 1.1])
        assert len(starts) == 2 and all(r.converged for r in results)
        warm, solved, swept = starts[1]
        assert warm in {r.h_star.coeffs.tobytes() for r in results}
        assert warm in {h.coeffs.tobytes() for h in calls[:solved]}
        assert warm not in {h.coeffs.tobytes() for h in calls[solved:] + sweeps[swept:]}
        assert sum(r.skeleton_solves for r in results) == len(calls)

    def test_probe_makes_two_solves_per_positive_budget(self, tiny_grid,
                                                        nonlinear_model, calls):
        # Phi^0, then the two ends of the constructive ray per budget b > 0
        intervals = support_probe(nonlinear_model, tiny_grid, [0.0, 1.0, 10.0])
        assert isinstance(intervals, list) and len(intervals) == 3
        assert len(calls) == 1 + 2 * 2

    def test_point_counts_every_adjoint_sweep(self, tiny_grid, nonlinear_model, sweeps):
        res = rate_function(nonlinear_model, tiny_grid, 1.0)
        assert res.adjoint_sweeps == len(sweeps) >= res.iterations >= 1

    def test_centre_counts_its_adjoint_sweep(self, tiny_grid, nonlinear_model, sweeps):
        y0 = solve_phi(nonlinear_model, tiny_grid,
                       ControlH.zeros(lattice(COV, tiny_grid))).endpoint()
        res = rate_function(nonlinear_model, tiny_grid, y0)
        assert res.iterations == 0
        assert res.adjoint_sweeps == len(sweeps) == 1

    def test_profile_sweeps_sum_to_its_gradients(self, tiny_grid, nonlinear_model, sweeps):
        y0 = solve_phi(nonlinear_model, tiny_grid,
                       ControlH.zeros(lattice(COV, tiny_grid))).endpoint()
        results = rate_profile(nonlinear_model, tiny_grid, sorted([y0, 0.5, 1.0]))
        assert sum(r.adjoint_sweeps for r in results) == len(sweeps)
