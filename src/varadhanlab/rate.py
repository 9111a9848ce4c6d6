"""Variational rate function I(y) = inf { ||h||^2 / 2 : skeleton endpoint = y }.

Each rate point is one augmented-Lagrangian run: an outer loop of
multiplier updates and penalty growth on stalls around an L-BFGS inner
minimization over the flattened control coefficients, with gradients from
the discrete adjoint of the skeleton recursion.  A cold run starts from the
constructive reachability shift: scaled copies of the kernel direction
Lambda(t-., x-*) sigma(Phi^0) bracket any target when the drift is bounded,
and the bracket is bisected to a feasible initializer.

scipy.optimize is imported on first use, in _feasible_start (brentq) and
_auglag_solve (L-BFGS-B), so importing this module does not load it: a
process that only samples (simulate, density, varadhan, support) saves
the resident memory and import time that covkernel's docstring gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import covkernel
from .errors import BracketError
from .funcs import looks_bounded, sup_abs
from .noise import ControlH, GridSpec, lattice
from .skeleton import bare_kernel_control, gradient_phi, solve_phi
from .solver import ModelSpec, check_wave_domain, g1_grid

# augmented-Lagrangian budgets: outer iterations, L-BFGS iterations per
# outer iteration, initial penalty and its growth factor on a stall
_MAX_OUTER = 14
_MAX_INNER = 400
_PENALTY0 = 10.0
_PENALTY_GROWTH = 10.0
# evaluations _auglag_solve remembers: L-BFGS restarts each outer iteration
# at its last point and its line search revisits points 2 and 4 back
_MEMO = 4


@dataclass
class RateResult:
    """Outcome of one rate-function minimization.

    evaluations counts the controls the augmented-Lagrangian run solved (one
    skeleton solve and one adjoint sweep each; a control among its last
    _MEMO evaluations is not solved again); it is 0 at the zero-control
    centre.  skeleton_solves counts every forward skeleton solve of the
    point: the evaluations, a cold start's (Phi^0 and the two bracket checks
    of init_shift, then the bisection) and the centre's gradient solve.  The
    zero-control endpoint shared by the points of one (t, x) is counted in
    the first point solved, so the counts of a profile sum to its solves.
    adjoint_sweeps counts the gradient_phi sweeps: one per evaluation, and
    the centre's one.
    """

    y: float
    I: float
    h_star: ControlH
    residual: float
    iterations: int
    converged: bool
    gamma_bar_at_hstar: float
    stationarity: float = math.nan
    evaluations: int = 0
    skeleton_solves: int = 0
    adjoint_sweeps: int = 0

    def validate(self, tol_c: float):
        if self.converged and self.residual >= tol_c:
            raise AssertionError("converged result violates the residual tolerance")
        if self.I < -1e-12:
            raise AssertionError("rate values are nonnegative")
        if self.converged and self.gamma_bar_at_hstar <= 0.0:
            raise AssertionError("gradient norm at the optimum must be positive")


def _endpoint(model, grid, h, t, x):
    return solve_phi(model, grid, h, t).endpoint(x)


def _spread_scale(model, grid, tt) -> float:
    """Endpoint spread of the linear surrogate, used to scale tolerances."""
    sigma_ref = float(np.abs(model.sigma(0.0)))
    return max(sigma_ref, model.sigma0) * math.sqrt(g1_grid(model.cov, grid, tt))


def init_shift(model: ModelSpec, grid: GridSpec, z: float, alpha: float,
               t: float | None = None, x=None) -> tuple[ControlH, ControlH]:
    """Constructive controls (+h, -h) whose skeleton endpoints bracket z.

    The direction is the kernel field sigma(Phi^0) Lambda(t-., x-*) scaled by
    (|z| + alpha + I2 + |w(t,x)|) / I1 with I1 = sigma0^2 ||Lambda||^2 and
    I2 = |b|_inf int_0^t Lambda(s)(R^d) ds.  Requires bounded drift; the
    bracket is verified by evaluation.
    """
    if alpha <= 0.0:
        raise ValueError("margin alpha must be positive")
    lat = lattice(model.cov, grid)
    tt = grid.T if t is None else t
    if not looks_bounded(model.b):
        raise BracketError("construction hypothesis failed: drift appears unbounded")
    phi0 = solve_phi(model, grid, ControlH.zeros(lat), t)
    w_tx = model.w.table(lat, np.array([tt]))[0][lat.point_index(x)]
    i1 = model.sigma0 ** 2 * g1_grid(model.cov, grid, tt)
    i2 = sup_abs(model.b) * covkernel.j2_integral(model.cov, tt)
    scale = (abs(z) + alpha + i2 + abs(float(w_tx))) / i1
    direction = bare_kernel_control(model, grid, phi0, t, x)
    h_plus = scale * direction
    up = _endpoint(model, grid, h_plus, t, x)
    down = _endpoint(model, grid, -1.0 * h_plus, t, x)
    if not down < z < up:
        raise BracketError(
            f"construction hypothesis failed: endpoints [{down:.6g}, {up:.6g}] "
            f"do not bracket {z:.6g}")
    return h_plus, -1.0 * h_plus


def _feasible_start(model, grid, y, t, x, alpha):
    """Bisect the init_shift segment to a control whose endpoint is near y.

    Returns the control and the skeleton solves spent: the three of
    init_shift and one per bisection step.
    """
    from scipy import optimize

    h_plus, _ = init_shift(model, grid, y, alpha, t, x)

    def f(tau):
        return _endpoint(model, grid, tau * h_plus, t, x) - y

    tau, info = optimize.brentq(f, -1.0, 1.0, xtol=1e-10, maxiter=200,
                                full_output=True)
    return tau * h_plus, 3 + info.function_calls


def _auglag_solve(model, grid, y, h0: ControlH, t, x, tol_c) -> RateResult:
    """One augmented-Lagrangian run from the control h0."""
    from scipy import optimize

    lat = lattice(model.cov, grid)
    dt = grid.dt
    shape = (grid.nt, lat.ncoords)
    lam, mu = 0.0, _PENALTY0
    v = np.array(h0.coeffs, dtype=float).reshape(-1)
    prev_c = None
    evaluations = 0
    recent = {}        # control bytes -> (h, c, G), the last _MEMO evaluations
    for n_outer in range(1, _MAX_OUTER + 1):
        cache = {}

        def val_grad(vflat):
            nonlocal evaluations
            key = vflat.tobytes()
            if key not in recent:
                evaluations += 1
                hh = ControlH(lat, vflat.reshape(shape))
                phi = solve_phi(model, grid, hh, t)
                recent[key] = (hh, phi.endpoint(x) - y,
                               gradient_phi(model, grid, hh, t, x, phi=phi))
                if len(recent) > _MEMO:
                    del recent[next(iter(recent))]
            hh, cc, GG = recent[key]
            obj = 0.5 * hh.norm_sq + lam * cc + 0.5 * mu * cc * cc
            grad = dt * (hh.coeffs + (lam + mu * cc) * GG.coeffs)
            cache["c"], cache["G"], cache["h"] = cc, GG, hh
            return obj, grad.reshape(-1)

        res = optimize.minimize(val_grad, v, jac=True, method="L-BFGS-B",
                                options={"maxiter": _MAX_INNER,
                                         "ftol": 1e-16, "gtol": 1e-12})
        v = res.x
        c, G, h = cache["c"], cache["G"], cache["h"]
        lam += mu * c
        stat = np.linalg.norm(h.coeffs + lam * G.coeffs) / \
            max(np.linalg.norm(h.coeffs), 1e-300)
        converged = abs(c) < tol_c
        if converged:
            break
        if prev_c is not None and abs(c) > 0.25 * prev_c:
            mu *= _PENALTY_GROWTH
        prev_c = abs(c)
    return RateResult(y, 0.5 * h.norm_sq, h, abs(c), n_outer, converged,
                      G.norm_sq, stationarity=float(stat), evaluations=evaluations,
                      adjoint_sweeps=evaluations)


class _RatePoints:
    """Rate points at one (t, x), sharing the wave-domain guard, the
    constraint tolerance and the zero-control endpoint phi0_end."""

    def __init__(self, model, grid, t, x, tol_rel):
        if not 0.0 < tol_rel < math.inf:                # NaN fails too
            raise ValueError(f"tol_rel = {tol_rel} must lie in (0, inf)")
        self.model, self.grid, self.t, self.x = model, grid, t, x
        self.lat = lattice(model.cov, grid)
        check_wave_domain(model.cov, grid, x)
        tt = grid.T if t is None else t
        self.tol_c = tol_rel * max(_spread_scale(model, grid, tt), 1e-12)
        self.phi0_end = _endpoint(model, grid, ControlH.zeros(self.lat), t, x)
        self._pending_solves = 1     # phi0_end's solve, counted in the next point

    def solve(self, y: float, warm: ControlH | None = None) -> RateResult:
        """One run from warm; a cold run from the constructive start when
        there is no warm start or its run does not converge."""
        model, grid, t, x, tol_c = self.model, self.grid, self.t, self.x, self.tol_c
        solves, self._pending_solves = self._pending_solves, 0
        if abs(self.phi0_end - y) < tol_c:
            zero = ControlH.zeros(self.lat)
            g0 = gradient_phi(model, grid, zero, t, x)     # solves Phi^0 again
            return RateResult(y, 0.0, zero, abs(self.phi0_end - y), 0, True,
                              g0.norm_sq, stationarity=0.0,
                              skeleton_solves=solves + 1, adjoint_sweeps=1)
        res = None if warm is None else _auglag_solve(model, grid, y, warm, t, x, tol_c)
        if res is None or not res.converged:
            spent = 0 if res is None else res.evaluations
            h0, start = _feasible_start(model, grid, y, t, x,
                                        alpha=max(0.1, 0.1 * abs(y - self.phi0_end)))
            res = _auglag_solve(model, grid, y, h0, t, x, tol_c)
            res.evaluations += spent
            res.adjoint_sweeps += spent       # one sweep per warm evaluation
            solves += start
        res.skeleton_solves = solves + res.evaluations
        res.validate(tol_c)
        return res


def rate_function(model: ModelSpec, grid: GridSpec, y: float,
                  t: float | None = None, x=None,
                  tol_rel: float = 1e-6) -> RateResult:
    """Minimize ||h||^2 / 2 subject to the skeleton endpoint hitting y.

    One augmented-Lagrangian run from the bisected constructive bracket;
    the run stops once |endpoint - y| falls below tol_rel (0 < tol_rel < inf)
    times the linear endpoint spread.
    """
    if not math.isfinite(y):
        raise ValueError(f"rate target y = {y} is not finite")
    return _RatePoints(model, grid, t, x, tol_rel).solve(y)


def rate_profile(model: ModelSpec, grid: GridSpec, y_grid,
                 t: float | None = None, x=None,
                 tol_rel: float = 1e-6) -> list[RateResult]:
    """Sweep the rate function over a sorted y grid with warm starts.

    Solves outward from the zero-control endpoint, warm-starting each y
    from its neighbor's minimizer, with a cold constructive restart when
    the warm solve fails to converge.
    """
    y_grid = np.asarray(y_grid, dtype=float)
    if y_grid.size == 0:
        raise ValueError("y_grid is empty")
    if not np.all(np.isfinite(y_grid)):
        raise ValueError("y_grid has a non-finite entry")
    if np.any(np.diff(y_grid) <= 0):
        raise ValueError("y_grid must be sorted strictly increasing")
    points = _RatePoints(model, grid, t, x, tol_rel)
    order = np.argsort(np.abs(y_grid - points.phi0_end), kind="stable")
    results: dict[int, RateResult] = {}
    warm: ControlH | None = None
    for idx in order:
        res = points.solve(float(y_grid[idx]), warm)
        results[int(idx)] = res
        if res.converged:
            warm = res.h_star
    return [results[i] for i in range(len(y_grid))]


def support_probe(model: ModelSpec, grid: GridSpec, budget,
                  t: float | None = None, x=None) -> list[tuple[float, float]]:
    """Reachable-endpoint intervals along the constructive ray, one per budget.

    For a budget b the skeleton runs at the two controls of norm sqrt(2b)
    along the kernel direction sigma(Phi^0) Lambda(t-., x-*), so that
    ||h||^2 / 2 = b, and the interval is [min, max] of their endpoints and
    Phi^0's.  It is an inner bound of {Phi^h(t, x) : ||h||^2 / 2 <= b},
    exact for the linear model, whose kernel direction is optimal; widths
    grow with the budget when the drift is bounded.
    """
    budgets = np.atleast_1d(np.asarray(budget, dtype=float))
    if budgets.size == 0:
        raise ValueError("the budget list is empty")
    if not np.all(budgets >= 0.0):
        raise ValueError("a control budget ||h||^2 / 2 must be a number >= 0")
    lat = lattice(model.cov, grid)
    phi0 = solve_phi(model, grid, ControlH.zeros(lat), t)
    direction = bare_kernel_control(model, grid, phi0, t, x)   # guards x
    phi0_end = phi0.endpoint(x)
    unit = (1.0 / max(direction.norm, 1e-300)) * direction

    intervals = []
    for b in budgets:
        lo = hi = phi0_end
        if b > 0.0:
            radius = math.sqrt(2.0 * b)
            for fac in (-1.0, 1.0):
                val = _endpoint(model, grid, (fac * radius) * unit, t, x)
                lo, hi = min(lo, val), max(hi, val)
        intervals.append((lo, hi))
    return intervals
