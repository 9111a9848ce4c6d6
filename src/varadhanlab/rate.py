"""Variational rate function I(y) = inf { ||h||^2 / 2 : skeleton endpoint = y }.

Each rate point is one augmented-Lagrangian run: an outer loop of
multiplier updates and penalty growth on stalls around an L-BFGS inner
minimization over the flattened control coefficients, with gradients from
the discrete adjoint of the skeleton recursion.  A cold run starts from the
constructive reachability shift: scaled copies of the kernel direction
Lambda(t-., x-*) sigma(Phi^0) bracket any target when the drift is bounded,
and brentq bisects the bracket to a feasible initializer.  Every skeleton
solve and adjoint sweep at one (t, x) runs in its _Skeleton evaluator,
which solves a control it still remembers no second time.

scipy.optimize is imported on first use, in rate_profile (brentq) and
_auglag_solve (L-BFGS-B), so importing this module does not load it: a
process that only samples (simulate, density, support) saves the resident
memory and import time that covkernel's docstring gives, and varadhan
loads it with the rate point it tilts by.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import covkernel
from .errors import BracketError
from .noise import ControlH, GridSpec, lattice
from .skeleton import bare_kernel_control, gradient_phi, solve_phi
from .solver import ModelSpec, check_wave_domain, g1_grid

# augmented-Lagrangian budgets: outer iterations, L-BFGS iterations per
# outer iteration, initial penalty and its growth factor on a stall
_MAX_OUTER = 14
_MAX_INNER = 400
_PENALTY0 = 10.0
_PENALTY_GROWTH = 10.0
# controls a _Skeleton remembers: Phi^0 and the bracket ends until brentq's
# first calls, its root until the first AL evaluation, and L-BFGS's restart
# point and line-search points 2 and 4 back
_MEMO = 4


@dataclass
class RateResult:
    """Outcome of one rate-function minimization.

    skeleton_solves and adjoint_sweeps count the solve_phi and gradient_phi
    calls of the point, where its _Skeleton runs them: a control it still
    remembers is not solved or swept again.  At the zero-control centre
    (iterations 0) the one sweep is its gradient.  Phi^0's first solve
    counts in the first point of its (t, x), so the counts of a profile sum
    to its calls.
    """

    y: float
    I: float
    h_star: ControlH
    residual: float
    iterations: int
    converged: bool
    gamma_bar_at_hstar: float
    stationarity: float = math.nan
    skeleton_solves: int = 0
    adjoint_sweeps: int = 0

    def validate(self, tol_c: float):
        if self.converged and self.residual >= tol_c:
            raise AssertionError("converged result violates the residual tolerance")
        if self.I < -1e-12:
            raise AssertionError("rate values are nonnegative")
        if self.converged and self.gamma_bar_at_hstar <= 0.0:
            raise AssertionError("gradient norm at the optimum must be positive")


class _Skeleton:
    """The skeleton at one (t, x): its endpoint, gradient and kernel direction.

    The last _MEMO controls are remembered by their coefficient bytes, with
    field, endpoint and, once asked for, gradient; solves and sweeps count
    the solve_phi and gradient_phi calls that run.
    """

    def __init__(self, model, grid, t, x):
        check_wave_domain(model.cov, grid, x)           # before any solve
        self.model, self.grid, self.t, self.x = model, grid, t, x
        self.lat = lattice(model.cov, grid)
        self.solves = self.sweeps = 0
        self._memo = {}         # control bytes -> [field, endpoint, gradient]

    def _entry(self, h: ControlH) -> list:
        key = h.coeffs.tobytes()
        if key not in self._memo:
            self.solves += 1
            phi = solve_phi(self.model, self.grid, h, self.t)
            self._memo[key] = [phi, phi.endpoint(self.x), None]
            if len(self._memo) > _MEMO:
                del self._memo[next(iter(self._memo))]
        return self._memo[key]

    def endpoint(self, h: ControlH) -> float:
        return self._entry(h)[1]

    def gradient(self, h: ControlH) -> ControlH:
        entry = self._entry(h)
        if entry[2] is None:
            self.sweeps += 1
            entry[2] = gradient_phi(self.model, self.grid, h, self.t, self.x,
                                    phi=entry[0])
        return entry[2]

    def direction(self) -> ControlH:
        """The kernel direction Lambda(t-., x-*) sigma(Phi^0)."""
        phi0 = self._entry(ControlH.zeros(self.lat))[0]
        return bare_kernel_control(self.model, self.grid, phi0, self.t, self.x)


def _init_shift(sk: _Skeleton, z: float, alpha: float) -> ControlH:
    """Constructive control +h whose skeleton endpoints at -h and +h bracket z.

    The direction is the kernel field sigma(Phi^0) Lambda(t-., x-*) scaled by
    (|z| + alpha + I2 + |w(t,x)|) / I1 with I1 = inf|sigma|^2 ||Lambda||^2
    (model.sigma0) and I2 = sup|b| int_0^t Lambda(s)(R^d) ds, both exact from
    the coefficient registry.  Requires a finite z, a margin 0 < alpha < inf
    and bounded drift; the bracket is verified by evaluation.
    """
    if not math.isfinite(z):
        raise ValueError(f"bracket target z = {z} is not finite")
    if not 0.0 < alpha < math.inf:                      # NaN fails too
        raise ValueError(f"margin alpha = {alpha} must lie in (0, inf)")
    model, grid, lat = sk.model, sk.grid, sk.lat
    tt = grid.T if sk.t is None else sk.t
    b_sup = model.b.abs_bounds()[1]
    if b_sup == math.inf:
        raise BracketError("construction hypothesis failed: drift is unbounded")
    w_tx = model.w.table(lat, np.array([tt]))[0][lat.point_index(sk.x)]
    i1 = model.sigma0 ** 2 * g1_grid(model.cov, grid, tt)
    i2 = b_sup * covkernel.j2_integral(model.cov, tt)
    scale = (abs(z) + alpha + i2 + abs(float(w_tx))) / i1
    h_plus = scale * sk.direction()
    up, down = sk.endpoint(h_plus), sk.endpoint(-1.0 * h_plus)
    if not down < z < up:
        raise BracketError(
            f"construction hypothesis failed: endpoints [{down:.6g}, {up:.6g}] "
            f"do not bracket {z:.6g}")
    return h_plus


def _auglag_solve(sk: _Skeleton, y, h0: ControlH, tol_c) -> RateResult:
    """One augmented-Lagrangian run from the control h0."""
    from scipy import optimize

    dt, shape = sk.grid.dt, h0.coeffs.shape
    lam, mu = 0.0, _PENALTY0
    v = np.array(h0.coeffs, dtype=float).reshape(-1)
    prev_c = None

    def evaluate(vflat):
        h = ControlH(sk.lat, vflat.reshape(shape))
        return h, sk.endpoint(h) - y, sk.gradient(h)

    def val_grad(vflat):
        h, c, G = evaluate(vflat)
        obj = 0.5 * h.norm_sq + lam * c + 0.5 * mu * c * c
        grad = dt * (h.coeffs + (lam + mu * c) * G.coeffs)
        return obj, grad.reshape(-1)

    for n_outer in range(1, _MAX_OUTER + 1):
        res = optimize.minimize(val_grad, v, jac=True, method="L-BFGS-B",
                                options={"maxiter": _MAX_INNER,
                                         "ftol": 1e-16, "gtol": 1e-12})
        # res.x is the last evaluation, or an earlier iterate after an ABNORMAL stop
        v = res.x
        h, c, G = evaluate(v)
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
                      G.norm_sq, stationarity=float(stat))


def rate_function(model: ModelSpec, grid: GridSpec, y: float,
                  t: float | None = None, x=None,
                  tol_rel: float = 1e-6) -> RateResult:
    """Minimize ||h||^2 / 2 subject to the skeleton endpoint hitting y.

    The one-point rate_profile: one augmented-Lagrangian run from the
    bisected constructive bracket; the run stops once |endpoint - y| falls
    below tol_rel (0 < tol_rel < inf) times the linear endpoint spread.
    """
    if not math.isfinite(y):
        raise ValueError(f"rate target y = {y} is not finite")
    return rate_profile(model, grid, [y], t, x, tol_rel)[0]


def rate_profile(model: ModelSpec, grid: GridSpec, y_grid,
                 t: float | None = None, x=None,
                 tol_rel: float = 1e-6) -> list[RateResult]:
    """Sweep the rate function over a sorted y grid with warm starts.

    Solves outward from the zero-control endpoint, warm-starting each y
    from its neighbor's minimizer, with a cold run from the constructive
    start when there is no warm start or its run does not converge.  The
    points share the skeleton evaluator of their (t, x).
    """
    y_grid = np.asarray(y_grid, dtype=float)
    if y_grid.size == 0:
        raise ValueError("y_grid is empty")
    if not np.all(np.isfinite(y_grid)):
        raise ValueError("y_grid has a non-finite entry")
    if np.any(np.diff(y_grid) <= 0):
        raise ValueError("y_grid must be sorted strictly increasing")
    if not 0.0 < tol_rel < math.inf:                    # NaN fails too
        raise ValueError(f"tol_rel = {tol_rel} must lie in (0, inf)")
    sk = _Skeleton(model, grid, t, x)
    # tolerances scale with the endpoint spread of the linear surrogate
    tt = grid.T if t is None else t
    spread = abs(float(model.sigma(0.0))) * math.sqrt(g1_grid(model.cov, grid, tt))
    tol_c = tol_rel * max(spread, 1e-12)
    phi0_end = sk.endpoint(ControlH.zeros(sk.lat))
    order = np.argsort(np.abs(y_grid - phi0_end), kind="stable")
    results: dict[int, RateResult] = {}
    warm: ControlH | None = None
    for idx in order:
        y = float(y_grid[idx])
        if abs(phi0_end - y) < tol_c:
            zero = ControlH.zeros(sk.lat)
            res = RateResult(y, 0.0, zero, abs(phi0_end - y), 0, True,
                             sk.gradient(zero).norm_sq, stationarity=0.0)
        else:
            res = None if warm is None else _auglag_solve(sk, y, warm, tol_c)
            if res is None or not res.converged:
                from scipy import optimize

                h_plus = _init_shift(sk, y, max(0.1, 0.1 * abs(y - phi0_end)))
                tau = optimize.brentq(lambda tau: sk.endpoint(tau * h_plus) - y,
                                      -1.0, 1.0, xtol=1e-10, maxiter=200)
                res = _auglag_solve(sk, y, tau * h_plus, tol_c)
        # the counters restart with each point, which takes what they hold
        res.skeleton_solves, res.adjoint_sweeps = sk.solves, sk.sweeps
        sk.solves = sk.sweeps = 0
        res.validate(tol_c)
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
    if not np.all((budgets >= 0.0) & (budgets < math.inf)):
        raise ValueError("a control budget ||h||^2 / 2 must be a number >= 0 and finite")
    sk = _Skeleton(model, grid, t, x)
    phi0_end = sk.endpoint(ControlH.zeros(sk.lat))
    direction = sk.direction()
    unit = (1.0 / max(direction.norm, 1e-300)) * direction
    intervals = []
    for b in budgets:
        lo = hi = phi0_end
        if b > 0.0:
            radius = math.sqrt(2.0 * b)
            for fac in (-1.0, 1.0):
                val = sk.endpoint((fac * radius) * unit)
                lo, hi = min(lo, val), max(hi, val)
        intervals.append((lo, hi))
    return intervals
