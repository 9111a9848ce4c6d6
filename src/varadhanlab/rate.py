"""Variational rate function I(y) = inf { ||h||^2 / 2 : skeleton endpoint = y }.

The constrained problem is solved by an augmented-Lagrangian outer loop
(multiplier updates, penalty growth on stalls) around an L-BFGS inner
minimization over the flattened control coefficients, with gradients from
the discrete adjoint of the skeleton recursion.  Feasible starting points
come from the constructive reachability shift: scaled copies of the
kernel direction Lambda(t-., x-*) sigma(Phi^0) bracket any target when the
drift is bounded, and the bracket is bisected to a feasible initializer.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize

from . import covkernel
from .errors import BracketError
from .funcs import looks_bounded, sup_abs
from .noise import ControlH, GridSpec, lattice, save_control
from .skeleton import bare_kernel_control, gradient_phi, solve_phi
from .solver import ModelSpec, check_wave_domain, g1_grid


@dataclass
class RateResult:
    """Outcome of one rate-function minimization."""

    y: float
    I: float
    h_star: ControlH
    residual: float
    iterations: int
    converged: bool
    gamma_bar_at_hstar: float
    stationarity: float = math.nan
    multistart_spread: float = 0.0

    def validate(self, tol_c: float):
        if self.converged and self.residual >= tol_c:
            raise AssertionError("converged result violates the residual tolerance")
        if self.I < -1e-12:
            raise AssertionError("rate values are nonnegative")
        if self.converged and self.gamma_bar_at_hstar <= 0.0:
            raise AssertionError("gradient norm at the optimum must be positive")


@dataclass
class RateOptions:
    """Tolerances and iteration budgets for the augmented-Lagrangian solve."""

    tol_rel: float = 1e-6
    max_outer: int = 14
    max_inner: int = 400
    penalty0: float = 10.0
    penalty_growth: float = 10.0
    multistart: int = 3
    multistart_scale: float = 0.1
    seed: int = 1234

    def tol_c(self, scale: float) -> float:
        return self.tol_rel * max(scale, 1e-12)


def _endpoint(model, grid, h, t, x):
    return solve_phi(model, grid, h, t).at(grid.T if t is None else t, x)


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
    if x is None:
        x = np.zeros(lat.d)
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
    """Bisect the init_shift segment to a control whose endpoint is near y."""
    h_plus, _ = init_shift(model, grid, y, alpha, t, x)

    def f(tau):
        return _endpoint(model, grid, tau * h_plus, t, x) - y

    tau = optimize.brentq(f, -1.0, 1.0, xtol=1e-10, maxiter=200)
    return tau * h_plus


def _auglag_solve(model, grid, y, v0, t, x, opts, tol_c):
    """One augmented-Lagrangian run from the flat coefficient vector v0.

    Returns (h, constraint, outer_iters, converged, stationarity, gradient).
    """
    lat = lattice(model.cov, grid)
    tt = grid.T if t is None else t
    dt = grid.dt
    shape = (grid.nt, lat.ncoords)
    lam, mu = 0.0, opts.penalty0
    v = np.asarray(v0, dtype=float).copy()
    prev_c = None
    h = c = G = None
    for n_outer in range(1, opts.max_outer + 1):
        cache = {}

        def val_grad(vflat):
            hh = ControlH(lat, vflat.reshape(shape))
            phi = solve_phi(model, grid, hh, t)
            cc = phi.at(tt, x) - y
            GG = gradient_phi(model, grid, hh, t, x, phi=phi)
            obj = 0.5 * hh.norm_sq + lam * cc + 0.5 * mu * cc * cc
            grad = dt * (hh.coeffs + (lam + mu * cc) * GG.coeffs)
            cache["c"], cache["G"], cache["h"] = cc, GG, hh
            return obj, grad.reshape(-1)

        res = optimize.minimize(val_grad, v, jac=True, method="L-BFGS-B",
                                options={"maxiter": opts.max_inner,
                                         "ftol": 1e-16, "gtol": 1e-12})
        v = res.x
        c, G, h = cache["c"], cache["G"], cache["h"]
        lam += mu * c
        stat = np.linalg.norm(h.coeffs + lam * G.coeffs) / \
            max(np.linalg.norm(h.coeffs), 1e-300)
        if abs(c) < tol_c:
            return h, c, n_outer, True, float(stat), G
        if prev_c is not None and abs(c) > 0.25 * prev_c:
            mu *= opts.penalty_growth
        prev_c = abs(c)
    return h, c, opts.max_outer, False, float(stat), G


def rate_function(model: ModelSpec, grid: GridSpec, y: float,
                  t: float | None = None, x=None,
                  options: RateOptions | None = None) -> RateResult:
    """Minimize ||h||^2 / 2 subject to the skeleton endpoint hitting y.

    The start point bisects the constructive bracket; three perturbed
    restarts guard against local minima and their disagreement is reported
    as multistart_spread.
    """
    opts = options or RateOptions()
    lat = lattice(model.cov, grid)
    if x is None:
        x = np.zeros(lat.d)
    check_wave_domain(model, grid, x)
    tt = grid.T if t is None else t
    tol_c = opts.tol_c(_spread_scale(model, grid, tt))

    phi0_end = _endpoint(model, grid, ControlH.zeros(lat), t, x)
    if abs(phi0_end - y) < tol_c:
        g0 = gradient_phi(model, grid, ControlH.zeros(lat), t, x)
        return RateResult(y, 0.0, ControlH.zeros(lat), abs(phi0_end - y), 0, True,
                          g0.norm_sq, stationarity=0.0)

    h0 = _feasible_start(model, grid, y, t, x,
                         alpha=max(0.1, 0.1 * abs(y - phi0_end)))
    rng = np.random.Generator(np.random.Philox(key=np.array(
        [opts.seed, 97], dtype=np.uint64)))
    starts = [h0.coeffs.reshape(-1)]
    for _ in range(max(0, opts.multistart - 1)):
        bump = rng.standard_normal(h0.coeffs.shape)
        bump *= opts.multistart_scale * max(h0.norm, 1e-6) / \
            max(math.sqrt(grid.dt) * np.linalg.norm(bump), 1e-300)
        starts.append((h0.coeffs + bump).reshape(-1))

    best = None
    values = []
    for v0 in starts:
        h, c, iters, ok, stat, G = _auglag_solve(model, grid, y, v0, t, x, opts, tol_c)
        cand = RateResult(y, 0.5 * h.norm_sq, h, abs(c), iters, ok,
                          G.norm_sq, stationarity=stat)
        if ok:
            values.append(cand.I)
        if best is None or (cand.converged and not best.converged) or (
                cand.converged == best.converged and cand.I < best.I):
            best = cand
    if len(values) > 1 and min(values) > 0:
        best.multistart_spread = (max(values) - min(values)) / min(values)
    best.validate(tol_c)
    return best


def rate_profile(model: ModelSpec, grid: GridSpec, y_grid,
                 t: float | None = None, x=None,
                 options: RateOptions | None = None) -> list[RateResult]:
    """Sweep the rate function over a sorted y grid with warm starts.

    Solves outward from the zero-control endpoint, warm-starting each y
    from its neighbor's minimizer, with a cold constructive restart when
    the warm solve fails to converge.
    """
    y_grid = np.asarray(y_grid, dtype=float)
    if np.any(np.diff(y_grid) <= 0):
        raise ValueError("y_grid must be sorted strictly increasing")
    opts = options or RateOptions()
    lat = lattice(model.cov, grid)
    if x is None:
        x = np.zeros(lat.d)
    check_wave_domain(model, grid, x)
    tt = grid.T if t is None else t
    tol_c = opts.tol_c(_spread_scale(model, grid, tt))
    phi0_end = _endpoint(model, grid, ControlH.zeros(lat), t, x)
    order = np.argsort(np.abs(y_grid - phi0_end), kind="stable")

    results: dict[int, RateResult] = {}
    warm: ControlH | None = None
    for idx in order:
        y = float(y_grid[idx])
        res = None
        if warm is not None and abs(y - phi0_end) >= tol_c:
            h, c, iters, ok, stat, G = _auglag_solve(
                model, grid, y, warm.coeffs.reshape(-1), t, x, opts, tol_c)
            if ok:
                res = RateResult(y, 0.5 * h.norm_sq, h, abs(c), iters, True,
                                 G.norm_sq, stationarity=stat)
                res.validate(tol_c)
        if res is None:
            res = rate_function(model, grid, y, t, x, opts)
        results[int(idx)] = res
        if res.converged:
            warm = res.h_star
    return [results[i] for i in range(len(y_grid))]


def support_probe(model: ModelSpec, grid: GridSpec, n_controls: int, budget,
                  t: float | None = None, x=None, seed: int = 5150):
    """Reachable-endpoint interval under a control norm budget.

    Evaluates the skeleton along scaled constructive directions and random
    controls with ||h||^2 / 2 <= budget and returns [min, max]; with a list
    of budgets, one interval per budget (widths grow with the budget when
    the drift is bounded).
    """
    budgets = np.atleast_1d(np.asarray(budget, dtype=float))
    lat = lattice(model.cov, grid)
    if x is None:
        x = np.zeros(lat.d)
    check_wave_domain(model, grid, x)
    phi0_end = _endpoint(model, grid, ControlH.zeros(lat), t, x)
    direction = bare_kernel_control(
        model, grid, solve_phi(model, grid, ControlH.zeros(lat), t), t, x)
    unit = (1.0 / max(direction.norm, 1e-300)) * direction
    rng = np.random.Generator(np.random.Philox(key=np.array(
        [seed, 11], dtype=np.uint64)))
    randoms = []
    for _ in range(n_controls):
        g = ControlH(lat, rng.standard_normal((grid.nt, lat.ncoords)))
        randoms.append((1.0 / max(g.norm, 1e-300)) * g)

    intervals = []
    for b in budgets:
        lo = hi = phi0_end
        if b > 0.0:
            radius = math.sqrt(2.0 * b)
            for base in [unit] + randoms:
                for fac in (-1.0, -0.5, 0.5, 1.0):
                    val = _endpoint(model, grid, (fac * radius) * base, t, x)
                    lo, hi = min(lo, val), max(hi, val)
        intervals.append((lo, hi))
    if np.ndim(budget) == 0:
        return intervals[0]
    return intervals


def profile_to_csv(results: list[RateResult], filename, h_dir=None):
    """Profile export: CSV columns y, I, residual, iterations, gamma_bar."""
    with open(filename, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["y", "I", "residual", "iterations", "gamma_bar",
                         "converged"])
        for r in results:
            writer.writerow([format(r.y, ".17g"), format(r.I, ".17g"),
                             format(r.residual, ".17g"), r.iterations,
                             format(r.gamma_bar_at_hstar, ".17g"),
                             int(r.converged)])
    if h_dir is not None:
        for i, r in enumerate(results):
            save_control(r.h_star, f"{h_dir}/h_star_{i:03d}.bin")
