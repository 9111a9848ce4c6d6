"""Monte Carlo density estimation and the log-density asymptotics experiments.

Ensembles are generated in fixed-size chunks of counter-based streams, so
every number is reproducible bit-exactly regardless of how many workers
process the chunks.  Density estimates use a Gaussian kernel with the
Silverman default bandwidth; standard errors come from 16 batch means, and
log densities are taken after smoothing with delta-method errors.  Tail
estimation reuses a converged rate minimizer as a Girsanov tilt.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import TiltError, GridError
from .noise import ControlH, GridSpec, lattice, sample_increments
from .skeleton import chaos_ensemble, solve_phi
from .solver import ModelSpec, endpoint_ensemble

#: replicas per work unit; fixed so results never depend on the worker count
CHUNK = 512
_N_BATCHES = 16


def _chunks(n: int, start: int = 0):
    lo = 0
    while lo < n:
        hi = min(lo + CHUNK, n)
        yield range(start + lo, start + hi)
        lo = hi


def silverman_bandwidth(samples: np.ndarray) -> float:
    sd = float(np.std(samples))
    q75, q25 = np.percentile(samples, [75, 25])
    a = min(sd, (q75 - q25) / 1.34) if q75 > q25 else sd
    if a == 0.0:
        raise ValueError("degenerate sample: zero spread")
    return 0.9 * a * len(samples) ** (-0.2)


def tail_bandwidth(samples: np.ndarray) -> float:
    """Cube-root bandwidth for point estimates under an importance tilt.

    The tilt centers the sample cloud on the evaluation point, so variance
    is cheap there while the log-density curvature (which drives the
    smoothing bias) is steep; undersmoothing relative to Silverman keeps
    the relative bias at O(n^{-2/3}).
    """
    sd = float(np.std(samples))
    q75, q25 = np.percentile(samples, [75, 25])
    a = min(sd, (q75 - q25) / 1.34) if q75 > q25 else sd
    if a == 0.0:
        raise ValueError("degenerate sample: zero spread")
    return 0.9 * a * len(samples) ** (-1.0 / 3.0)


def gaussian_kde(samples: np.ndarray, y_grid: np.ndarray, bandwidth: float,
                 weights: np.ndarray | None = None) -> np.ndarray:
    """Weighted Gaussian-kernel density estimate at the y_grid points."""
    z = (y_grid[:, None] - samples[None, :]) / bandwidth
    k = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    if weights is None:
        return k.mean(axis=1) / bandwidth
    return (k @ weights) / (len(samples) * bandwidth)


def _batch_se(samples, y_grid, bandwidth, weights=None) -> np.ndarray:
    """Standard errors of the KDE values by contiguous batch means."""
    n = len(samples)
    nb = min(_N_BATCHES, n)
    edges = np.linspace(0, n, nb + 1, dtype=int)
    vals = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        w = None if weights is None else weights[lo:hi]
        vals.append(gaussian_kde(samples[lo:hi], y_grid, bandwidth, w))
    vals = np.stack(vals)
    return vals.std(axis=0, ddof=1) / math.sqrt(nb)


@dataclass
class DensityCurve:
    """Kernel density estimate of the endpoint law on a y grid."""

    eps: float
    y_grid: np.ndarray
    p_hat: np.ndarray
    se: np.ndarray
    bandwidth: float
    n_replicas: int
    log_p: np.ndarray = field(init=False)
    log_se: np.ndarray = field(init=False)

    def __post_init__(self):
        with np.errstate(divide="ignore", invalid="ignore"):
            ok = self.p_hat > 3.0 * self.se
            self.log_p = np.where(ok, np.log(np.where(self.p_hat > 0,
                                                      self.p_hat, 1.0)), np.nan)
            self.log_se = np.where(ok, self.se / np.where(self.p_hat > 0,
                                                          self.p_hat, 1.0), np.nan)

    def validate(self, tol: float = 0.05):
        if np.any(self.p_hat < 0):
            raise AssertionError("densities are nonnegative")
        if len(self.y_grid) > 1:
            trapz = getattr(np, "trapezoid", None) or np.trapz
            mass = float(trapz(self.p_hat, self.y_grid))
            if mass > 1.0 + tol:
                raise AssertionError(f"captured mass {mass:.4f} exceeds 1")

    def to_csv(self, filename):
        with open(filename, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["eps", "y", "p_hat", "se", "log_p", "log_se"])
            for row in zip(self.y_grid, self.p_hat, self.se, self.log_p, self.log_se):
                writer.writerow([format(self.eps, ".17g")]
                                + [format(v, ".17g") for v in row])


def sample_endpoints(model: ModelSpec, grid: GridSpec, n: int, x,
                     t: float | None = None, h: ControlH | None = None,
                     stream0: int = 0, with_girsanov: bool = False,
                     executor=None):
    """Endpoint samples over n replicas, chunked for reproducibility.

    The optional executor maps chunks to workers; outputs are merged in
    chunk order so the result is independent of scheduling.
    """
    jobs = list(_chunks(n, stream0))

    def run(streams):
        return endpoint_ensemble(model, grid, list(streams), x, h=h, t=t,
                                 with_girsanov=with_girsanov)

    results = list(executor.map(run, jobs)) if executor is not None \
        else [run(j) for j in jobs]
    if with_girsanov:
        samples = np.concatenate([r[0] for r in results])
        dots = np.concatenate([r[1] for r in results])
        return samples, dots
    return np.concatenate(results)


def estimate_density(model: ModelSpec, grid: GridSpec, n: int, y_grid,
                     t: float | None = None, x=None, bandwidth: float | None = None,
                     stream0: int = 0, executor=None) -> DensityCurve:
    """Gaussian-kernel estimate of the endpoint density at the y_grid points."""
    if n < 1000:
        raise ValueError("density estimation needs at least 10^3 replicas")
    y_grid = np.atleast_1d(np.asarray(y_grid, dtype=float))
    if x is None:
        x = np.zeros(model.cov.d)
    samples = sample_endpoints(model, grid, n, x, t=t, stream0=stream0,
                               executor=executor)
    bw = bandwidth if bandwidth is not None else silverman_bandwidth(samples)
    curve = DensityCurve(model.eps, y_grid, gaussian_kde(samples, y_grid, bw),
                         _batch_se(samples, y_grid, bw), bw, n)
    curve.validate()
    return curve


def tilted_density(model: ModelSpec, grid: GridSpec, n: int, y: float,
                   h_star: ControlH, eps: float | None = None,
                   t: float | None = None, x=None, stream0: int = 0,
                   bandwidth: float | None = None, executor=None,
                   min_ess: float = 50.0):
    """Importance-sampled density at y using a converged minimizer as tilt.

    Simulates under the shift eps^-1 h* (the shifted mild equation) and
    reweights each draw by the change-of-measure density
    exp(-eps^-1 <h*, dW> - eps^-2 ||h*||^2 / 2).
    Returns (p_hat, se, diagnostics).
    """
    eps = model.eps if eps is None else eps
    if eps <= 0.0:
        raise ValueError("tilted estimation needs eps > 0")
    model = model.with_eps(eps)
    if x is None:
        x = np.zeros(model.cov.d)
    # the shifted equation with pairing control h* realizes the path
    # translation by eps^-1 h*, which is what centers the endpoint law at y
    samples, dots = sample_endpoints(model, grid, n, x, t=t, h=h_star,
                                     stream0=stream0, with_girsanov=True,
                                     executor=executor)
    log_w = -dots / eps - 0.5 * h_star.norm_sq / (eps * eps)
    bw = bandwidth if bandwidth is not None else tail_bandwidth(samples)
    z = (float(y) - samples) / bw
    log_k = -0.5 * z * z
    log_mass = log_w + log_k
    ref = float(np.max(log_mass))
    mass = np.exp(log_mass - ref)
    # effective sample size of the kernel-weighted mass at y: a sharp tilt
    # makes the global weights degenerate on purpose, so the relevant
    # diagnostic is local
    denom = float(np.sum(mass ** 2))
    ess = float(np.sum(mass) ** 2 / denom) if denom > 0 else 0.0
    if ess < min_ess:
        raise TiltError(f"poor tilt: local effective sample size {ess:.1f} "
                        f"< {min_ess} at y = {y}")
    weights = np.exp(log_w)
    yv = np.atleast_1d(float(y))
    p = float(gaussian_kde(samples, yv, bw, weights)[0])
    se = float(_batch_se(samples, yv, bw, weights)[0])
    diag = {"ess": ess, "mean_weight": float(weights.mean()), "bandwidth": bw,
            "n": n}
    return p, se, diag


@dataclass
class SweepRow:
    """One eps of the sweep; tilted rows also keep tilted_density's diagnostics."""

    eps: float
    p_hat: float
    se: float
    log_p: float
    eps2_log_p: float
    eps2_log_se: float
    ok: bool
    note: str = ""
    ess: float = math.nan
    mean_weight: float = math.nan
    bandwidth: float = math.nan


@dataclass
class SweepResult:
    """Log-density asymptotics table with its extrapolated limit."""

    y: float
    minus_I: float
    rows: list[SweepRow]
    limit: float
    limit_se: float
    raw_last: float

    @property
    def gap(self) -> float:
        return self.limit - self.minus_I

    @property
    def rel_gap(self) -> float:
        return abs(self.gap) / max(abs(self.minus_I), 1e-300)

    def to_csv(self, filename):
        with open(filename, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["eps", "y", "p_hat", "se", "log_p", "eps2_log_p",
                             "minus_I", "gap", "ess", "mean_weight", "bandwidth"])
            for r in self.rows:
                gap = r.eps2_log_p - self.minus_I
                writer.writerow([format(v, ".17g") for v in
                                 (r.eps, self.y, r.p_hat, r.se, r.log_p,
                                  r.eps2_log_p, self.minus_I, gap,
                                  r.ess, r.mean_weight, r.bandwidth)])


def _extrapolate(eps, vals, ses):
    """Weighted fit of a + b eps^2 + c eps^2 log eps; returns (a, se_a).

    The eps^2 log eps regressor absorbs the exact Gaussian correction
    -eps^2 log(2 pi eps^2 Var)/2 of the linear case; the kernel-bandwidth
    bias of the density estimate is also O(eps^2), so it lands in b.
    """
    eps = np.asarray(eps, float)
    vals = np.asarray(vals, float)
    ses = np.maximum(np.asarray(ses, float), 1e-12)
    cols = [np.ones_like(eps), eps ** 2, eps ** 2 * np.log(eps)]
    ncol = 3 if len(eps) >= 3 else 2
    X = np.stack(cols[:ncol], axis=1)
    W = 1.0 / ses
    Xw, yw = X * W[:, None], vals * W
    coef, *_ = np.linalg.lstsq(Xw, yw, rcond=None)
    cov = np.linalg.inv(Xw.T @ Xw)
    return float(coef[0]), float(math.sqrt(max(cov[0, 0], 0.0)))


def varadhan_sweep(model: ModelSpec, grid: GridSpec, eps_list, y: float,
                   I_of_y: float, n: int = 10_000, t: float | None = None,
                   x=None, h_star: ControlH | None = None, stream0: int = 0,
                   executor=None) -> SweepResult:
    """Tabulate eps^2 log p_hat(y) along eps_list and extrapolate the limit.

    With a tilt control the density is importance-sampled (needed once y
    sits many standard deviations out); otherwise rows whose estimate falls
    below the Monte Carlo noise floor are flagged and excluded from the
    extrapolation, with importance sampling suggested in the note.
    """
    eps_list = list(eps_list)
    if any(e2 >= e1 for e1, e2 in zip(eps_list, eps_list[1:])):
        raise ValueError("eps_list must be strictly decreasing")
    if x is None:
        x = np.zeros(model.cov.d)
    rows = []
    for k, eps in enumerate(eps_list):
        base = stream0 + k * (n + CHUNK)
        stats = {}
        if h_star is not None:
            try:
                p, se, diag = tilted_density(model, grid, n, y, h_star, eps=eps,
                                             t=t, x=x, stream0=base,
                                             executor=executor)
                stats = {key: diag[key] for key in ("ess", "mean_weight", "bandwidth")}
                ok, note = True, "tilted"
            except TiltError as exc:
                p, se, ok, note = 0.0, 0.0, False, str(exc)
        else:
            curve = estimate_density(model.with_eps(eps), grid, n,
                                     np.array([y]), t=t, x=x, stream0=base,
                                     executor=executor)
            p, se = float(curve.p_hat[0]), float(curve.se[0])
            ok = bool(p > 3.0 * se and p > 0.0)
            note = "" if ok else "below noise floor; importance sampling suggested"
        if ok:
            logp = math.log(p)
            rows.append(SweepRow(eps, p, se, logp, eps * eps * logp,
                                 eps * eps * se / p, True, note, **stats))
        else:
            rows.append(SweepRow(eps, p, se, math.nan, math.nan, math.nan,
                                 False, note, **stats))
    good = [r for r in rows if r.ok]
    if len(good) < 2:
        raise TiltError("too few usable rows for extrapolation")
    limit, limit_se = _extrapolate([r.eps for r in good],
                                   [r.eps2_log_p for r in good],
                                   [max(r.eps2_log_se, 1e-12) for r in good])
    return SweepResult(y, -I_of_y, rows, limit, limit_se, good[-1].eps2_log_p)


def support_convergence(model: ModelSpec, grid: GridSpec, n_list, n_replicas: int,
                        h: ControlH | None = None, theta: float = 0.9,
                        t: float | None = None, x=None, stream0: int = 0) -> list[dict]:
    """Smoothing/localization approximation errors per smoothing level.

    For each level n (with paths coupled across levels): the median over
    localized replicas of |u(t,x) - Phi^{v^n}| and, when a target control h
    is given, of |u(t,x; omega - v^n + h) - Phi^h| realized as a shifted
    simulation with the composite control.
    """
    from .noise import NoisePath, localization_holds, smooth_vn
    from .solver import simulate, simulate_shifted

    n_list = list(n_list)
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError("n_list must be strictly increasing")
    lat = lattice(model.cov, grid)
    if x is None:
        x = np.zeros(lat.d)
    tt = grid.T if t is None else t
    for n in n_list:
        if grid.nt % (1 << n) != 0:
            raise GridError(f"2^{n} must divide nt = {grid.nt}")

    phi_h_end = None
    if h is not None:
        phi_h_end = solve_phi(model, grid, h, t).at(tt, x)

    inc = sample_increments(lat, range(stream0, stream0 + n_replicas))
    u_end = endpoint_ensemble(model, grid, range(stream0, stream0 + n_replicas),
                              x, t=t)

    rows = []
    for n in n_list:
        c1, c2, kept = [], [], 0
        for r in range(n_replicas):
            path = NoisePath(lat, inc[r], stream=stream0 + r)
            if not localization_holds(path, n, theta, tt):
                continue
            kept += 1
            vn = smooth_vn(path, n)
            phi_vn = solve_phi(model, grid, vn, t).at(tt, x)
            c1.append(abs(u_end[r] - phi_vn))
            if h is not None:
                comp = h - vn
                u_shift = simulate_shifted(model, grid, path, comp, t).at(tt, x)
                c2.append(abs(u_shift - phi_h_end))
        if kept == 0:
            raise GridError(f"empty localization set at level {n}: theta too small")
        row = {"n": n, "kept": kept, "c1_median": float(np.median(c1))}
        if h is not None:
            row["c2_median"] = float(np.median(c2))
        rows.append(row)
    return rows
