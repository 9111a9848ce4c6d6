"""Monte Carlo density estimation and the log-density asymptotics experiments.

Ensembles are generated in fixed-size chunks of counter-based streams, so
every number is reproducible bit-exactly regardless of how many workers
process the chunks.  Density estimates use a Gaussian kernel with the
Silverman default bandwidth; standard errors come from 16 batch means, and
log densities are taken after smoothing with delta-method errors.  Tail
estimation reuses a converged rate minimizer as a Girsanov tilt.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import TiltError, GridError
from .noise import ControlH, GridSpec, _busy, lattice
from .skeleton import solve_phi
from .solver import (ModelSpec, _forward, _Increments, _observation_index, _prepare,
                     _sub_batch, _workspace)

#: replicas per work unit; fixed so results never depend on the worker count
CHUNK = 512
_N_BATCHES = 16
#: tilted_density refuses a tilt whose local effective sample size is smaller
_MIN_ESS = 50.0


def silverman_bandwidth(samples: np.ndarray, power: float = -0.2) -> float:
    """Silverman's rule 0.9 min(sd, IQR / 1.34) n^power.

    The default power -1/5 suits a whole density curve.  Point estimates
    under an importance tilt use -1/3: the tilt centers the sample cloud on
    the evaluation point, so variance is cheap there while the log-density
    curvature (which drives the smoothing bias) is steep; undersmoothing
    keeps the relative bias at O(n^{-2/3}).
    """
    sd = float(np.std(samples))
    q75, q25 = np.percentile(samples, [75, 25])
    a = min(sd, (q75 - q25) / 1.34) if q75 > q25 else sd
    if a == 0.0:
        raise ValueError("degenerate sample: zero spread")
    return 0.9 * a * len(samples) ** power


def gaussian_kde(samples: np.ndarray, y_grid: np.ndarray, bandwidth: float) -> np.ndarray:
    """Gaussian-kernel density estimate at the y_grid points."""
    z = (y_grid[:, None] - samples[None, :]) / bandwidth
    k = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    return k.mean(axis=1) / bandwidth


def _batches(n: int) -> list[slice]:
    """The contiguous batches of n draws whose means give a standard error."""
    edges = np.linspace(0, n, min(_N_BATCHES, n) + 1, dtype=int)
    return [slice(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]


def _batch_se(samples, y_grid, bandwidth) -> np.ndarray:
    """Standard errors of the KDE values by contiguous batch means."""
    batches = _batches(len(samples))
    vals = np.stack([gaussian_kde(samples[b], y_grid, bandwidth) for b in batches])
    return vals.std(axis=0, ddof=1) / math.sqrt(len(batches))


@dataclass
class DensityCurve:
    """Kernel density estimate of the endpoint law on a y grid, checked when built."""

    eps: float
    y_grid: np.ndarray
    p_hat: np.ndarray
    se: np.ndarray
    bandwidth: float
    log_p: np.ndarray = field(init=False)
    log_se: np.ndarray = field(init=False)

    def __post_init__(self):
        if np.any(self.p_hat < 0):
            raise AssertionError("densities are nonnegative")
        # the trapezoid sum bounds the mass only on a grid that resolves the
        # kernel: with steps h <= 2 bw it overshoots by at most
        # 2 sum_m exp(-2 pi^2 m^2 bw^2 / h^2) ~ 1.4% (Poisson summation),
        # within the 5% allowed here
        if len(self.y_grid) > 1 and np.all(np.diff(self.y_grid) <= 2.0 * self.bandwidth):
            trapz = getattr(np, "trapezoid", None) or np.trapz
            mass = float(trapz(self.p_hat, self.y_grid))
            if mass > 1.05:
                raise AssertionError(f"captured mass {mass:.4f} exceeds 1")
        with np.errstate(divide="ignore", invalid="ignore"):
            ok = self.p_hat > 3.0 * self.se
            self.log_p = np.where(ok, np.log(np.where(self.p_hat > 0,
                                                      self.p_hat, 1.0)), np.nan)
            self.log_se = np.where(ok, self.se / np.where(self.p_hat > 0,
                                                          self.p_hat, 1.0), np.nan)


def sample_endpoints(model: ModelSpec, grid: GridSpec, n: int, x,
                     t: float | None = None, h: ControlH | None = None,
                     stream0: int = 0, executor=None):
    """Endpoint samples u(t, x) of the replica streams stream0 .. stream0 + n - 1.

    With a control h the shifted equation is simulated, and the return is
    (samples, dots) with dots the discrete stochastic integrals
    sum_{i,k} h(i,k) dW(i,k) needed by the change-of-measure weights.

    The engine, the initial table and the observation index are built once
    per call.  The streams split into units of CHUNK, the jobs the optional
    executor maps to workers; results merge in stream order, so they do
    not depend on scheduling or on the worker count.  A running job counts
    its thread as busy (noise._busy): noise.sample_increments shares each
    block's draw with its one fill helper thread only while the busy
    threads leave a CPU free (so --jobs 2 on two CPUs fills alone), and
    workers sharing the helper never wait for each other's rows.  A unit
    runs in equal sub-batches (solver._sub_batch), one forward sweep each:
    per replica the engine holds min(_BLOCK, nt) increment rows and, for
    wave, a (jt, nspec) complex history (heat: one (nspec,) accumulator),
    and the sub-batches are the fewest that keep this state near
    _STATE_BUDGET bytes each.  A unit allocates these buffers, and the wave far sums,
    once, for its first and largest sub-batch (solver._workspace), and
    each sub-batch sweeps in their leading contiguous views without
    clearing them: a sweep reads no row it has not written.  Fresh buffers
    per sub-batch let the allocator return their pages in between, to be
    faulted in anew (2.5-2.7 times the minor faults on mc_grid).  A
    sub-batch is one solver._Increments, which the sweep calls as its
    drive: each _BLOCK steps it draws the next _BLOCK slabs of each
    stream's Philox increments (its generators stay live between draws, so
    the increments are those of sample_path, bit for bit, however the
    fill helper splits the block), and each step
    synthesizes only its own slab, so neither the (B, nt, ncoords)
    increments nor a (B, jt, *spatial) field is ever held.
    A unit's memory is thus fixed by the grid, not by its size or by how
    many units run at once; apart from the (jt + 1, *spatial) initial
    table (for BumpInitial, one to_field call over all its times) nothing
    else grows with nt.
    """
    if n < 1:
        raise ValueError("sample_endpoints needs n >= 1 replicas")
    eng, w_tab = _prepare(model, grid, t)
    point = _observation_index(model, grid, eng.lat, x)

    def run(streams: range) -> np.ndarray:
        size = _sub_batch(eng.lat, eng.jt, len(streams))[0]
        views, parts = _workspace(eng.lat, eng.jt, size), []
        with _busy():
            for part in (streams[lo: lo + size] for lo in range(0, len(streams), size)):
                work = views(len(part))
                inc = _Increments(eng, part, h, model.eps, work["block"])
                u = _forward(model, eng, w_tab, inc, work)
                parts.append(np.stack((u[(slice(None), *point)],
                                       inc.dots if h is None else inc.girsanov())))
        return np.concatenate(parts, axis=1)

    jobs = [range(lo, min(lo + CHUNK, stream0 + n))
            for lo in range(stream0, stream0 + n, CHUNK)]
    out = np.concatenate(list((map if executor is None else executor.map)(run, jobs)),
                         axis=1)
    return out[0] if h is None else (out[0], out[1])


def estimate_density(model: ModelSpec, grid: GridSpec, n: int, y_grid,
                     t: float | None = None, x=None, executor=None) -> DensityCurve:
    """Gaussian-kernel estimate of the endpoint density at the y_grid points."""
    if n < 1000:
        raise ValueError("density estimation needs at least 10^3 replicas")
    y_grid = np.atleast_1d(np.asarray(y_grid, dtype=float))
    if y_grid.size == 0:
        raise ValueError("y_grid is empty")
    if not np.all(np.isfinite(y_grid)):
        raise ValueError("y_grid has a non-finite entry")
    samples = sample_endpoints(model, grid, n, x, t=t, executor=executor)
    bw = silverman_bandwidth(samples)
    return DensityCurve(model.eps, y_grid, gaussian_kde(samples, y_grid, bw),
                        _batch_se(samples, y_grid, bw), bw)


def tilted_density(model: ModelSpec, grid: GridSpec, n: int, y: float,
                   h_star: ControlH, eps: float | None = None,
                   t: float | None = None, x=None, stream0: int = 0,
                   executor=None):
    """Importance-sampled density at y using a converged minimizer as tilt.

    Simulates under the shift eps^-1 h* (the shifted mild equation) and
    reweights each draw by the change-of-measure density
    exp(-eps^-1 <h*, dW> - eps^-2 ||h*||^2 / 2).  The estimate is formed
    in log space, from each draw's weighted kernel mass scaled by its
    largest, so a density far below the smallest float stays finite.
    Returns (log p_hat, relative se, diagnostics); the se comes from
    contiguous batch means of the mass.  The diagnostics are the local
    effective sample size ess, log_mean_weight (the log of the sample mean
    of the weights, whose expectation is 1, formed in log space the same
    way), the bandwidth and n.
    """
    eps = model.eps if eps is None else eps
    if eps <= 0.0:
        raise ValueError("tilted estimation needs eps > 0")
    model = model.with_eps(eps)
    # the shifted equation with pairing control h* realizes the path
    # translation by eps^-1 h*, which is what centers the endpoint law at y
    samples, dots = sample_endpoints(model, grid, n, x, t=t, h=h_star,
                                     stream0=stream0, executor=executor)
    log_w = -dots / eps - 0.5 * h_star.norm_sq / (eps * eps)
    bw = silverman_bandwidth(samples, -1.0 / 3.0)
    z = (float(y) - samples) / bw
    log_k = -0.5 * z * z
    log_mass = log_w + log_k
    ref = float(np.max(log_mass))
    mass = np.exp(log_mass - ref)
    # effective sample size of the kernel-weighted mass at y: a sharp tilt
    # makes the global weights degenerate on purpose, so the relevant
    # diagnostic is local
    total, denom = float(np.sum(mass)), float(np.sum(mass ** 2))
    ess = total ** 2 / denom if denom > 0 else 0.0
    if ess < _MIN_ESS:
        raise TiltError(f"poor tilt: local effective sample size {ess:.1f} "
                        f"< {_MIN_ESS} at y = {y}")
    log_p = ref + math.log(total / (n * bw * math.sqrt(2.0 * math.pi)))
    batches = _batches(n)
    means = np.array([mass[b].mean() for b in batches])
    rel_se = float(means.std(ddof=1)) / math.sqrt(len(batches)) / (total / n)
    w_max = float(np.max(log_w))
    log_mean_weight = w_max + math.log(float(np.mean(np.exp(log_w - w_max))))
    diag = {"ess": ess, "log_mean_weight": log_mean_weight, "bandwidth": bw, "n": n}
    return log_p, rel_se, diag


@dataclass
class SweepRow:
    """One eps of the sweep, with tilted_density's diagnostics (NaN when its tilt failed).

    p_hat = exp(log_p) and se = rel_se p_hat are NaN where the exponential
    underflows to 0 (or the tilt failed): never a false 0.
    """

    eps: float
    p_hat: float
    se: float
    log_p: float
    eps2_log_p: float
    eps2_log_se: float
    ok: bool
    note: str = ""
    ess: float = math.nan
    log_mean_weight: float = math.nan
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


def _extrapolate(eps, vals, ses):
    """Weighted fit of a + b eps^2 + c eps^2 log eps; returns (a, se_a).

    The eps^2 log eps regressor absorbs the exact Gaussian correction
    -eps^2 log(2 pi eps^2 Var)/2 of the linear case.  The kernel-bandwidth
    bias does not vanish with eps: with bw proportional to eps n^(-1/3) it
    biases eps^2 log p_hat by O(n^(-2/3)) at every eps, so it lands in a.
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
                   x=None, *, h_star: ControlH, stream0: int = 0,
                   executor=None) -> SweepResult:
    """Tabulate eps^2 log p_hat(y) along eps_list and extrapolate the limit.

    eps_list must hold at least 2 strictly decreasing eps in (0, 1],
    checked before any draw.  Each row is importance-sampled by
    tilted_density with the tilt h_star (y may sit many standard deviations
    out); a row whose tilt fails is flagged with the TiltError in its note
    and left out of the extrapolation.
    """
    eps_list = list(eps_list)
    if len(eps_list) < 2:
        raise ValueError(f"the extrapolation needs at least 2 eps, got {eps_list}")
    if any(e2 >= e1 for e1, e2 in zip(eps_list, eps_list[1:])):
        raise ValueError("eps_list must be strictly decreasing")
    if not all(0.0 < eps <= 1.0 for eps in eps_list):    # NaN fails too
        raise ValueError(f"every eps must lie in (0, 1], got {eps_list}")
    rows = []
    for k, eps in enumerate(eps_list):
        try:
            logp, rel_se, diag = tilted_density(model, grid, n, y, h_star, eps=eps,
                                                t=t, x=x, stream0=stream0 + k * (n + CHUNK),
                                                executor=executor)
        except TiltError as exc:
            rows.append(SweepRow(eps, math.nan, math.nan, math.nan, math.nan, math.nan,
                                 False, str(exc)))
            continue
        p = math.exp(logp) or math.nan             # an underflow is no density of 0
        stats = {key: diag[key] for key in ("ess", "log_mean_weight", "bandwidth")}
        rows.append(SweepRow(eps, p, rel_se * p, logp, eps * eps * logp,
                             eps * eps * rel_se, True, "tilted", **stats))
    good = [r for r in rows if r.ok]
    if len(good) < 2:
        raise TiltError("too few usable rows for extrapolation")
    limit, limit_se = _extrapolate([r.eps for r in good],
                                   [r.eps2_log_p for r in good],
                                   [max(r.eps2_log_se, 1e-12) for r in good])
    return SweepResult(y, -I_of_y, rows, limit, limit_se, good[-1].eps2_log_p)


def _check_support_levels(model: ModelSpec, grid: GridSpec, n_list: list[int],
                          n_replicas: int, theta: float) -> None:
    """support_convergence's input checks: levels nonempty, strictly
    increasing, each n >= 1 with 2^n dividing nt and n <= ncoords; at least
    one replica; theta finite and > 1/2."""
    if n_replicas < 1:
        raise ValueError(f"support needs n >= 1 replicas, got {n_replicas}")
    if not n_list:
        raise ValueError("n_list is empty")
    if any(n < 1 for n in n_list):
        raise ValueError(f"smoothing levels must be >= 1, got {n_list}")
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError("n_list must be strictly increasing")
    if not 0.5 < theta < math.inf:                      # NaN fails too
        raise ValueError(f"theta = {theta} must be finite and > 1/2")
    ncoords = lattice(model.cov, grid).ncoords
    for n in n_list:
        if grid.nt % (1 << n) != 0:
            raise GridError(f"2^{n} must divide nt = {grid.nt}")
        if n > ncoords:
            raise GridError(f"smoothing level {n} exceeds available modes {ncoords}")


def support_convergence(model: ModelSpec, grid: GridSpec, n_list, n_replicas: int,
                        theta: float = 0.9, t: float | None = None, x=None) -> list[dict]:
    """Smoothing approximation errors per smoothing level.

    For each level n (with paths coupled across levels): the number of
    localized replicas and the median over them of |u(t,x) - Phi^{v^n}|,
    the c1 column.  The levels, n_replicas and theta are checked before
    anything is drawn.  The endpoints u(t,x) are drawn in chunks and each
    replica's path is drawn on its own, so no (n_replicas, nt, ncoords)
    array is held.
    """
    from .noise import localization_holds, sample_path, smooth_vn

    n_list = list(n_list)
    _check_support_levels(model, grid, n_list, n_replicas, theta)
    lat = lattice(model.cov, grid)
    tt = grid.T if t is None else t

    u_end = sample_endpoints(model, grid, n_replicas, x, t=t)
    c1 = {n: [] for n in n_list}
    for r in range(n_replicas):
        path = sample_path(lat, r)
        for n in n_list:
            if localization_holds(path, n, theta, tt):
                vn = smooth_vn(path, n)
                c1[n].append(abs(u_end[r] - solve_phi(model, grid, vn, t).endpoint(x)))

    rows = []
    for n in n_list:
        if not c1[n]:
            raise GridError(f"empty localization set at level {n}: theta too small")
        rows.append({"n": n, "kept": len(c1[n]), "c1_median": float(np.median(c1[n]))})
    return rows
