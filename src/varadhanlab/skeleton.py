"""Deterministic skeleton, its Frechet gradient, and the first-chaos process.

The skeleton is the controlled equation obtained by replacing the noise
with the pairing against a control h,

    Phi_j = w_j + sum_{i<j} K_{j-i} * [ dt sigma(Phi_i) H_i + dt b(Phi_i) ],

where H_i is the spatial field of h's slab i.  Its endpoint gradient is
computed two ways: a reverse (adjoint) sweep of exactly this recursion,
which is the production route, and a forward solve of the linearized
integral equation carrying the full (slab, mode) state, which serves as an
independent small-grid oracle.  The first-chaos draw shares the recursion
with the deterministic stochastic integrand sigma(Phi) dF.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import GridError
from .noise import ControlH, GridSpec, NoisePath, sample_increments, save_control
from .solver import Field, ModelSpec, _prepare, check_wave_domain

__all__ = [
    "SkeletonResult", "solve_phi", "gradient_phi", "forward_xi",
    "chaos_simulate", "expansion_check", "dphi_window_norm", "analyze",
    "bare_kernel_control",
]


def solve_phi(model: ModelSpec, grid: GridSpec, h: ControlH,
              t: float | None = None) -> Field:
    """Forward solve of the controlled deterministic equation (eps plays no role)."""
    eng, w_tab = _prepare(model, grid, t)
    H = eng.lat.synthesize(h.coeffs[: eng.jt])
    dt = grid.dt

    def integrand(j, u):
        return dt * (model.sigma(u) * H[j] + model.b(u))

    _, trail = eng.forward(w_tab, integrand, keep_history=True)
    return Field(np.stack(trail), grid, model.cov)


def _phi_and_engine(model, grid, h, t):
    eng, w_tab = _prepare(model, grid, t)
    H = eng.lat.synthesize(h.coeffs[: eng.jt])
    dt = grid.dt

    def integrand(j, u):
        return dt * (model.sigma(u) * H[j] + model.b(u))

    _, trail = eng.forward(w_tab, integrand, keep_history=True)
    return eng, np.stack(trail), H


def gradient_phi(model: ModelSpec, grid: GridSpec, h: ControlH,
                 t: float | None = None, x=None,
                 phi: Field | None = None) -> ControlH:
    """Discrete adjoint gradient of the endpoint Phi(t, x) with respect to h.

    The returned control G satisfies <G, g>_{H_T} = d/dtau Phi[h + tau g]
    for every grid direction g, exactly for the discrete recursion.
    """
    eng, w_tab = _prepare(model, grid, t)
    lat, jt, dt = eng.lat, eng.jt, grid.dt
    if x is None:
        x = np.zeros(lat.d)
    check_wave_domain(model, grid, x)
    point = lat.point_index(x)
    H = lat.synthesize(h.coeffs[:jt])
    if phi is None:
        def integrand(j, u):
            return dt * (model.sigma(u) * H[j] + model.b(u))
        _, trail = eng.forward(w_tab, integrand, keep_history=True)
        pv = np.stack(trail)
    else:
        pv = phi.values
    factors = [dt * (model.sigma.deriv(pv[i]) * H[i] + model.b.deriv(pv[i]))
               for i in range(jt)]
    mus = eng.adjoint(point, factors)
    coeffs = np.zeros((grid.nt, lat.ncoords))
    for i in range(jt):
        coeffs[i] = lat.extract(model.sigma(pv[i]) * mus[i])
    return ControlH(lat, coeffs)


def bare_kernel_control(model: ModelSpec, grid: GridSpec, phi: Field,
                        t: float | None = None, x=None) -> ControlH:
    """The leading term of the gradient: Lambda(t-., x-*) sigma(Phi) on the h-grid.

    This is the constructive direction used by the reachability shifts and
    the remainder decomposition chi = Xi - Lambda sigma(Phi).
    """
    eng, _ = _prepare(model, grid, t)
    lat, jt = eng.lat, eng.jt
    if x is None:
        x = np.zeros(lat.d)
    check_wave_domain(model, grid, x)
    point = lat.point_index(x)
    onehot = np.zeros(lat.spatial_shape)
    onehot[point] = 1.0 / (grid.dx ** lat.d)
    seed_spec = eng._to_spec(onehot)
    coeffs = np.zeros((grid.nt, lat.ncoords))
    for i in range(jt):
        kernel = eng._to_field(eng.weights[jt - i] * seed_spec)
        coeffs[i] = lat.extract(model.sigma(phi.values[i]) * kernel)
    return ControlH(lat, coeffs)


def forward_xi(model: ModelSpec, grid: GridSpec, h: ControlH,
               t: float | None = None, x=None) -> ControlH:
    """Forward solve of the linearized integral equation (small-grid oracle).

    Carries the full H_T-valued state, one lane per (slab, mode), and
    returns its evaluation at (t, x) as a control; must agree with
    gradient_phi to solver precision.
    """
    eng, pv, H = _phi_and_engine(model, grid, h, t)
    lat, jt, dt = eng.lat, eng.jt, grid.dt
    if x is None:
        x = np.zeros(lat.d)
    check_wave_domain(model, grid, x)
    point = lat.point_index(x)
    lanes = jt * lat.ncoords
    phik = lat.synthesize(np.eye(lat.ncoords))

    hist = np.zeros((jt, lanes, lat.nspec), dtype=np.complex128)
    state = np.zeros((lanes,) + lat.spatial_shape)
    for j in range(jt):
        if j > 0:
            wl = eng.weights[j:0:-1]
            state = eng._to_field(np.einsum("lf,lgf->gf", wl, hist[:j]))
        factor = dt * (model.sigma.deriv(pv[j]) * H[j] + model.b.deriv(pv[j]))
        rho = factor * state
        rho = rho.reshape(jt, lat.ncoords, *lat.spatial_shape)
        rho[j] += model.sigma(pv[j]) * phik
        hist[j] = eng._to_spec(rho.reshape(lanes, *lat.spatial_shape))
    wl = eng.weights[jt:0:-1]
    state = eng._to_field(np.einsum("lf,lgf->gf", wl, hist))
    coeffs = np.zeros((grid.nt, lat.ncoords))
    coeffs[:jt] = state[(..., *point)].reshape(jt, lat.ncoords)
    return ControlH(lat, coeffs)


def chaos_simulate(model: ModelSpec, grid: GridSpec, h: ControlH, path: NoisePath,
                   t: float | None = None, x=None) -> float:
    """One draw of the first-chaos fluctuation around the skeleton at (t, x)."""
    return float(chaos_ensemble(model, grid, h, [path], t=t, x=x)[0])


def chaos_ensemble(model: ModelSpec, grid: GridSpec, h: ControlH, paths,
                   t: float | None = None, x=None) -> np.ndarray:
    """Batched first-chaos draws; paths is a list of NoisePath or stream ids."""
    eng, pv, H = _phi_and_engine(model, grid, h, t)
    lat, jt, dt = eng.lat, eng.jt, grid.dt
    if x is None:
        x = np.zeros(lat.d)
    check_wave_domain(model, grid, x)
    point = lat.point_index(x)
    if all(isinstance(p, NoisePath) for p in paths):
        inc = np.stack([p.increments for p in paths])
    else:
        inc = sample_increments(lat, list(paths))
    dF = np.moveaxis(lat.synthesize(inc[:, :jt]), 1, 0)   # (jt, B, *spatial)

    sig = [model.sigma(pv[j]) for j in range(jt)]
    dsig = [model.sigma.deriv(pv[j]) for j in range(jt)]
    dbv = [model.b.deriv(pv[j]) for j in range(jt)]

    def integrand(j, n):
        return sig[j] * dF[j] + dt * (dsig[j] * H[j] + dbv[j]) * n

    zeros = np.zeros((jt + 1, 1) + lat.spatial_shape)
    n_final, _ = eng.forward(zeros, integrand, batch_shape=(inc.shape[0],))
    return n_final[(slice(None), *point)]


@dataclass
class SkeletonResult:
    """Skeleton solve bundled with its endpoint gradient diagnostics."""

    phi: Field
    endpoint: float
    gradient: ControlH
    gamma_bar: float

    def export(self, scalar_path, gradient_path):
        with open(scalar_path, "w") as fh:
            json.dump({"endpoint": self.endpoint, "gamma_bar": self.gamma_bar}, fh,
                      indent=2, sort_keys=True)
        save_control(self.gradient, gradient_path)


def analyze(model: ModelSpec, grid: GridSpec, h: ControlH,
            t: float | None = None, x=None) -> SkeletonResult:
    phi = solve_phi(model, grid, h, t)
    if x is None:
        x = np.zeros(model.cov.d)
    grad = gradient_phi(model, grid, h, t, x, phi=phi)
    tt = grid.T if t is None else t
    return SkeletonResult(phi, phi.at(tt, x), grad, grad.norm_sq)


def dphi_window_norm(model: ModelSpec, grid: GridSpec, h: ControlH, rho: float,
                     t: float | None = None, x=None,
                     gradient: ControlH | None = None) -> float:
    """Squared gradient norm restricted to the trailing window [t - rho, t]."""
    tt = grid.T if t is None else t
    if not 0.0 < rho <= tt + 1e-12:
        raise GridError("window must satisfy 0 < rho <= t")
    G = gradient if gradient is not None else gradient_phi(model, grid, h, t, x)
    dt = grid.dt
    jt = grid.time_index(tt)
    i0 = max(0, int(math.ceil((tt - rho) / dt - 1e-9)))
    return float(dt * np.sum(G.coeffs[i0:jt] ** 2))


def expansion_check(model: ModelSpec, grid: GridSpec, h: ControlH, streams,
                    eps_list, t: float | None = None, x=None) -> list[dict]:
    """Coupled residuals of the first-order expansion around the skeleton.

    For each eps, simulates the shifted field and the first chaos with the
    same paths and tabulates |eps^-1 (u - Phi) - N| medians over replicas.
    """
    from .solver import endpoint_ensemble

    if any(e2 >= e1 for e1, e2 in zip(eps_list, eps_list[1:])):
        raise ValueError("eps_list must be strictly decreasing")
    tt = grid.T if t is None else t
    if x is None:
        x = np.zeros(model.cov.d)
    phi_end = solve_phi(model, grid, h, t).at(tt, x)
    chaos = chaos_ensemble(model, grid, h, list(streams), t=t, x=x)
    rows = []
    for eps in eps_list:
        shifted = endpoint_ensemble(model.with_eps(eps), grid, list(streams), x,
                                    h=h, t=t)
        resid = np.abs((shifted - phi_end) / eps - chaos)
        rows.append({"eps": float(eps),
                     "median_residual": float(np.median(resid)),
                     "mean_residual": float(np.mean(resid))})
    return rows
