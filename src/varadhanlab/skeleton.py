"""Deterministic skeleton, its Frechet gradient, and the first-chaos process.

The skeleton is the controlled equation obtained by replacing the noise
with the pairing against a control h: the mild map of solver with the
drive D_i = H_i, the spatial field of h's slab i, and no noise term,

    Phi_j = w_j + sum_{i<j} K_{j-i} * dt [ sigma(Phi_i) H_i + b(Phi_i) ].

Its endpoint gradient G = gradient_phi(h) is a reverse (adjoint) sweep of
exactly this recursion, built on the linearised factor
dt [ sigma'(Phi_i) H_i + b'(Phi_i) ]; forward_xi, a forward solve of the
linearized equation carrying the full (slab, mode) state, is its
independent small-grid oracle.

The noise enters the drive as (eps / dt) dW, along the control direction
dW / dt.  So one noise path is the control c = h + path.control(eps): the
field it drives, shifted by h / eps, is Phi^c = solve_phi(c), and its
Malliavin derivative is eps G(c), by either route.  The first chaos N of
u^eps(omega + h / eps) = Phi^h + eps N + o(eps) is, exactly in the
discrete scheme, one dot with G = G(h):

    N(t, x) = <G, dW / dt>_{H_T} = sum_{i,k} G(i,k) dW(i,k),  Var N = ||G||^2 = gamma_bar.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import GridError, MemoryBudgetError
from .noise import ControlH, GridSpec
from .solver import Field, ModelSpec, _drive, _factor, _forward, _observation_index, _prepare

__all__ = [
    "solve_phi", "gradient_phi", "forward_xi", "expansion_check",
    "dphi_window_norm", "bare_kernel_control",
]


def solve_phi(model: ModelSpec, grid: GridSpec, h: ControlH,
              t: float | None = None) -> Field:
    """Forward solve of the controlled deterministic equation (eps plays no role)."""
    eng, w_tab = _prepare(model, grid, t)
    return Field(_forward(model, eng, w_tab, _drive(eng, h)), grid, model.cov)


def gradient_phi(model: ModelSpec, grid: GridSpec, h: ControlH,
                 t: float | None = None, x=None,
                 phi: Field | None = None) -> ControlH:
    """Discrete adjoint gradient of the endpoint Phi(t, x) with respect to h.

    The returned control G satisfies <G, g>_{H_T} = d/dtau Phi[h + tau g]
    for every grid direction g, exactly for the discrete recursion:
    G[i] = extract(sigma(Phi_i) mu_i) for i < jt, with mu the adjoint sweep
    seeded at (t, x), and zero rows after.  phi, when given, is Phi^h.
    """
    eng, w_tab = _prepare(model, grid, t)
    lat, jt = eng.lat, eng.jt
    point = _observation_index(model, grid, lat, x)
    drive = _drive(eng, h)
    pv = (_forward(model, eng, w_tab, drive) if phi is None else phi.values)[:jt]
    mus = eng.adjoint(point, _factor(model, grid.dt, pv, drive(slice(0, jt))))
    coeffs = np.zeros((grid.nt, lat.ncoords))
    coeffs[:jt] = lat.extract(model.sigma(pv) * mus)
    return ControlH(lat, coeffs)


def bare_kernel_control(model: ModelSpec, grid: GridSpec, phi: Field,
                        t: float | None = None, x=None) -> ControlH:
    """The leading term of the gradient: Lambda(t-., x-*) sigma(Phi) on the h-grid.

    This is the constructive direction used by the reachability shifts and
    the remainder decomposition chi = Xi - Lambda sigma(Phi).  It is the
    adjoint sweep of gradient_phi without the linearised factor: the
    sweep's fields are then the kernel fields of the jt slabs, and all of
    them take one extract.
    """
    eng, _ = _prepare(model, grid, t)
    lat, jt = eng.lat, eng.jt
    point = _observation_index(model, grid, lat, x)
    kernels = eng.adjoint(point, np.zeros((jt, *lat.spatial_shape)))
    coeffs = np.zeros((grid.nt, lat.ncoords))
    coeffs[:jt] = lat.extract(model.sigma(phi.values[:jt]) * kernels)
    return ControlH(lat, coeffs)


#: bytes the lane-state workspace of forward_xi may take
_LANE_BUDGET = 2 << 30


def forward_xi(model: ModelSpec, grid: GridSpec, h: ControlH,
               t: float | None = None, x=None) -> ControlH:
    """Forward solve of the linearized integral equation (small-grid oracle).

    Carries the full H_T-valued state, one lane per (slab, mode), sums its
    history directly and returns its evaluation at (t, x) as a control;
    must agree with gradient_phi to solver precision.  The cost guard
    raises, before any solve, when the workspace would exceed _LANE_BUDGET
    bytes.
    """
    eng, w_tab = _prepare(model, grid, t)
    lat, jt, dt = eng.lat, eng.jt, grid.dt
    point = _observation_index(model, grid, lat, x)
    lanes = jt * lat.ncoords
    need = (jt * lanes * lat.nspec * 16) + (lanes * int(np.prod(lat.spatial_shape)) * 8)
    if need > _LANE_BUDGET:
        raise MemoryBudgetError(f"lane-state workspace needs {need} bytes; "
                                f"grid too large for budget {_LANE_BUDGET}")
    drive = _drive(eng, h)
    pv = _forward(model, eng, w_tab, drive)
    phik = lat.synthesize(np.eye(lat.ncoords))                    # (ncoords, *spatial)
    hist = np.zeros((jt, lanes, lat.nspec), dtype=np.complex128)

    def state(j):                           # sum_{i<j} K_{j-i} rho_i, (lanes, *spatial)
        return lat.to_field(np.einsum("fl,lgf->gf", eng.weights[:, j:0:-1], hist[:j]))

    for j in range(jt):
        rho = _factor(model, dt, pv[j], drive(j)) * state(j)
        rho = rho.reshape(jt, lat.ncoords, *lat.spatial_shape)
        rho[j] += model.sigma(pv[j]) * phik
        hist[j] = lat.to_spec(rho.reshape(lanes, *lat.spatial_shape))
    coeffs = np.zeros((grid.nt, lat.ncoords))
    coeffs[:jt] = state(jt)[(..., *point)].reshape(jt, lat.ncoords)
    return ControlH(lat, coeffs)


def dphi_window_norm(model: ModelSpec, grid: GridSpec, h: ControlH, rho: float,
                     x=None, gradient: ControlH | None = None) -> float:
    """Squared gradient norm of the endpoint at T restricted to the window [T - rho, T]."""
    if not 0.0 < rho <= grid.T + 1e-12:
        raise GridError("window must satisfy 0 < rho <= T")
    G = gradient if gradient is not None else gradient_phi(model, grid, h, x=x)
    i0 = max(0, int(math.ceil((grid.T - rho) / grid.dt - 1e-9)))
    return float(grid.dt * np.sum(G.coeffs[i0:] ** 2))


def expansion_check(model: ModelSpec, grid: GridSpec, h: ControlH, n: int,
                    eps_list, x=None) -> list[dict]:
    """Coupled residuals of the first-order expansion around the skeleton at T.

    For each eps, simulates the shifted field and the first chaos with the
    same paths (replica streams 0 .. n - 1) and tabulates
    |eps^-1 (u - Phi) - N| medians over replicas; every eps must lie in
    (0, 1], checked before any draw.  The chaos draws
    N = sum_{i,k} G(i,k) dW(i,k), G = gradient_phi(h), are the dots of an
    eps = 0 sample_endpoints run tilted by G, whose sweeps, the noiseless
    skeleton of G, no draw can blow up.
    """
    from .mc import sample_endpoints

    if any(e2 >= e1 for e1, e2 in zip(eps_list, eps_list[1:])):
        raise ValueError("eps_list must be strictly decreasing")
    if not all(0.0 < eps <= 1.0 for eps in eps_list):    # NaN fails too
        raise ValueError(f"every eps must lie in (0, 1], got {list(eps_list)}")
    phi_end = solve_phi(model, grid, h).endpoint(x)
    chaos = sample_endpoints(model.with_eps(0.0), grid, n, x,
                             h=gradient_phi(model, grid, h, x=x))[1]
    rows = []
    for eps in eps_list:
        shifted = sample_endpoints(model.with_eps(eps), grid, n, x, h=h)[0]
        resid = np.abs((shifted - phi_end) / eps - chaos)
        rows.append({"eps": float(eps),
                     "median_residual": float(np.median(resid)),
                     "mean_residual": float(np.mean(resid))})
    return rows
