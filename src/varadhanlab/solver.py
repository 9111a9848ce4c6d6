"""Mild-form time stepping for the noise-driven field and its derived equations.

The discrete map mirrors the mild formulation term by term: the solution at
time t_j is the initial contribution plus kernel convolutions (via FFT
multipliers) of all past slab integrands,

    u_j = w_j + sum_{i<j} K_{j-i} * [ eps sigma(u_i) dF_i
                                      + dt sigma(u_i) H_i + dt b(u_i) ],

with left-point (Ito) evaluation of the coefficients.  The multiplier K_l
is the signed root-mean-square of F Lambda over the lag slab
[(l-1) dt, l dt], which makes the Gaussian stochastic convolution variance
exact in time: with constant sigma the variance of u(t, x) equals
eps^2 * g1 restricted to the retained modes, with no dt error.

MildEngine sums the history convolution in blocks of _BLOCK slabs.  Inside
the open block each step adds its own slabs directly; at each block start
one batched GEMM adds every closed slab's contribution to the whole next
block at once.  This is the same O(nt^2) arithmetic as summing all past
slabs at every step, in another order, but it runs in BLAS instead of a
memory-bound gather over the whole history.  The block size is a constant,
not an option: 16 and 32 time alike at 512 replicas and nt = 256, 64 is
slower, and the result agrees with the direct sum to rounding for any
block size, so no run depends on it.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import covkernel
from .covkernel import CovarianceSpec
from .errors import BlowUpError, GridError, MemoryBudgetError
from .funcs import ScalarFunc, sup_abs
from .noise import ControlH, GridSpec, Lattice, NoisePath, lattice

_SIGMA_SAMPLE_RANGE = 50.0
#: slabs per block of the history sum (see the module docstring)
_BLOCK = 32


# ---------------------------------------------------------------------------
# initial contributions

@dataclass(frozen=True)
class ZeroInitial:
    """Vanishing initial contribution."""

    def table(self, lat: Lattice, times: np.ndarray) -> np.ndarray:
        return np.zeros((len(times),) + lat.spatial_shape)


@dataclass(frozen=True)
class BumpInitial:
    """Gaussian-bump initial data propagated by the free evolution.

    For the wave operator the contribution is the two-term formula
    cos-multiplier on u0 plus F Lambda on u1; for heat it is the Gaussian
    smoothing of u0 (u1 ignored).
    """

    amp0: float = 1.0
    width0: float = 0.25
    amp1: float = 0.0
    width1: float = 0.25
    center: float = 0.0

    def _bump(self, lat: Lattice, amp: float, width: float) -> np.ndarray:
        axes = [lat.coords() - self.center for _ in range(lat.d)]
        mesh = np.meshgrid(*axes, indexing="ij") if lat.d > 1 else [axes[0]]
        r2 = sum(g * g for g in mesh)
        return amp * np.exp(-r2 / (2.0 * width ** 2))

    def table(self, lat: Lattice, times: np.ndarray) -> np.ndarray:
        r = lat.xi_radius
        out = np.empty((len(times),) + lat.spatial_shape)
        axes = tuple(range(-lat.d, 0))
        u0_hat = np.fft.rfftn(self._bump(lat, self.amp0, self.width0), axes=axes)
        u1_hat = np.fft.rfftn(self._bump(lat, self.amp1, self.width1), axes=axes) \
            if self.amp1 else None
        for row, t in enumerate(times):
            if lat.cov.operator == "wave":
                spec = np.cos(2.0 * math.pi * t * r) * u0_hat
                if u1_hat is not None:
                    # F Lambda(t) = sin(2 pi t r) / (2 pi r) = t sinc(2 t r)
                    spec = spec + t * np.sinc(2.0 * t * r) * u1_hat
            else:
                spec = np.exp(-4.0 * math.pi ** 2 * t * r * r) * u0_hat
            out[row] = np.fft.irfftn(spec, s=lat.spatial_shape, axes=axes)
        return out


@dataclass(frozen=True)
class ModelSpec:
    """Coefficients of the small-noise field equation.

    sigma0 declares inf |sigma|; it is validated against a wide sampled
    range at construction.  eps = 0 is allowed for noiseless limit checks.
    """

    cov: CovarianceSpec
    sigma: ScalarFunc
    b: ScalarFunc
    w: object = ZeroInitial()
    eps: float = 1.0
    sigma0: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.eps <= 1.0:
            raise ValueError("eps must lie in [0, 1]")
        if self.sigma0 <= 0.0:
            raise ValueError("sigma0 must be positive")
        u = np.linspace(-_SIGMA_SAMPLE_RANGE, _SIGMA_SAMPLE_RANGE, 2001)
        if float(np.min(np.abs(self.sigma(u)))) < self.sigma0 - 1e-9:
            raise ValueError("sampled |sigma| falls below the declared sigma0")

    def with_eps(self, eps: float) -> "ModelSpec":
        return ModelSpec(self.cov, self.sigma, self.b, self.w, eps, self.sigma0)

    def label(self) -> str:
        return (f"{self.cov.label()} sigma={self.sigma.label()} "
                f"b={self.b.label()} eps={self.eps:g}")


@dataclass(eq=False)
class Field:
    """Space-time field values on the grid: values[j] is u(t_j, .)."""

    values: np.ndarray
    grid: GridSpec
    cov: CovarianceSpec

    def __post_init__(self):
        if not np.all(np.isfinite(self.values)):
            raise BlowUpError("field contains non-finite values")

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.values.shape[0]) * self.grid.dt

    def at(self, t: float, x) -> float:
        lat = lattice(self.cov, self.grid)
        j = 0 if t == 0.0 else self.grid.time_index(t)
        return float(self.values[(j, *lat.point_index(x))])

    def endpoint(self, x) -> float:
        lat = lattice(self.cov, self.grid)
        return float(self.values[(-1, *lat.point_index(x))])

    def save(self, filename):
        g = self.grid
        with open(filename, "wb") as fh:
            fh.write(b"VLFIELD1")
            fh.write(struct.pack("<QQQdd", self.values.shape[0] - 1, g.nx,
                                 self.cov.d, g.T, g.L))
            fh.write(np.ascontiguousarray(self.values, dtype="<f8").tobytes())

    def slice_csv(self, filename, j: int = -1):
        vals = self.values[j].reshape(-1)
        with open(filename, "w", newline="") as fh:
            fh.write("index,value\r\n")
            for i, v in enumerate(vals):
                fh.write(f"{i},{format(v, '.17g')}\r\n")


# ---------------------------------------------------------------------------
# kernel weight tables

@lru_cache(maxsize=32)
def weight_table(cov: CovarianceSpec, grid: GridSpec) -> np.ndarray:
    """Signed slab-RMS Fourier multipliers, shape (nt + 1, nspec).

    Entry [l] acts on integrands one slab of lag l in the past; entry [0]
    is unused.  Sign follows F Lambda at the midpoint lag so the wave
    kernel keeps its propagation phase at resolved frequencies.
    """
    lat = lattice(cov, grid)
    dt = grid.dt
    r = lat.xi_radius.reshape(-1)
    out = np.zeros((grid.nt + 1, lat.nspec))
    for l in range(1, grid.nt + 1):
        a, b = (l - 1) * dt, l * dt
        ms = covkernel.slab_l2_mean(cov, r, a, b)
        sg = covkernel.slab_sign(cov, r, 0.5 * (a + b))
        out[l] = sg * np.sqrt(ms)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=32)
def _block_weights(cov: CovarianceSpec, grid: GridSpec):
    """weight_table frequency-major, zero-padded, plus its Hankel panel view.

    wt[f, l] is the lag-l weight of frequency f, padded with zeros to lag
    nt + _BLOCK so every block's panel stays inside the array.  The panel
    hankel[f, k, r] = wt[f, k + r + 2] weights closed slab s-1-k in step
    s+r of the block that starts at s; it is a strided view, not a copy.
    """
    nspec = lattice(cov, grid).nspec
    wt = np.zeros((nspec, grid.nt + 1 + _BLOCK))
    wt[:, : grid.nt + 1] = weight_table(cov, grid).T
    wt.setflags(write=False)
    return wt, sliding_window_view(wt[:, 2:], _BLOCK, axis=-1)


def j1_grid(cov: CovarianceSpec, grid: GridSpec, l: int) -> float:
    """Slab-averaged truncated-lattice energy kernel at lag slab l."""
    lat = lattice(cov, grid)
    wt = weight_table(cov, grid)
    w = (lat.mu_weight * lat.mu_mult).reshape(-1)
    return float(np.sum(w * wt[l] ** 2))


def g1_grid(cov: CovarianceSpec, grid: GridSpec, t: float) -> float:
    """Discrete g1(t) carried by the scheme: dt * sum_{l<=j} j1_grid(l).

    Equals the continuum g1 restricted to the retained lattice modes; the
    time quadrature is exact because the weights are slab-exact.
    """
    jt = grid.time_index(t)
    return grid.dt * sum(j1_grid(cov, grid, l) for l in range(1, jt + 1))


# ---------------------------------------------------------------------------
# the shared mild-form engine

class MildEngine:
    """Forward/adjoint sweeps of the discrete mild map on one lattice."""

    def __init__(self, cov: CovarianceSpec, grid: GridSpec, jt: int | None = None):
        self.lat = lattice(cov, grid)
        self.grid = grid
        self.jt = grid.nt if jt is None else jt
        if not 1 <= self.jt <= grid.nt:
            raise GridError("observation index outside the grid")
        self.weights = weight_table(cov, grid)
        self._wt, self._hankel = _block_weights(cov, grid)
        self._axes = tuple(range(-self.lat.d, 0))

    def _to_spec(self, fields: np.ndarray) -> np.ndarray:
        lead = fields.shape[:-self.lat.d]
        return np.fft.rfftn(fields, axes=self._axes).reshape(lead + (self.lat.nspec,))

    def _to_field(self, spec_flat: np.ndarray) -> np.ndarray:
        lead = spec_flat.shape[:-1]
        return np.fft.irfftn(spec_flat.reshape(lead + self.lat.spec_shape),
                             s=self.lat.spatial_shape, axes=self._axes)

    def _causal_sum(self, batch_shape: tuple):
        """Return step, with step(x_n) = acc_n = sum_{q<=n} K_{n+1-q} x_q.

        Call step once per n = 0 .. jt-1 with the slab spectrum x_n, shape
        batch_shape + (nspec,) or broadcastable to it, or None for a zero
        slab.  The pushed spectra are kept frequency-major and newest-first,
        so slab q sits in row jt-1-q and every lag window is a contiguous
        slice.  Steps run in blocks of _BLOCK: within the open block acc_n
        sums its own slabs directly (one batched matmul), and at each block
        start one batched GEMM against the Hankel panel adds every closed
        slab's contribution to the block's steps.
        """
        jt, nspec = self.jt, self.lat.nspec
        nb = math.prod(batch_shape)
        hist = np.zeros((nspec, jt, nb), dtype=np.complex128)
        real = hist.view(np.float64)              # real weights act on re and im alike
        far = None
        n = 0

        def step(x):
            nonlocal far, n
            row, start = jt - 1 - n, n - n % _BLOCK
            if x is not None:
                hist[:, row] = np.reshape(x, (-1, nspec)).T
            if n == start and start > 0:
                rows = min(_BLOCK, jt - start)
                panel = self._hankel[:, :start, :rows].transpose(0, 2, 1)
                far = np.matmul(panel, real[:, jt - start:])
            acc = np.matmul(self._wt[:, None, 1: n - start + 2],
                            real[:, row: jt - start])[:, 0]
            if start > 0:
                acc += far[:, n - start]
            n += 1
            return acc.view(np.complex128).T.reshape(batch_shape + (nspec,))

        return step

    def forward(self, w_tab: np.ndarray, integrand, batch_shape=(),
                keep_history: bool = False):
        """Run u_j = w_j + sum_{i<j} K_{j-i} rho_i with rho_i = integrand(i, u_i).

        w_tab has shape (jt + 1, *spatial) and broadcasts over batch axes.
        The history sum is the blocked causal sum of _causal_sum: the same
        terms as the direct sum over all past slabs, added in a different
        order (agreement to rounding is checked against the direct sum in
        the tests).  Returns (final field, history list or None).
        """
        jt, lat = self.jt, self.lat
        step = self._causal_sum(batch_shape)
        u = np.broadcast_to(w_tab[0], batch_shape + lat.spatial_shape).copy()
        trail = [u.copy()] if keep_history else None
        for j in range(jt):
            rho = integrand(j, u)
            acc = step(None if rho is None else self._to_spec(rho))
            u = w_tab[j + 1] + self._to_field(acc)
            if not np.all(np.isfinite(u)):
                raise BlowUpError(f"time stepping blew up at step {j + 1}",
                                  step=j + 1)
            if keep_history:
                trail.append(u.copy())
        return u, trail

    def adjoint(self, point: tuple[int, ...], factors: list[np.ndarray]):
        """Reverse sweep of the linearized map, seeded at one grid point.

        factors[i] multiplies the state sensitivity inside slab i (it is
        dt sigma'(u_i) H_i + eps sigma'(u_i) dF_i + dt b'(u_i), depending on
        the equation).  Returns the fields mu_i = dJ/drho_i for i < jt.
        mu_i sums K_l over the later adjoint sources l slabs ahead, which is
        the forward causal sum in reversed time: step n of _causal_sum
        yields mu_{jt-1-n}.
        """
        jt, lat = self.jt, self.lat
        batch_shape = factors[0].shape[:-lat.d] if factors else ()
        lam = np.zeros(batch_shape + lat.spatial_shape)
        lam[(..., *point)] = 1.0 / (self.grid.dx ** lat.d)
        step = self._causal_sum(batch_shape)
        src = self._to_spec(lam)
        mus = [None] * jt
        for i in range(jt - 1, -1, -1):
            mu = self._to_field(step(src))
            mus[i] = mu
            if i > 0:
                src = self._to_spec(factors[i] * mu)
        return mus


# ---------------------------------------------------------------------------
# public operations

def _prepare(model: ModelSpec, grid: GridSpec, t: float | None):
    jt = grid.nt if t is None else grid.time_index(t)
    eng = MildEngine(model.cov, grid, jt)
    times = np.arange(jt + 1) * grid.dt
    w_tab = model.w.table(eng.lat, times)
    if not np.all(np.isfinite(w_tab)):
        raise ValueError("initial contribution w is not finite on the grid")
    return eng, w_tab


def check_wave_domain(model: ModelSpec, grid: GridSpec, x) -> None:
    """Wave runs need L > |x|_inf + T so periodic wraparound cannot reach x."""
    if model.cov.operator != "wave":
        return
    xmax = float(np.max(np.abs(np.atleast_1d(x))))
    if grid.L <= xmax + grid.T:
        raise GridError("wave grid needs L > |x| + T (finite propagation speed)")


def simulate(model: ModelSpec, grid: GridSpec, path: NoisePath,
             t: float | None = None) -> Field:
    """Sample the mild-form field driven by one noise path."""
    eng, w_tab = _prepare(model, grid, t)
    dF = eng.lat.synthesize(path.increments[: eng.jt])
    dt = grid.dt

    def integrand(j, u):
        return model.eps * model.sigma(u) * dF[j] + dt * model.b(u)

    _, trail = eng.forward(w_tab, integrand, keep_history=True)
    return Field(np.stack(trail), grid, model.cov)


def simulate_shifted(model: ModelSpec, grid: GridSpec, path: NoisePath,
                     h: ControlH, t: float | None = None) -> Field:
    """Field driven by the path plus the deterministic control pairing term."""
    eng, w_tab = _prepare(model, grid, t)
    dF = eng.lat.synthesize(path.increments[: eng.jt])
    H = eng.lat.synthesize(h.coeffs[: eng.jt])
    dt = grid.dt

    def integrand(j, u):
        s = model.sigma(u)
        return model.eps * s * dF[j] + dt * (s * H[j] + model.b(u))

    _, trail = eng.forward(w_tab, integrand, keep_history=True)
    return Field(np.stack(trail), grid, model.cov)


def endpoint_ensemble(model: ModelSpec, grid: GridSpec, streams, x,
                      h: ControlH | None = None, t: float | None = None,
                      with_girsanov: bool = False):
    """Batched endpoint samples u(t, x) for many replica streams.

    With a control h the shifted equation is simulated; with_girsanov also
    returns the discrete stochastic integrals sum_{i,k} h(i,k) dW(i,k)
    needed by the change-of-measure weights.
    """
    from .noise import sample_increments

    check_wave_domain(model, grid, x)
    eng, w_tab = _prepare(model, grid, t)
    point = eng.lat.point_index(x)
    inc = sample_increments(eng.lat, streams)      # (B, nt, ncoords)
    dF = eng.lat.synthesize(inc[:, : eng.jt])      # (B, jt, *spatial)
    dF = np.moveaxis(dF, 1, 0)                     # (jt, B, *spatial)
    dt = grid.dt
    H = eng.lat.synthesize(h.coeffs[: eng.jt]) if h is not None else None

    def integrand(j, u):
        s = model.sigma(u)
        out = model.eps * s * dF[j] + dt * model.b(u)
        if H is not None:
            out = out + dt * s * H[j]
        return out

    u, _ = eng.forward(w_tab[:, None], integrand, batch_shape=(len(streams),))
    samples = u[(slice(None), *point)]
    if not with_girsanov:
        return samples
    if h is None:
        dots = np.zeros(len(streams))
    else:
        dots = np.einsum("bik,ik->b", inc, h.coeffs)
    return samples, dots


def first_variation(model: ModelSpec, grid: GridSpec, path: NoisePath,
                    u: Field, t: float | None = None, x=None,
                    memory_budget: int = 2 << 30) -> np.ndarray:
    """Solve the first-variation (Malliavin derivative) equation forward.

    Returns the derivative of u(t, x) with respect to the noise as an
    (nt, ncoords) array over (time slab, mode); rows at or beyond t are
    zero.  The state is the full H_T-valued field history, so this is for
    small grids; the cost guard raises when the workspace would exceed
    memory_budget bytes.
    """
    eng, _ = _prepare(model, grid, t)
    lat, jt, dt = eng.lat, eng.jt, grid.dt
    if x is None:
        x = np.zeros(lat.d)
    check_wave_domain(model, grid, x)
    point = lat.point_index(x)
    lanes = jt * lat.ncoords
    need = (jt * lanes * lat.nspec * 16) + (lanes * int(np.prod(lat.spatial_shape)) * 8)
    if need > memory_budget:
        raise MemoryBudgetError(f"first-variation workspace needs {need} bytes; "
                                f"grid too large for budget {memory_budget}")

    uvals = u.values
    if uvals.shape[0] < jt + 1:
        raise GridError("field history shorter than the observation time")
    dF = lat.synthesize(path.increments[:jt])
    phik = lat.synthesize(np.eye(lat.ncoords))            # (ncoords, *spatial)

    hist = np.zeros((jt, lanes, lat.nspec), dtype=np.complex128)
    state = np.zeros((lanes,) + lat.spatial_shape)
    for j in range(jt):
        if j > 0:
            wl = eng.weights[j:0:-1]
            state = eng._to_field(np.einsum("lf,lgf->gf", wl, hist[:j]))
        factor = model.eps * model.sigma.deriv(uvals[j]) * dF[j] \
            + dt * model.b.deriv(uvals[j])
        rho = factor * state                                     # (lanes, *spatial)
        src = model.eps * model.sigma(uvals[j]) * phik           # (ncoords, *spatial)
        rho = rho.reshape(jt, lat.ncoords, *lat.spatial_shape)
        rho[j] += src
        hist[j] = eng._to_spec(rho.reshape(lanes, *lat.spatial_shape))
    wl = eng.weights[jt:0:-1]
    state = eng._to_field(np.einsum("lf,lgf->gf", wl, hist))
    out = np.zeros((grid.nt, lat.ncoords))
    out[:jt] = state[(..., *point)].reshape(jt, lat.ncoords)
    return out


def malliavin_adjoint(model: ModelSpec, grid: GridSpec, path: NoisePath,
                      u: Field, t: float | None = None, x=None) -> np.ndarray:
    """Same derivative as first_variation via the reverse sweep (cheap route)."""
    eng, _ = _prepare(model, grid, t)
    lat, jt, dt = eng.lat, eng.jt, grid.dt
    if x is None:
        x = np.zeros(lat.d)
    check_wave_domain(model, grid, x)
    point = lat.point_index(x)
    uvals = u.values
    dF = lat.synthesize(path.increments[:jt])
    factors = [model.eps * model.sigma.deriv(uvals[i]) * dF[i]
               + dt * model.b.deriv(uvals[i]) for i in range(jt)]
    mus = eng.adjoint(point, factors)
    out = np.zeros((grid.nt, lat.ncoords))
    for i in range(jt):
        out[i] = lat.extract(model.eps * model.sigma(uvals[i]) * mus[i])
    return out


def malliavin_normsq(deriv: np.ndarray, grid: GridSpec) -> float:
    """||D u(t,x)||^2 in L^2([0,T]; H) from the (slab, mode) derivative array."""
    return float(grid.dt * np.sum(deriv ** 2))


def picard_verify(model: ModelSpec, grid: GridSpec, path: NoisePath,
                  iters: int, t: float | None = None) -> np.ndarray:
    """Fixed-point iteration of the discrete mild map from u^0 = w.

    Returns the sup-norm residuals between successive iterates.  The map is
    strictly causal, so it reaches the forward solution in at most jt
    sweeps; the final iterate is checked against simulate to 1e-10.
    """
    if iters < 2:
        raise ValueError("picard verification needs iters >= 2")
    eng, w_tab = _prepare(model, grid, t)
    lat, jt, dt = eng.lat, eng.jt, grid.dt
    dF = lat.synthesize(path.increments[:jt])
    wl_all = eng.weights

    current = np.broadcast_to(w_tab, (jt + 1,) + lat.spatial_shape).copy()
    residuals = []
    for _ in range(iters):
        rho = model.eps * model.sigma(current[:jt]) * dF + dt * model.b(current[:jt])
        hist = eng._to_spec(rho)
        new = w_tab.copy()
        for j in range(1, jt + 1):
            acc = np.einsum("lf,lf->f", wl_all[j:0:-1], hist[:j])
            new[j] = w_tab[j] + eng._to_field(acc)
        if not np.all(np.isfinite(new)):
            raise BlowUpError(f"picard iteration diverged at sweep {len(residuals)}",
                              step=len(residuals))
        residuals.append(float(np.max(np.abs(new - current))))
        current = new
    ref = simulate(model, grid, path, t).values
    gap = float(np.max(np.abs(current - ref)))
    if gap > 1e-10:
        raise BlowUpError(f"picard fixed point differs from the forward solve by {gap:.3e}")
    return np.array(residuals)
