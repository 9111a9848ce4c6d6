"""Mild-form time stepping for the noise-driven field and its derived equations.

Every equation here is one discrete mild map with the drive
D_j = synthesize(c_j), c_j = h_j + (eps / dt) dW_j.  One noise path is one
control c = h + path.control(eps), so every single-path solve runs through
the skeleton routes on c (_drive); every stream batch, first-chaos draws
included, is one _Increments in the one loop of mc.sample_endpoints: it
draws its streams into a _workspace per unit and forms D_j slab by slab.
A sweep allocates no per-step array of its own: its state, drive,
spectra and causal-sum accumulators are views of one _workspace, made
once per ensemble unit or once per batch-1 solve, and every step writes
into them (out=).  Only the integrand's arrays, synthesize's gathered
spectrum and the finiteness mask are new at each step.
The solution at t_j is the initial contribution plus kernel convolutions
(Fourier multipliers on the flat spectra of Lattice.to_spec / to_field,
the one transform pair) of the one slab integrand,

    u_j = w_j + sum_{i<j} K_{j-i} * dt [ sigma(u_i) D_i + b(u_i) ],

with left-point (Ito) evaluation, and every linearisation scales the state
sensitivity in slab i by the one factor dt [ sigma'(u_i) D_i + b'(u_i) ].
The multiplier K_l is the signed root-mean-square of F Lambda over the lag
slab [(l-1) dt, l dt], which makes the Gaussian stochastic convolution
variance exact in time: with constant sigma the variance of u(t, x) equals
eps^2 * g1 restricted to the retained modes, with no dt error.  The
multipliers are one cached table per (cov, grid), weight_table, laid out
as the wave GEMM reads it; MildEngine.weights is that table, and besides
the engine only its small-grid oracle skeleton.forward_xi reads it.

For heat the slab-RMS multipliers are exactly geometric in the lag,
K_{l+1} = q K_l with q = exp(-4 pi^2 |xi|^2 dt) the heat multiplier over one
step, so MildEngine runs the history sum as the recursion
acc_j = q acc_{j-1} + K_1 rho_hat_j: O(1) work per step and no stored
history.  For wave MildEngine sums the history convolution in blocks of
_BLOCK slabs.  Inside the open block each step adds its own slabs
directly; at each block start one batched GEMM adds every closed slab's
contribution to the whole next block at once.  This is the same O(nt^2)
arithmetic as summing all past slabs at every step, in another order, but
it runs in BLAS instead of a memory-bound gather over the whole history.
The block size is a constant, not an option: 16 and 32 time alike at 512
replicas and nt = 256, 64 is slower, and the result agrees with the direct
sum to rounding for any block size, so no run depends on it.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import covkernel
from .covkernel import CovarianceSpec
from .errors import BlowUpError, GridError
from .funcs import ScalarFunc
from .noise import ControlH, GridSpec, Lattice, lattice, sample_increments, write_binary

#: slabs per block of the history sum (see the module docstring)
_BLOCK = 32
#: bytes of engine state one sub-batch of a chunk aims to hold (see _sub_batch)
_STATE_BUDGET = 16 << 20


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
        """The contribution at every time, (len(times), *spatial), one to_field call."""
        r = lat.xi_radius.reshape(-1)
        t = times[:, None]
        u0_hat = lat.to_spec(self._bump(lat, self.amp0, self.width0))
        if lat.cov.operator == "heat":
            return lat.to_field(np.exp(-4.0 * math.pi ** 2 * t * r * r) * u0_hat)
        spec = np.cos(2.0 * math.pi * t * r) * u0_hat
        if self.amp1:
            # F Lambda(t) = sin(2 pi t r) / (2 pi r) = t sinc(2 t r)
            u1_hat = lat.to_spec(self._bump(lat, self.amp1, self.width1))
            spec = spec + t * np.sinc(2.0 * t * r) * u1_hat
        return lat.to_field(spec)


@dataclass(frozen=True)
class ModelSpec:
    """Coefficients of the small-noise field equation.

    Construction checks sigma0 = inf |sigma| > 0 (exact, from the registry);
    the rate bracket scales by I1 = inf|sigma|^2 ||Lambda||^2.  eps = 0 is
    allowed for noiseless limit checks.
    """

    cov: CovarianceSpec
    sigma: ScalarFunc
    b: ScalarFunc
    w: object = ZeroInitial()
    eps: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.eps <= 1.0:
            raise ValueError("eps must lie in [0, 1]")
        if not self.sigma0 > 0.0:
            raise ValueError(f"inf |sigma| = {self.sigma0} must be > 0")

    @property
    def sigma0(self) -> float:
        """inf |sigma| over the real line."""
        return self.sigma.abs_bounds()[0]

    def with_eps(self, eps: float) -> "ModelSpec":
        return ModelSpec(self.cov, self.sigma, self.b, self.w, eps)


@dataclass(eq=False)
class Field:
    """Space-time field values on the grid: values[j] is u(t_j, .)."""

    values: np.ndarray
    grid: GridSpec
    cov: CovarianceSpec

    def __post_init__(self):
        if not np.all(np.isfinite(self.values)):
            raise BlowUpError("field contains non-finite values")

    def endpoint(self, x=None) -> float:
        """u(t, x) at the last time solved to (x = None: the origin), domain-checked."""
        check_wave_domain(self.cov, self.grid, x)
        lat = lattice(self.cov, self.grid)
        return float(self.values[(-1, *lat.point_index(x))])

    def save(self, filename):
        g = self.grid
        write_binary(filename, b"VLFIELD1", "<QQQdd",
                     (self.values.shape[0] - 1, g.nx, self.cov.d, g.T, g.L), self.values)


# ---------------------------------------------------------------------------
# kernel weight tables

@lru_cache(maxsize=32)
def weight_table(cov: CovarianceSpec, grid: GridSpec) -> np.ndarray:
    """Signed slab-RMS Fourier multipliers, frequency-major: (nspec, nt + 1 + _BLOCK).

    Entry [f, l] is the lag-l weight of frequency f: it acts on integrands
    one slab of lag l in the past.  Column 0 and the _BLOCK padding columns
    after lag nt are zero, so every block's Hankel panel of MildEngine is a
    view inside the table.  Sign follows F Lambda at the midpoint lag so the
    wave kernel keeps its propagation phase at resolved frequencies.  The
    lags are built _BLOCK at a time, each block one array evaluation over
    (lags, nspec), with the same arithmetic per entry as one lag alone,
    written transposed, so the transient memory stays O(_BLOCK nspec)
    beside the table.
    """
    lat = lattice(cov, grid)
    dt = grid.dt
    r = lat.xi_radius.reshape(-1)
    out = np.zeros((lat.nspec, grid.nt + 1 + _BLOCK))
    for lo in range(1, grid.nt + 1, _BLOCK):
        l = np.arange(lo, min(lo + _BLOCK, grid.nt + 1))[:, None]
        a, b = (l - 1) * dt, l * dt
        ms = covkernel.slab_l2_mean(cov, r, a, b)
        sg = covkernel.slab_sign(cov, r, 0.5 * (a + b))
        out[:, lo: lo + len(l)] = (sg * np.sqrt(ms)).T
    out.setflags(write=False)
    return out


def j1_grid(cov: CovarianceSpec, grid: GridSpec, l: int) -> float:
    """Slab-averaged truncated-lattice energy kernel at lag slab l."""
    lat = lattice(cov, grid)
    wt = weight_table(cov, grid)
    w = (lat.mu_weight * lat.mu_mult).reshape(-1)
    return float(np.sum(w * wt[:, l] ** 2))


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
        if cov.operator == "heat":
            # K_{l+1} = q K_l: q is the heat multiplier over one step
            self._decay = covkernel.fourier_lambda(cov, grid.dt, self.lat.xi)
        else:
            # hankel[f, k, r] = weights[f, k + r + 2] weights closed slab
            # s-1-k in step s+r of the block that starts at s
            self._hankel = sliding_window_view(self.weights[:, 2:], _BLOCK, axis=-1)

    def _causal_sum(self, batch_shape: tuple, work: dict):
        """Return step, with step(x_n) = acc_n = sum_{q<=n} K_{n+1-q} x_q.

        Call step once per n = 0 .. jt-1 with the slab spectrum x_n, shape
        batch_shape + (nspec,) or broadcastable to it.  work (a _workspace
        view) holds the sum's buffers, and acc_n is a view of its acc: read
        it before the next step overwrites it.  Step n reads no row it has
        not written, and the heat accumulator starts at zero.

        Heat weights are geometric in the lag, K_{l+1} = q K_l, so step runs
        acc_n = q acc_{n-1} + K_1 x_n and keeps no history.  For wave the
        pushed spectra are kept frequency-major and newest-first, so slab q
        sits in row jt-1-q and every lag window is a contiguous slice.
        Steps run in blocks of _BLOCK: within the open block acc_n sums its
        own slabs directly (one batched matmul), and at each block start
        one batched GEMM against the Hankel panel adds every closed slab's
        contribution to the block's steps.
        """
        jt, nspec = self.jt, self.lat.nspec
        if self.lat.cov.operator == "heat":
            q, k1 = self._decay, self.weights[:, 1]
            acc, kx = (work[k].view(np.complex128).reshape(batch_shape + (nspec,))
                       for k in ("acc", "kx"))
            acc.fill(0.0)

            def heat_step(x):
                np.multiply(q, acc, out=acc)
                np.add(acc, np.multiply(k1, x, out=kx), out=acc)
                return acc

            return heat_step
        real, far, within = work["hist"], work["far"], work["acc"]   # real weights act
        hist = real.view(np.complex128)                              # on re and im alike
        n = 0

        def step(x):
            nonlocal n
            row, start = jt - 1 - n, n - n % _BLOCK
            hist[:, row] = np.reshape(x, (-1, nspec)).T
            if n == start and start > 0:
                rows = min(_BLOCK, jt - start)
                panel = self._hankel[:, :start, :rows].transpose(0, 2, 1)
                np.matmul(panel, real[:, jt - start:], out=far[:, :rows])
            acc = np.matmul(self.weights[:, None, 1: n - start + 2],
                            real[:, row: jt - start], out=within)[:, 0]
            if start > 0:
                acc += far[:, n - start]
            n += 1
            return acc.view(np.complex128).T.reshape(batch_shape + (nspec,))

        return step

    def _views(self, batch_shape: tuple, work: dict | None):
        """(work, state field, slab spectrum): work, or when None a workspace
        made for prod(batch_shape) streams, and its field and spec views
        shaped batch_shape + spatial_shape and batch_shape + (nspec,)."""
        nb = math.prod(batch_shape)
        work = _workspace(self.lat, self.jt, nb)(nb) if work is None else work
        return (work, work["field"].reshape(batch_shape + self.lat.spatial_shape),
                work["spec"].view(np.complex128).reshape(batch_shape + (self.lat.nspec,)))

    def forward(self, w_tab: np.ndarray, integrand, batch_shape=(),
                keep_history: bool = False, work: dict | None = None):
        """Run u_j = w_j + sum_{i<j} K_{j-i} rho_i with rho_i = integrand(i, u_i).

        w_tab has shape (jt + 1, *spatial) and broadcasts over batch axes.
        The history sum is the causal sum of _causal_sum: the same terms as
        the direct sum over all past slabs, added in a different order
        (wave) or by the geometric recursion (heat); agreement to rounding is
        checked against the direct sum in the tests.  Each step writes its
        integrand spectrum, its history sum and its state u into work, a
        _workspace view for prod(batch_shape) streams (None: a workspace
        made for this call), so a step allocates only what integrand
        returns and the finiteness mask.  Returns (final field, history
        list or None): the final field is work's field, which the next
        sweep in work overwrites; the history entries are copies.
        """
        jt, lat = self.jt, self.lat
        work, u, spec = self._views(batch_shape, work)
        step = self._causal_sum(batch_shape, work)
        u[...] = w_tab[0]
        trail = [u.copy()] if keep_history else None
        for j in range(jt):
            lat.to_field(step(lat.to_spec(integrand(j, u), out=spec)), out=u)
            np.add(w_tab[j + 1], u, out=u)
            if not np.all(np.isfinite(u)):
                raise BlowUpError(f"time stepping blew up at step {j + 1}",
                                  step=j + 1)
            if keep_history:
                trail.append(u.copy())
        return u, trail

    def adjoint(self, point: tuple[int, ...], factors: np.ndarray) -> np.ndarray:
        """Reverse sweep of the linearized map, seeded at one grid point.

        factors, shape (jt, *batch, *spatial): factors[i] multiplies the
        state sensitivity inside slab i (it is the linearised factor
        dt (sigma'(u_i) D_i + b'(u_i)) of the module docstring).  Returns
        the fields mu_i = dJ/drho_i for i < jt, stacked like factors.
        mu_i sums K_l over the later adjoint sources l slabs ahead, which is
        the forward causal sum in reversed time: step n of _causal_sum
        yields mu_{jt-1-n}.  Each step writes mu_i into the returned stack,
        and the source field factors[i] mu_i, its spectrum and the sum's
        buffers into a _workspace made for the call: the sweep allocates
        these two, and nothing per step.
        """
        jt, lat = self.jt, self.lat
        batch_shape = factors.shape[1:-lat.d]
        work, lam, src = self._views(batch_shape, None)
        lam.fill(0.0)
        lam[(..., *point)] = 1.0 / (self.grid.dx ** lat.d)
        step = self._causal_sum(batch_shape, work)
        lat.to_spec(lam, out=src)
        mus = np.empty_like(factors)
        for i in range(jt - 1, -1, -1):
            lat.to_field(step(src), out=mus[i])
            if i > 0:
                lat.to_spec(np.multiply(factors[i], mus[i], out=lam), out=src)
        return mus


# ---------------------------------------------------------------------------
# the drive, the one integrand and the one linearised factor

def _prepare(model: ModelSpec, grid: GridSpec, t: float | None):
    jt = grid.nt if t is None else grid.time_index(t)
    eng = MildEngine(model.cov, grid, jt)
    times = np.arange(jt + 1) * grid.dt
    w_tab = model.w.table(eng.lat, times)
    if not np.all(np.isfinite(w_tab)):
        raise ValueError("initial contribution w is not finite on the grid")
    return eng, w_tab


def _drive(eng: MildEngine, h: ControlH):
    """Return drive(j) = D_j = synthesize(h_j) for one control h.

    A noise path enters as h = path.control(eps).  The control is
    synthesized once for all slabs, so drive also takes a slice of slabs
    and returns them stacked: slab by slab, a batch-1 solve_phi on mc_grid
    took 6.2-6.7 ms against 4.1-5.3 ms (2 shared vCPUs).
    """
    return eng.lat.synthesize(h.coeffs[: eng.jt]).__getitem__


class _Increments:
    """One batch of Philox streams as the drive of its sweep.

    Calling it with j returns the (B, *spatial) drive of slab j,
    D_j = synthesize(c_j), c_j = h_j + (eps / dt) dW_j (h possibly None),
    so no (B, jt, *spatial) field is held.  work is the sweep's _workspace
    view: c_j is formed in its coef row and D_j in its drive field, both
    overwritten by the next call, so a call allocates only synthesize's
    gathered spectrum.  The sweep asks for j = 0, 1, ... in order and reads
    slab j from row j % _BLOCK of buffer, work's
    (B, min(_BLOCK, nt), ncoords) block.  unit, the noise._Unit of the
    ensemble unit, schedules the fills of the block (see there): each
    _BLOCK block of the first jt rows in a first half of ceil(rows / 2)
    rows and a second of the rest.  With a control h, girsanov() returns
    sum_{i,k} h(i,k) dW(i,k) per stream over all nt rows: one einsum per
    _BLOCK block, taken once the block is joined and before the next fill
    starts, the rows past jt drawn one block per fill.
    """

    def __init__(self, eng: MildEngine, streams, h: ControlH | None, eps: float,
                 work: dict, unit):
        self.lat, self.jt, self.h, self.unit = eng.lat, eng.jt, h, unit
        self.scale = eps / eng.grid.dt
        self.work = work
        self.dots = np.zeros(len(streams))
        self.buffer, self.coef, self.drive = work["block"], work["coef"], work["drive"]
        nt = self.lat.grid.nt
        # the fills in order, as (lo, hi, block start, block end): the halves
        # of the first jt rows, then, with h, the blocks past jt
        fills = []
        for start in range(0, self.jt, _BLOCK):
            end = min(start + _BLOCK, self.jt)
            mid = (start + end + 1) // 2
            fills += [(lo, hi, start, end)
                      for lo, hi in ((start, mid), (mid, end))[: 1 + (mid < end)]]
        if h is not None:
            fills += [(start, min(start + _BLOCK, nt)) * 2 for start in range(self.jt, nt, _BLOCK)]
        self.fills = deque()          # each with its buffer rows
        for lo, hi, start, end in fills:
            rows = self.buffer[:, lo - start: hi - start]
            unit.add(streams, rows)
            self.fills.append((lo, hi, start, end, rows))

    def _draw(self) -> None:
        """Join the next fill, add its block's dots at the block's end, then
        start the fill the unit made ahead."""
        lo, hi, start, end, rows = self.fills.popleft()
        sample_increments(self.lat, self.unit, rows)
        if self.h is not None and hi == end:
            self.dots += np.einsum("bik,ik->b", self.buffer[:, :end - start],
                                   self.h.coeffs[start: end])
        self.unit.start()

    def __call__(self, j: int) -> np.ndarray:
        if self.fills and j == self.fills[0][0]:
            self._draw()
        c = np.multiply(self.scale, self.buffer[:, j % _BLOCK], out=self.coef)
        if self.h is not None:
            np.add(self.h.coeffs[j], c, out=c)
        return self.lat.synthesize(c, out=self.drive)

    def girsanov(self) -> np.ndarray:
        while self.fills:
            self._draw()
        return self.dots


def _sub_batch(lat: Lattice, jt: int, n: int) -> tuple[int, int]:
    """(streams per sub-batch, engine state bytes per stream) for n streams.

    A stream's state is its min(_BLOCK, nt) rows of the increment block
    plus, for wave, its (jt, nspec) complex history (heat: its (nspec,)
    complex accumulator).  The n streams split into
    k = ceil(n * state / _STATE_BUDGET) sub-batches of ceil(n / k) streams
    each, the last one possibly shorter, so this state of one sub-batch is
    at most _STATE_BUDGET plus one stream's.  The rest of a _workspace
    comes on top and is not counted, so the split, and with it the GEMM
    sizes and every last bit, depends on the state alone: the wave far
    sums, nspec min(_BLOCK, jt) 16 bytes a stream, and the step buffers,
    ncoords 8 + 2 nx^d 8 + 2 nspec 16 bytes a stream (heat: one more
    nspec 16 for k1 x_n).
    """
    lags = jt if lat.cov.operator == "wave" else 1
    state = lags * lat.nspec * 16 + min(_BLOCK, lat.grid.nt) * lat.ncoords * 8
    k = -(-n * state // _STATE_BUDGET)
    return -(-n // k), state


def _workspace(lat: Lattice, jt: int, size: int):
    """Buffers for up to size streams; views(b) gives their leading parts for b streams.

    A sweep of b streams writes every array it forms per step into these
    float64 views (complex ones as (re, im) pairs), apart from what the
    integrand and synthesize's gather return and the finiteness mask:
    - block, the (b, min(_BLOCK, nt), ncoords) increment rows of _Increments,
      with coef and drive, its (b, ncoords) row c_j and (b, *spatial) drive D_j;
    - field, the (b, *spatial) state u of MildEngine.forward (adjoint: its
      source field), and spec, the (b, nspec) complex spectrum it transforms;
    - acc, the causal sum: for wave the (nspec, 1, b) complex within-block
      matmul output beside the (nspec, jt, b) history hist and the
      (nspec, min(_BLOCK, jt), b) far sums far; for heat the (b, nspec)
      complex accumulator, with kx its k1 x_n term.
    np.empty touches no page when the workspace is made: the first sweep
    faults its pages in, and later sweeps of at most size streams reuse them.
    """
    rows, spatial, spec = min(_BLOCK, lat.grid.nt), lat.spatial_shape, 2 * lat.nspec

    def shapes(b: int) -> dict[str, tuple[int, ...]]:
        out = {"block": (b, rows, lat.ncoords), "coef": (b, lat.ncoords),
               "drive": (b, *spatial), "field": (b, *spatial), "spec": (b, spec)}
        if lat.cov.operator == "wave":
            out.update(hist=(lat.nspec, jt, 2 * b), far=(lat.nspec, min(_BLOCK, jt), 2 * b),
                       acc=(lat.nspec, 1, 2 * b))
        else:
            out.update(acc=(b, spec), kx=(b, spec))
        return out

    flat = {k: np.empty(math.prod(s)) for k, s in shapes(size).items()}
    return lambda b: {k: flat[k][: math.prod(s)].reshape(s) for k, s in shapes(b).items()}


def _integrand(model: ModelSpec, dt: float, u: np.ndarray, D: np.ndarray):
    """The nonlinear slab integrand dt (sigma(u) D + b(u))."""
    return dt * (model.sigma(u) * D + model.b(u))


def _factor(model: ModelSpec, dt: float, u: np.ndarray, D: np.ndarray):
    """The linearised slab factor dt (sigma'(u) D + b'(u))."""
    return dt * (model.sigma.deriv(u) * D + model.b.deriv(u))


def _forward(model: ModelSpec, eng: MildEngine, w_tab: np.ndarray, drive,
             work: dict | None = None) -> np.ndarray:
    """Forward solve of the mild map driven by drive(j).

    Without work, returns the (jt + 1, *spatial) trajectory of one path,
    swept in a workspace of one made for the call; with work, a _workspace
    view for B streams, only the final (B, *spatial) fields, in work.
    """
    dt = eng.grid.dt

    def integrand(j, u):
        return _integrand(model, dt, u, drive(j))

    if work is None:
        return np.stack(eng.forward(w_tab, integrand, keep_history=True)[1])
    return eng.forward(w_tab[:, None], integrand, batch_shape=(len(work["block"]),),
                       work=work)[0]


def _observation_index(model: ModelSpec, grid: GridSpec, lat: Lattice,
                       x) -> tuple[int, ...]:
    """Grid index of the observation point x (the origin when None), guarded."""
    check_wave_domain(model.cov, grid, x)
    return lat.point_index(x)


# ---------------------------------------------------------------------------
# public operations

def check_wave_domain(cov: CovarianceSpec, grid: GridSpec, x=None) -> None:
    """Wave runs need L > |x|_inf + T so periodic wraparound cannot reach x."""
    if cov.operator != "wave":
        return
    xmax = float(np.max(np.abs(lattice(cov, grid).point(x))))
    if grid.L <= xmax + grid.T:
        raise GridError("wave grid needs L > |x| + T (finite propagation speed)")
