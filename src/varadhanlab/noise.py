"""Discrete cylindrical Wiener process on a periodic space-time grid.

The spatial domain is the torus [-L, L)^d sampled at nx points per axis.
Retained spectral modes (integer frequency vectors m with max|m_i| <= nk)
are paired into cosine/sine coordinates; each coordinate carries one
independent Brownian motion, so a noise path is an (nt x ncoords) array of
N(0, dt) increments (sample_increments makes every draw of a stream;
sample_path is its one-stream case).  sample_increments fills each block
from both ends, the caller from the front and the module's one helper
thread from the back, while the threads running ensemble jobs leave a CPU
free; a stream is one generator's draw into its own row, scaled by
sqrt(dt) on the thread that drew it, so the split changes no bit.  A fill
may start ahead of its join, so the helper draws the next half-block of an
ensemble sweep while the caller sweeps the current one; the ring of
half-blocks spans an ensemble unit, so during a sub-batch's last half the
helper draws the next sub-batch's first.  The same coordinate system hosts
deterministic controls h with the L^2([0,T]; H) norm
||h||^2 = sum_i dt sum_k h(i,k)^2.

Coordinates are ordered by increasing |xi| with lexicographic tie-breaks,
which gives "the first n modes" a concrete, refinement-stable meaning for
the piecewise-constant smoothing v^n and its localization event.

Lattice.to_spec / to_field, real fields (..., *spatial) to flat rfftn
spectra (..., nspec) and back, hold the package's only FFT calls.  They
and synthesize write into an out= array when given one, which is how a
sweep of solver fills its workspace; without one they return new arrays.
Synthesis (coordinates -> field) and extraction (field -> coordinates) are
each one gather through a slot table built once per lattice: viewing the
flat spectrum as interleaved floats, every slot reads one coordinate
times a scale, and every coordinate reads one slot back.  Synthesis is
linear and acts on each leading index alone, so the ensemble step can
synthesize just its own time slab.
"""

from __future__ import annotations

import math
import os
import struct
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .covkernel import CovarianceSpec
from .errors import GridError, ShapeError


@dataclass(frozen=True)
class GridSpec:
    """Periodic space-time discretization of [0,T] x [-L,L)^d."""

    L: float
    nx: int
    nt: int
    T: float
    nk: int
    seed: int = 0

    def __post_init__(self):
        if not (0 < self.L < math.inf and 0 < self.T < math.inf):
            raise GridError("L and T must be positive and finite")
        if self.nx < 4 or self.nx % 2 != 0:
            raise GridError("nx must be an even integer >= 4")
        if not 1 <= self.nk <= self.nx // 2:
            raise GridError("need 1 <= nk <= nx/2 (no aliasing of retained modes)")
        if self.nt < 1:
            raise GridError("nt must be >= 1")
        if self.seed < 0:
            raise GridError("seed must be nonnegative")

    @property
    def dt(self) -> float:
        return self.T / self.nt

    @property
    def dx(self) -> float:
        return 2.0 * self.L / self.nx

    def time_index(self, t: float) -> int:
        """Snap a time in (0, T] to its grid index."""
        if not math.isfinite(t):
            raise GridError(f"time {t} is not finite")
        j = int(round(t / self.dt))
        if not 1 <= j <= self.nt:
            raise GridError(f"time {t} outside (0, {self.T}]")
        return j


class Lattice:
    """Realized spectral lattice for a (CovarianceSpec, GridSpec) pair.

    Holds the retained-mode weights mu(cell), the transform pair and the
    slot table that converts between coordinate arrays (..., ncoords) and
    real fields (..., *spatial).  Float slot 2f / 2f + 1 is the real /
    imaginary part of flat spectrum entry f.  A (cos, sin) pair (a, b) of
    weight w fills its entry with s (a - i b), s = nx^d sqrt(w / 2), and,
    for d >= 2 entries on the last-axis-zero plane, the conjugate mirror
    entry with s (a + i b); the zero mode fills one real part with
    nx^d sqrt(w) c.  synthesize gathers coeffs[..., _synth_col] times
    _synth_scale (unused slots read column 0 with scale 0); extract gathers
    the float view of rfftn at _extract_slot times _extract_scale
    (dx^d sqrt(2 w) for cos, its negative for sin, dx^d sqrt(w) for the
    zero mode).  The tables are built by array operations over all modes
    at once (a mask, a lexsort and fancy indexing, no per-mode loop).
    Immutable after construction; the tables are read-only.
    """

    def __init__(self, cov: CovarianceSpec, grid: GridSpec):
        self.cov = cov
        self.grid = grid
        d = cov.d
        nx, nk, L = grid.nx, grid.nk, grid.L
        self.d = d
        self.spatial_shape = (nx,) * d
        self.spec_shape = (nx,) * (d - 1) + (nx // 2 + 1,)
        self.nspec = int(np.prod(self.spec_shape))
        nxd = float(nx ** d)
        dxd = grid.dx ** d

        axes = [np.fft.fftfreq(nx, d=1.0 / nx).astype(int) for _ in range(d - 1)]
        axes.append(np.arange(nx // 2 + 1))
        mesh = np.meshgrid(*axes, indexing="ij") if d > 1 else [axes[0]]
        m = np.stack([g.reshape(-1) for g in mesh], axis=-1)  # (nspec, d)
        self._m = m
        radius = np.sqrt((m.astype(float) ** 2).sum(axis=-1)) / (2.0 * L)
        self.xi_radius = radius.reshape(self.spec_shape)

        max_abs = np.abs(m).max(axis=-1)
        retained = (max_abs <= min(nk, nx // 2 - 1))
        dens = np.zeros(self.nspec)
        pos = radius > 0
        if cov.kind == "white":
            dens[retained] = 1.0
        else:
            keep = retained & pos  # zero-mode policy: drop the constant mode
            dens[keep] = radius[keep] ** (cov.beta - d)
        cell = (2.0 * L) ** (-d)
        weight = dens * cell                      # mu(cell around xi_m)
        self.mu_weight = weight.reshape(self.spec_shape)

        # multiplicity of each stored rfftn entry in full-lattice sums
        mult = np.ones(self.nspec)
        last = m[:, -1]
        mult[(last > 0) & (last < nx // 2)] = 2.0
        self.mu_mult = mult.reshape(self.spec_shape)

        # enumerate coordinates: one (cos, sin) pair per representative
        # entry with weight > 0, one single coordinate for the zero mode,
        # ordered by (radius, tuple(m)).  On the last-axis-zero plane
        # (d >= 2) an entry whose first nonzero leading component is
        # negative is the conjugate mirror of a representative: the
        # mixed-radix number of the leading components, digits
        # |m_a| < nx/2, has the sign of that component.
        rep = np.flatnonzero(weight > 0)
        lead = m[rep, :-1] @ (nx ** np.arange(d - 2, -1, -1))
        rep = rep[(m[rep, -1] != 0) | (lead >= 0)]
        rep = rep[np.lexsort(tuple(m[rep, a] for a in range(d - 1, -1, -1))
                             + (radius[rep],))]
        width = np.where(np.any(m[rep] != 0, axis=-1), 2, 1)   # the zero mode: 1
        entry = np.repeat(rep, width)             # flat spectrum index per coordinate
        part = np.arange(entry.size) - np.repeat(np.cumsum(width) - width, width)
        zero = np.repeat(width == 1, width)
        sign = 1.0 - 2.0 * part                   # cos and the zero mode +1, sin -1
        w = weight[entry]
        self.ncoords = entry.size

        # the slot table: float slot 2f + part holds each coordinate, and
        # a pair on the plane also fills its conjugate mirror with s (a + i b)
        self._extract_slot = 2 * entry + part
        self._extract_scale = np.where(zero, np.sqrt(w), np.sqrt(2.0 * w)) * dxd * sign
        synth = nxd * np.where(zero, np.sqrt(w), np.sqrt(w / 2.0))
        mirror = np.flatnonzero((m[entry, -1] == 0) & ~zero)
        conj = 2 * np.ravel_multi_index(tuple(-m[entry[mirror]].T % nx),
                                        self.spec_shape) + part[mirror]
        self._synth_col = np.zeros(2 * self.nspec, dtype=np.intp)
        self._synth_scale = np.zeros(2 * self.nspec)
        self._synth_col[self._extract_slot] = np.arange(self.ncoords)
        self._synth_scale[self._extract_slot] = synth * sign
        self._synth_col[conj] = mirror
        self._synth_scale[conj] = synth[mirror]
        for table in (self._synth_col, self._synth_scale,
                      self._extract_slot, self._extract_scale):
            table.setflags(write=False)      # shared by concurrent chunk threads

    # -- transforms ---------------------------------------------------------

    def to_spec(self, fields: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Real fields (..., *spatial) -> flat rfftn spectra (..., nspec).

        With out, a C-contiguous complex (..., nspec) array, the spectra
        are written into it and a view of it is returned; else a new array.
        """
        lead = fields.shape[:-self.d]
        shaped = None if out is None else out.reshape(lead + self.spec_shape, copy=False)
        return np.fft.rfftn(fields, s=self.spatial_shape, axes=tuple(range(-self.d, 0)),
                            out=shaped).reshape(lead + (self.nspec,))

    def to_field(self, spec: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Flat rfftn spectra (..., nspec) -> real fields (..., *spatial).

        With out, a (..., *spatial) float array, the fields are written into
        it and it is returned; else a new array.
        """
        return np.fft.irfftn(spec.reshape(spec.shape[:-1] + self.spec_shape),
                             s=self.spatial_shape, axes=tuple(range(-self.d, 0)), out=out)

    def synthesize(self, coeffs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Coordinate array (..., ncoords) -> real field (..., *spatial).

        The field is written into out as in to_field (None: a new array);
        the gathered spectrum is a new (..., 2 nspec) float array either way.
        """
        spec = np.take(np.asarray(coeffs, dtype=float), self._synth_col, axis=-1)
        spec *= self._synth_scale
        return self.to_field(spec.view(np.complex128), out=out)

    def extract(self, fields: np.ndarray) -> np.ndarray:
        """Real field (..., *spatial) -> H-projection coordinates (..., ncoords)."""
        spec = self.to_spec(np.asarray(fields, dtype=float))
        out = np.take(spec.view(np.float64), self._extract_slot, axis=-1)
        out *= self._extract_scale
        return out

    @property
    def xi(self) -> np.ndarray:
        """Frequency vectors of the flat rfftn spectrum, (nspec, d)."""
        return self._m / (2.0 * self.grid.L)

    def point(self, x=None) -> np.ndarray:
        """The observation point as a d-vector in [-L, L]^d; None is the origin."""
        x = np.zeros(self.d) if x is None else np.atleast_1d(np.asarray(x, dtype=float))
        if x.shape != (self.d,):
            raise GridError(f"point must have {self.d} component(s)")
        if not np.all(np.abs(x) <= self.grid.L):           # NaN fails too
            raise GridError("observation point not finite or outside the torus")
        return x

    def point_index(self, x=None) -> tuple[int, ...]:
        """Snap the observation point (the origin when None) to grid indices."""
        return tuple(int(round(v / self.grid.dx)) % self.grid.nx for v in self.point(x))

    def coords(self) -> np.ndarray:
        """Wrapped spatial coordinates along one axis, in [-L, L)."""
        nx, dx = self.grid.nx, self.grid.dx
        p = np.arange(nx)
        return ((p + nx // 2) % nx - nx // 2) * dx


@lru_cache(maxsize=32)
def lattice(cov: CovarianceSpec, grid: GridSpec) -> Lattice:
    """Cached lattice factory; Lattice construction is deterministic."""
    return Lattice(cov, grid)


# ---------------------------------------------------------------------------
# noise paths

@dataclass(eq=False)
class NoisePath:
    """Per-mode Brownian increments W_k(Delta_i), entry (i, k) ~ N(0, dt)."""

    lattice: Lattice
    increments: np.ndarray

    @property
    def nt(self) -> int:
        return self.increments.shape[0]

    def control(self, eps: float) -> "ControlH":
        """The drive c = (eps / dt) dW as a control: the path drives the field Phi^c."""
        return ControlH(self.lattice, (eps / self.lattice.grid.dt) * self.increments)


def _philox(lat: Lattice, stream: int) -> np.random.Generator:
    """The Philox generator keyed by (grid.seed, stream).

    Each (seed, stream) pair keys an independent counter-based generator,
    so ensembles are reproducible independently of scheduling.
    """
    if stream < 0:
        raise ValueError("stream must be nonnegative")
    return np.random.Generator(np.random.Philox(key=np.array(
        [lat.grid.seed, stream], dtype=np.uint64)))


def sample_path(lat: Lattice, stream: int) -> NoisePath:
    """Draw the counter-based noise path for (grid.seed, stream), all nt rows at once."""
    out = np.empty((1, lat.grid.nt, lat.ncoords))
    return NoisePath(lat, sample_increments(lat, [_philox(lat, stream)], out)[0])


def _drain(take, draw) -> None:
    """Call draw(take()) until take finds its deque empty."""
    while True:
        try:
            row = take()
        except IndexError:
            return
        draw(row)


#: the one helper thread that fills increment blocks from the back
_HELPER = ThreadPoolExecutor(max_workers=1, thread_name_prefix="varadhanlab-fill")
#: the CPUs this process may run on
_CPUS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
         else os.cpu_count() or 1)
#: the threads running an ensemble job (an mc.sample_endpoints unit) now
_BUSY: set[int] = set()


@contextmanager
def _busy():
    """Count the calling thread among the busy ones inside the with-statement."""
    me = threading.get_ident()
    _BUSY.add(me)
    try:
        yield
    finally:
        _BUSY.discard(me)


class _Fill:
    """One increment block's fill (see sample_increments): the block, its
    generators, the rows (streams) no thread has claimed and the helper's
    task.  draw(fill, row) draws one row and scales it by sqrt(dt), on
    whichever thread claimed the row."""

    def __init__(self, generators, out: np.ndarray, draw):
        self.generators, self.out, self.draw = generators, out, draw
        self.rows, self.task = deque(range(len(generators))), None

    def _row(self, row: int) -> None:
        self.draw(self, row)

    def start(self) -> "_Fill":
        """Queue the helper's task, which claims rows from the back."""
        if len(self.rows) > 1 and len(_BUSY) < _CPUS:
            with suppress(RuntimeError):  # no new task once the interpreter shuts down
                self.task = _HELPER.submit(_drain, self.rows.pop, self._row)
        return self

    def join(self) -> None:
        """Claim rows from the front until none is left, then stop."""
        try:
            _drain(self.rows.popleft, self._row)
        finally:
            self.stop()

    def stop(self) -> None:
        """Leave the helper no row: cancel its task if it has not started, else
        wait for its one row in flight."""
        self.rows.clear()
        if self.task is not None and not self.task.cancel():
            self.task.result()
        # a cancelled task stays in the helper's queue until the helper pops it:
        # empty what it reads, so it frees none of the caller's arrays
        self.generators = self.out = None


class _Ring(list):
    """Generators that fill a ring of row blocks (solver._Increments).

    Before each sample_increments call the caller sets next to the
    (ring, array) pair filled after out: this ring and the array it fills
    next, or the ring of the batch that sweeps after this one and that
    batch's first array (None: nothing).  The call joins ahead, the fill
    of out made by the call before it on either ring (if any), and leaves
    the fill of next in its ring's ahead, made but not started; the caller
    starts it once the rows it overwrites are read, and the call on that
    ring and array joins it.
    """

    next = ahead = None


def sample_increments(lat: Lattice, generators, out: np.ndarray) -> np.ndarray:
    """Draw the next rows increments of each generator into out, (n_streams, rows, ncoords).

    The package's one standard_normal call on a noise stream.  Each
    generator goes on from where its last draw stopped, so drawing r1, r2,
    ... rows in consecutive calls gives the same increments, bit for bit,
    as the first r1 + r2 + ... rows of sample_path for that stream.

    A fill (_Fill) starts, then joins.  The start queues a task on the
    module's one helper thread, which claims rows (streams) from the back
    of the block; the join has the caller claim rows from the front until
    none is left, then cancel the helper's task if it has not started,
    else wait only for the helper's one row in flight.  A row is one
    generator's whole draw into its own slice of out, scaled by sqrt(dt)
    on the thread that drew it, so the join makes no pass over the block
    and the split changes no bit.  Called with a list of generators,
    sample_increments starts the fill of out and joins it at once.  Called
    with a _Ring, it joins ring.ahead, the fill of out started ahead (if
    any), so the helper filled out while the caller worked, and leaves the
    fill of ring.next in the ahead of next's ring: the same ring's next
    half-block, or, across a unit's sub-batches, the next sub-batch's
    first one.

    The helper is asked in only while the threads running ensemble jobs
    (_busy) leave a CPU free: with every CPU running a job (the CLI's
    --jobs 2 on two CPUs) it would only compete for the cores and the GIL.
    A one-stream block, or a block drawn after the interpreter began to
    shut down, fills alone too.  Callers share the one helper; a task
    queued behind another caller's is cancelled at the join, so no caller
    waits for another caller's rows.  The helper calls only standard_normal
    and the in-place multiply of its rows by sqrt(dt) (both release the
    GIL), so every traced call stays on the caller's thread.
    Returns out.
    """
    if out.ndim != 3 or out.shape[::2] != (len(generators), lat.ncoords):
        raise ShapeError(f"out has shape {out.shape}, expected "
                         f"({len(generators)}, rows, {lat.ncoords})")
    scale = math.sqrt(lat.grid.dt)
    draw = lambda fill, row: np.multiply(
        fill.generators[row].standard_normal(out=fill.out[row]), scale, out=fill.out[row])
    (getattr(generators, "ahead", None) or _Fill(generators, out, draw).start()).join()
    if isinstance(generators, _Ring):
        generators.ahead = None
        if generators.next is not None:
            ring, then = generators.next
            ring.ahead = _Fill(ring, then, draw)
    return out


# ---------------------------------------------------------------------------
# controls

@dataclass(eq=False)
class ControlH:
    """Discrete element of L^2([0,T]; H): coefficients per (time slab, mode)."""

    lattice: Lattice
    coeffs: np.ndarray
    norm_sq: float = field(init=False)

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        expect = (self.lattice.grid.nt, self.lattice.ncoords)
        if self.coeffs.shape != expect:
            raise ShapeError(f"control coefficients must have shape {expect}, "
                             f"got {self.coeffs.shape}")
        self.norm_sq = float(self.lattice.grid.dt * np.sum(self.coeffs ** 2))

    @property
    def norm(self) -> float:
        return math.sqrt(self.norm_sq)

    @classmethod
    def zeros(cls, lat: Lattice) -> "ControlH":
        return cls(lat, np.zeros((lat.grid.nt, lat.ncoords)))

    def __add__(self, other: "ControlH") -> "ControlH":
        _check_same(self, other)
        return ControlH(self.lattice, self.coeffs + other.coeffs)

    def __mul__(self, c: float) -> "ControlH":
        return ControlH(self.lattice, self.coeffs * float(c))

    __rmul__ = __mul__


def _check_same(a: ControlH, b: ControlH):
    if a.lattice is not b.lattice and (
            a.coeffs.shape != b.coeffs.shape
            or a.lattice.grid.dt != b.lattice.grid.dt):
        raise ShapeError("controls live on incompatible grids")


def ht_inner(a: ControlH, b: ControlH) -> float:
    """Inner product on L^2([0,T]; H): sum_i dt sum_k a(i,k) b(i,k)."""
    _check_same(a, b)
    return float(a.lattice.grid.dt * np.sum(a.coeffs * b.coeffs))


# ---------------------------------------------------------------------------
# smoothing and localization

def dyadic_increments(path: NoisePath, n: int) -> np.ndarray:
    """W_k(Delta_i) on the dyadic partition into 2^n slabs: (2^n, ncoords)."""
    nt = path.nt
    if n < 0 or (1 << n) > nt or nt % (1 << n) != 0:
        raise GridError(f"2^{n} must divide nt = {nt}")
    per = nt // (1 << n)
    return path.increments.reshape(1 << n, per, -1).sum(axis=1)


def smooth_vn(path: NoisePath, n: int) -> ControlH:
    """Piecewise-constant smoothed noise v^n as a control.

    On each dyadic slab Delta_{i+1} (i >= 0) the first n coordinates carry
    the delayed increment 2^n T^{-1} W_k(Delta_i); everything vanishes on
    [0, 2^{-n} T) and for coordinates beyond the first n.
    """
    lat = path.lattice
    if n > lat.ncoords:
        raise GridError(f"smoothing level {n} exceeds available modes {lat.ncoords}")
    blocks = dyadic_increments(path, n)      # (2^n, ncoords)
    nslab = 1 << n
    per = lat.grid.nt // nslab
    coeffs = np.zeros((lat.grid.nt, lat.ncoords))
    scale = nslab / lat.grid.T
    vals = np.zeros_like(blocks)
    vals[1:, :n] = scale * blocks[:-1, :n]
    coeffs[:] = np.repeat(vals, per, axis=0)
    return ControlH(lat, coeffs)


def localization_holds(path: NoisePath, n: int, theta: float, t: float) -> bool:
    """Whether all early dyadic increments of the first n modes stay small.

    True iff sup over modes j <= n and slabs i <= floor(2^n t/T - 1) of
    |W_j(Delta_i)| is at most 2^{n(theta-1)}.
    """
    if not theta > 0.5:                                 # NaN fails too
        raise ValueError("localization requires theta > 1/2")
    i_max = math.floor((1 << n) * t / path.lattice.grid.T - 1.0)
    if i_max < 0:
        return True
    blocks = dyadic_increments(path, n)
    window = np.abs(blocks[: i_max + 1, :n])
    return bool(window.size == 0 or window.max() <= 2.0 ** (n * (theta - 1.0)))


# ---------------------------------------------------------------------------
# serialization: flat binary (header nt, ncoords, dt)

_CONTROL_MAGIC = b"VLCTRL01"


def write_binary(filename, magic: bytes, fmt: str, header: tuple, arr: np.ndarray):
    """Write magic, the struct-packed header and arr as little-endian float64."""
    with open(filename, "wb") as fh:
        fh.write(magic)
        fh.write(struct.pack(fmt, *header))
        fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def save_control(h: ControlH, filename):
    write_binary(filename, _CONTROL_MAGIC, "<QQd", (*h.coeffs.shape, h.lattice.grid.dt),
                 h.coeffs)

