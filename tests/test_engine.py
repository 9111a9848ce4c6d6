"""The blocked history sum of MildEngine against the direct sum it replaced.

direct_forward and direct_adjoint are the reference implementation: every
step contracts the whole pushed history against the reversed weight table,
one lag at a time.  The engine must reproduce them to rounding on grids
whose observation index jt sits below, at and off the block size.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from varadhanlab import presets
from varadhanlab.covkernel import CovarianceSpec
from varadhanlab.errors import BlowUpError
from varadhanlab.noise import GridSpec
from varadhanlab.solver import _BLOCK, BumpInitial, ModelSpec, _prepare

REL = 1e-12


def direct_forward(eng, w_tab, integrand, batch_shape=(), keep_history=False):
    """u_j = w_j + sum_{i<j} K_{j-i} rho_i, summed over all i at every step."""
    jt, lat = eng.jt, eng.lat
    hist = np.zeros((jt,) + batch_shape + (lat.nspec,), dtype=np.complex128)
    u = np.broadcast_to(w_tab[0], batch_shape + lat.spatial_shape).copy()
    trail = [u.copy()] if keep_history else None
    for j in range(jt):
        hist[j] = eng.lat.to_spec(integrand(j, u))
        wl = eng.weights[:, j + 1:0:-1]                   # lags j+1 .. 1
        acc = np.einsum("fl,l...f->...f", wl, hist[: j + 1])
        u = w_tab[j + 1] + eng.lat.to_field(acc)
        if not np.all(np.isfinite(u)):
            raise BlowUpError(f"time stepping blew up at step {j + 1}", step=j + 1)
        if keep_history:
            trail.append(u.copy())
    return u, trail


def direct_adjoint(eng, point, factors):
    """mu_i = sum_{l=1}^{jt-i} K_l lam_{i+l}, summed over all l at every step."""
    jt, lat = eng.jt, eng.lat
    batch_shape = factors[0].shape[:-lat.d] if factors else ()
    lam = np.zeros(batch_shape + lat.spatial_shape)
    lam[(..., *point)] = 1.0 / (eng.grid.dx ** lat.d)
    lam_hist = np.zeros((jt + 1,) + batch_shape + (lat.nspec,), dtype=np.complex128)
    lam_hist[jt] = lat.to_spec(lam)
    mus = [None] * jt
    for i in range(jt - 1, -1, -1):
        wl = eng.weights[:, 1: jt - i + 1]                # lags 1 .. jt - i
        acc = np.einsum("fl,l...f->...f", wl, lam_hist[i + 1: jt + 1])
        mu = lat.to_field(acc)
        mus[i] = mu
        if i > 0:
            lam_hist[i] = lat.to_spec(factors[i] * mu)
    return mus


def _close(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    scale = max(float(np.max(np.abs(want))), 1e-300)
    assert float(np.max(np.abs(got - want))) <= REL * scale


def _setup(operator, d, nt, jt, batch):
    cov = (CovarianceSpec(operator, 1, "white") if d == 1
           else CovarianceSpec(operator, 2, "riesz", 0.5))
    nx, nk = (16, 8) if d == 1 else (8, 4)
    grid = GridSpec(L=1.25, nx=nx, nt=nt, T=1.0, nk=nk, seed=3)
    model = ModelSpec(cov, presets.nonlinear_model().sigma,
                      presets.nonlinear_model().b, BumpInitial(amp0=0.4), 1.0)
    eng, w_tab = _prepare(model, grid, jt * grid.dt)
    assert eng.jt == jt
    batch_shape = () if batch == 0 else (batch,)
    return eng, w_tab, batch_shape


CASES = dict(
    operator=st.sampled_from(["wave", "heat"]),
    d=st.sampled_from([1, 2]),
    nt=st.sampled_from([5, _BLOCK, 45, 70]),
    jt_frac=st.floats(0.0, 1.0),
    batch=st.sampled_from([0, 1, 3]),
    seed=st.integers(0, 2 ** 16),
)


def _jt(nt, jt_frac):
    return max(1, round(jt_frac * nt))


@settings(max_examples=40, deadline=None)
@given(**CASES)
@example(operator="wave", d=1, nt=70, jt_frac=1.0, batch=3, seed=0)
@example(operator="heat", d=2, nt=70, jt_frac=0.5, batch=0, seed=1)
@example(operator="wave", d=2, nt=_BLOCK, jt_frac=1.0, batch=2, seed=2)
@example(operator="heat", d=1, nt=45, jt_frac=0.5, batch=0, seed=3)
@example(operator="wave", d=1, nt=70, jt_frac=0.0, batch=1, seed=4)
# jt one below, at and one above the block size
@example(operator="wave", d=1, nt=70, jt_frac=31 / 70, batch=2, seed=5)
@example(operator="heat", d=1, nt=70, jt_frac=32 / 70, batch=2, seed=6)
@example(operator="wave", d=2, nt=70, jt_frac=33 / 70, batch=2, seed=7)
def test_forward_matches_direct_sum(operator, d, nt, jt_frac, batch, seed):
    eng, w_tab, batch_shape = _setup(operator, d, nt, _jt(nt, jt_frac), batch)
    if batch_shape:
        w_tab = w_tab[:, None]
    rng = np.random.default_rng(seed)
    drive = rng.standard_normal((eng.jt,) + batch_shape + eng.lat.spatial_shape)

    def integrand(j, u):
        return np.cos(u) * drive[j] + 0.3 * np.tanh(u)

    u, trail = eng.forward(w_tab, integrand, batch_shape, keep_history=True)
    u_ref, trail_ref = direct_forward(eng, w_tab, integrand, batch_shape,
                                      keep_history=True)
    _close(u, u_ref)
    _close(np.stack(trail), np.stack(trail_ref))


@settings(max_examples=40, deadline=None)
@given(**CASES)
@example(operator="heat", d=1, nt=70, jt_frac=1.0, batch=0, seed=0)
@example(operator="wave", d=2, nt=70, jt_frac=0.6, batch=3, seed=1)
@example(operator="wave", d=1, nt=_BLOCK, jt_frac=1.0, batch=0, seed=2)
@example(operator="heat", d=2, nt=5, jt_frac=1.0, batch=2, seed=3)
def test_adjoint_matches_direct_sum(operator, d, nt, jt_frac, batch, seed):
    eng, _, batch_shape = _setup(operator, d, nt, _jt(nt, jt_frac), batch)
    rng = np.random.default_rng(seed)
    lat = eng.lat
    point = tuple(int(i) for i in rng.integers(0, lat.spatial_shape[0], size=lat.d))
    factors = 0.2 * rng.standard_normal((eng.jt,) + batch_shape + lat.spatial_shape)
    mus = eng.adjoint(point, factors)
    mus_ref = direct_adjoint(eng, point, list(factors))
    _close(mus, np.stack(mus_ref))
