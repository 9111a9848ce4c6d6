"""The set-up tables against their per-lag, per-mode and per-time loop references.

solver.weight_table, the Lattice slot tables and BumpInitial.table are
built by array operations.  The loops below build the same tables one lag,
one mode or one time at a time; every table must equal its loop bit for bit
(np.array_equal).  weight_table is frequency-major with zero padding, so
its lags 0 .. nt, transposed, are what the lag loop builds.
"""

import math
import tracemalloc

import numpy as np
import pytest

from varadhanlab import covkernel
from varadhanlab.covkernel import CovarianceSpec
from varadhanlab.noise import GridSpec, Lattice, lattice
from varadhanlab.solver import _BLOCK, BumpInitial, MildEngine, weight_table


def weight_table_loop(cov, grid):
    """One slab_l2_mean and one slab_sign call per lag."""
    lat = lattice(cov, grid)
    dt = grid.dt
    r = lat.xi_radius.reshape(-1)
    out = np.zeros((grid.nt + 1, lat.nspec))
    for l in range(1, grid.nt + 1):
        a, b = (l - 1) * dt, l * dt
        ms = covkernel.slab_l2_mean(cov, r, a, b)
        sg = covkernel.slab_sign(cov, r, 0.5 * (a + b))
        out[l] = sg * np.sqrt(ms)
    return out


def assert_weight_table_is_the_lag_loop(cov, grid):
    table = weight_table(cov, grid)
    assert table.shape == (lattice(cov, grid).nspec, grid.nt + 1 + _BLOCK)
    assert np.array_equal(table[:, : grid.nt + 1].T, weight_table_loop(cov, grid))
    assert not np.any(table[:, grid.nt + 1:])                # the padding is zero


def lattice_tables_loop(lat):
    """The coordinate enumeration and slot table, one retained mode at a time.

    Returns (synth_col, synth_scale, extract_slot, extract_scale, the
    radius |xi| of each coordinate's mode, ncoords) from the lattice's
    modes, radii and weights.
    """
    d, nx = lat.d, lat.grid.nx
    nxd, dxd = float(nx ** d), lat.grid.dx ** d
    weight = lat.mu_weight.reshape(-1)
    radius = lat.xi_radius.reshape(-1)

    def flat_index(mm):
        idx = 0
        for a in range(d - 1):
            idx = idx * nx + (int(mm[a]) % nx)
        return idx * (nx // 2 + 1) + int(mm[-1])

    order_keys = []
    for idx in np.nonzero(weight > 0)[0].tolist():
        mm = lat._m[idx]
        mirror = -1
        if mm[-1] == 0:
            lead = mm[:-1]
            if np.all(lead == 0):
                order_keys.append((0.0, tuple(mm), idx, None))
                continue
            nz = lead[lead != 0]
            if nz[0] < 0:
                continue  # conjugate mirror of a representative
            mir = np.zeros(d, dtype=int)
            mir[:-1] = -lead
            mirror = flat_index(mir)
        order_keys.append((radius[idx], tuple(mm), idx, mirror))
    order_keys.sort(key=lambda k: (k[0], k[1]))

    fill, slot, escale, coord_r = [], [], [], []
    for r, mm, idx, mirror in order_keys:
        c, w = len(slot), weight[idx]
        if mirror is None:
            fill.append((2 * idx, c, nxd * math.sqrt(w)))
            slot.append(2 * idx)
            escale.append(math.sqrt(w) * dxd)
            coord_r.append(r)
            continue
        sp = nxd * math.sqrt(w / 2.0)
        fill += [(2 * idx, c, sp), (2 * idx + 1, c + 1, -sp)]
        if mirror >= 0:
            fill += [(2 * mirror, c, sp), (2 * mirror + 1, c + 1, sp)]
        ep = math.sqrt(2.0 * w) * dxd
        slot += [2 * idx, 2 * idx + 1]
        escale += [ep, -ep]
        coord_r += [r, r]
    dst, src, scale = zip(*fill)
    synth_col = np.zeros(2 * lat.nspec, dtype=np.intp)
    synth_col[list(dst)] = src
    synth_scale = np.zeros(2 * lat.nspec)
    synth_scale[list(dst)] = scale
    return (synth_col, synth_scale, np.array(slot, dtype=np.intp), np.array(escale),
            np.array(coord_r), len(slot))


def bump_table_loop(bump, lat, times):
    """One rfftn per bump and one irfftn per time."""
    r = lat.xi_radius
    out = np.empty((len(times),) + lat.spatial_shape)
    axes = tuple(range(-lat.d, 0))
    u0_hat = np.fft.rfftn(bump._bump(lat, bump.amp0, bump.width0), axes=axes)
    u1_hat = np.fft.rfftn(bump._bump(lat, bump.amp1, bump.width1), axes=axes)
    for row, t in enumerate(times):
        if lat.cov.operator == "wave":
            spec = np.cos(2.0 * math.pi * t * r) * u0_hat
            if bump.amp1:
                spec = spec + t * np.sinc(2.0 * t * r) * u1_hat
        else:
            spec = np.exp(-4.0 * math.pi ** 2 * t * r * r) * u0_hat
        out[row] = np.fft.irfftn(spec, s=lat.spatial_shape, axes=axes)
    return out


def _covs():
    """Wave and heat; white noise (d = 1) and Riesz noise for d = 1, 2, 3."""
    out = [CovarianceSpec(op, 1, "white") for op in ("wave", "heat")]
    for d, betas in ((1, (0.5, 0.9)), (2, (0.5, 1.0, 1.5)), (3, (0.9, 1.5))):
        out += [CovarianceSpec(op, d, "riesz", b) for op in ("wave", "heat") for b in betas]
    return out


#: (nx, nk) per dimension: every retained mode, and a truncated band
GRIDS = {1: [(64, 32), (128, 5)], 2: [(16, 8), (32, 5)], 3: [(8, 4), (16, 3)]}
COVS = _covs()


def _ids(cov):
    return cov.label().replace("/", "-")


def _coord_radius(lat):
    """|xi| of each coordinate's mode; _extract_slot // 2 is its flat spectrum entry."""
    return np.linalg.norm(lat._m[lat._extract_slot // 2], axis=-1) / (2.0 * lat.grid.L)


@pytest.mark.parametrize("cov", COVS, ids=_ids)
def test_lattice_tables_equal_the_mode_loop(cov):
    for nx, nk in GRIDS[cov.d]:
        for L in (1.25, 20.0):
            lat = Lattice(cov, GridSpec(L=L, nx=nx, nt=4, T=1.0, nk=nk))
            ref = lattice_tables_loop(lat)
            got = (lat._synth_col, lat._synth_scale, lat._extract_slot,
                   lat._extract_scale, _coord_radius(lat), lat.ncoords)
            for g, r in zip(got[:-1], ref[:-1]):
                assert g.dtype == r.dtype and np.array_equal(g, r)
            assert got[-1] == ref[-1]


@pytest.mark.parametrize("cov", COVS, ids=_ids)
def test_lattice_covers_the_zero_mode_policy_and_mirrors(cov):
    # Riesz drops the constant mode, white noise keeps it as one coordinate;
    # for d >= 2 some pair also fills its conjugate mirror's slots
    nx, nk = GRIDS[cov.d][0]
    lat = Lattice(cov, GridSpec(L=1.25, nx=nx, nt=4, T=1.0, nk=nk))
    assert (_coord_radius(lat)[0] == 0.0) == (cov.kind == "white")
    filled = np.count_nonzero(lat._synth_scale)
    owned = np.count_nonzero(lat._extract_scale)
    assert (filled > owned) == (cov.d >= 2)


@pytest.mark.parametrize("nt", [1, 33, 256])
@pytest.mark.parametrize("cov", COVS, ids=_ids)
def test_weight_table_equals_the_lag_loop(cov, nt):
    # nt = 33 ends in a one-lag block, nt = 256 fills eight whole blocks
    nx, nk = GRIDS[cov.d][0]
    for L in (1.25, 20.0):
        grid = GridSpec(L=L, nx=nx, nt=nt, T=1.0, nk=nk)
        assert_weight_table_is_the_lag_loop(cov, grid)


def test_weight_table_on_a_long_torus():
    cov = CovarianceSpec("wave", 1, "white")
    grid = GridSpec(L=20.0, nx=2048, nt=64, T=1.0, nk=1024)
    assert_weight_table_is_the_lag_loop(cov, grid)


@pytest.mark.parametrize("operator", ["wave", "heat"])
def test_the_engine_reads_the_one_cached_table(operator):
    # one table per (cov, grid): the engine's weights are the cached table,
    # and the wave Hankel panel is a view of it, not of a second copy
    cov = CovarianceSpec(operator, 1, "white")
    grid = GridSpec(L=1.25, nx=32, nt=40, T=1.0, nk=16)
    eng = MildEngine(cov, grid)
    assert eng.weights is weight_table(cov, grid)
    if operator == "wave":
        assert np.shares_memory(eng._hankel, eng.weights)


@pytest.mark.parametrize("operator", ["wave", "heat"])
def test_cold_weight_table_memory_stays_near_the_table(operator):
    # the lags are evaluated in blocks, so the transient arrays stay small
    # next to the (nspec, nt + 1 + _BLOCK) table the build returns
    cov = CovarianceSpec(operator, 1, "white")
    grid = GridSpec(L=1.25, nx=128, nt=256, T=1.0, nk=64, seed=90210)
    lattice(cov, grid)
    weight_table.cache_clear()
    tracemalloc.start()
    try:
        table = weight_table(cov, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * table.nbytes


@pytest.mark.parametrize("amp1", [0.0, 0.6])
@pytest.mark.parametrize("cov", [CovarianceSpec(op, 1, "white") for op in ("wave", "heat")]
                         + [CovarianceSpec(op, 2, "riesz", 0.5) for op in ("wave", "heat")],
                         ids=_ids)
def test_bump_table_equals_the_time_loop(cov, amp1):
    bump = BumpInitial(amp0=0.8, width0=0.3, amp1=amp1, width1=0.2, center=0.1)
    for nx, nk in GRIDS[cov.d]:
        grid = GridSpec(L=1.25, nx=nx, nt=40, T=1.0, nk=nk)
        lat = lattice(cov, grid)
        for times in (np.arange(grid.nt + 1) * grid.dt, np.array([0.37])):
            assert np.array_equal(bump.table(lat, times), bump_table_loop(bump, lat, times))


@pytest.mark.parametrize("cov", COVS[:2], ids=_ids)
def test_slab_l2_mean_scalar_and_array_slabs_agree(cov):
    r = np.linspace(0.0, 30.0, 41)
    dt = 1.0 / 7
    l = np.arange(1, 9)[:, None]
    a, b = (l - 1) * dt, l * dt
    block = covkernel.slab_l2_mean(cov, r, a, b)
    assert block.shape == (8, 41)
    for row in range(8):
        lo, hi = float(a[row, 0]), float(b[row, 0])
        assert np.array_equal(block[row], covkernel.slab_l2_mean(cov, r, lo, hi))


@pytest.mark.parametrize("a, b", [(0.2, 0.2), (0.3, 0.1), (-0.1, 0.1)])
def test_slab_l2_mean_guard_checks_every_slab(a, b):
    cov = CovarianceSpec("wave", 1, "white")
    with pytest.raises(ValueError):
        covkernel.slab_l2_mean(cov, 1.0, a, b)
    with pytest.raises(ValueError):
        covkernel.slab_l2_mean(cov, 1.0, np.array([0.0, a]), np.array([0.1, b]))
