import contextlib
import json
import os
import subprocess
import sys
import textwrap
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from varadhanlab import mc, noise, presets, solver
from varadhanlab.covkernel import CovarianceSpec
from varadhanlab.errors import BlowUpError, GridError, ShapeError
from varadhanlab.funcs import ONE, ScalarFunc
from varadhanlab.noise import (ControlH, GridSpec, Lattice, _philox, dyadic_increments,
                               ht_inner, lattice, localization_holds,
                               sample_increments, sample_path, save_control, smooth_vn)
from varadhanlab.solver import ModelSpec, ZeroInitial

COV = CovarianceSpec("wave", 1, "white")


class ScatterReference:
    """Reference synthesize/extract: one scatter per coordinate family.

    Rebuilds the coordinate enumeration from the lattice's modes and
    weights, then fills a zero complex spectrum with the cos/sin pairs, the
    d >= 2 conjugate mirrors and the zero mode, each by its own scatter.
    Lattice's slot table must reproduce it bit for bit.
    """

    def __init__(self, lat):
        d, nx, nxd = lat.d, lat.grid.nx, float(lat.grid.nx ** lat.d)
        dxd = lat.grid.dx ** d
        weight = lat.mu_weight.reshape(-1)
        radius = lat.xi_radius.reshape(-1)
        pair, mirror, zero, keys = [], [], [], []
        for idx in np.nonzero(weight > 0)[0]:
            mm = lat._m[idx]
            if mm[-1] == 0:
                lead = mm[:-1]
                if np.all(lead == 0):
                    zero.append(idx)
                    keys.append((0.0, tuple(mm), idx, "zero"))
                    continue
                if lead[lead != 0][0] < 0:
                    continue  # conjugate mirror of a representative
                flat = 0
                for a in range(d - 1):
                    flat = flat * nx + (-int(lead[a])) % nx
                mirror.append(flat * (nx // 2 + 1))
            else:
                mirror.append(-1)
            pair.append(idx)
            keys.append((radius[idx], tuple(mm), idx, "pair"))
        keys.sort(key=lambda k: (k[0], k[1]))
        cols, col = {}, 0
        for _, _, idx, kind in keys:
            cols[idx] = col
            col += 1 if kind == "zero" else 2
        assert col == lat.ncoords
        self.lat = lat
        self.pair = np.array(pair, dtype=np.intp)
        self.cos = np.array([cols[i] for i in pair], dtype=np.intp)
        self.zero = np.array(zero, dtype=np.intp)
        self.zero_col = np.array([cols[i] for i in zero], dtype=np.intp)
        mirror = np.array(mirror, dtype=np.intp)
        self.mirror_src = np.nonzero(mirror >= 0)[0]
        self.mirror_dst = mirror[mirror >= 0]
        wp, wz = weight[self.pair], weight[self.zero]
        self.synth_pair = nxd * np.sqrt(wp / 2.0)
        self.synth_zero = nxd * np.sqrt(wz)
        self.extract_pair = np.sqrt(2.0 * wp) * dxd
        self.extract_zero = np.sqrt(wz) * dxd

    def synthesize(self, coeffs):
        lat = self.lat
        coeffs = np.asarray(coeffs, dtype=float)
        lead = coeffs.shape[:-1]
        spec = np.zeros(lead + (lat.nspec,), dtype=np.complex128)
        if len(self.pair):
            a = coeffs[..., self.cos]
            b = coeffs[..., self.cos + 1]
            spec[..., self.pair] = self.synth_pair * (a - 1j * b)
            if len(self.mirror_src):
                spec[..., self.mirror_dst] = np.conj(spec[..., self.pair[self.mirror_src]])
        if len(self.zero):
            spec[..., self.zero] = self.synth_zero * coeffs[..., self.zero_col]
        spec = spec.reshape(lead + lat.spec_shape)
        return np.fft.irfftn(spec, s=lat.spatial_shape, axes=tuple(range(-lat.d, 0)))

    def extract(self, fields):
        lat = self.lat
        fields = np.asarray(fields, dtype=float)
        lead = fields.shape[:-lat.d]
        spec = np.fft.rfftn(fields, axes=tuple(range(-lat.d, 0))).reshape(
            lead + (lat.nspec,))
        out = np.zeros(lead + (lat.ncoords,))
        if len(self.pair):
            vals = spec[..., self.pair]
            out[..., self.cos] = self.extract_pair * vals.real
            out[..., self.cos + 1] = -self.extract_pair * vals.imag
        if len(self.zero):
            out[..., self.zero_col] = self.extract_zero * spec[..., self.zero].real
        return out


@st.composite
def lattice_cases(draw):
    """A lattice (d in 1..3, white or Riesz, any nk <= nx/2), a leading
    shape and random coefficients and fields of that shape."""
    d = draw(st.sampled_from([1, 2, 3]))
    if d == 1 and draw(st.booleans()):
        cov = CovarianceSpec("wave", 1, "white")
    else:
        beta = draw(st.floats(0.1, min(d, 2) - 0.1))
        cov = CovarianceSpec(draw(st.sampled_from(["wave", "heat"])), d, "riesz", beta)
    nx = draw(st.sampled_from({1: [4, 8, 16, 64], 2: [4, 8, 16], 3: [4, 8]}[d]))
    nk = draw(st.integers(1, nx // 2))
    lat = Lattice(cov, GridSpec(L=draw(st.sampled_from([1.0, 1.25, 3.0])), nx=nx,
                                nt=4, T=1.0, nk=nk))
    lead = draw(st.sampled_from(["scalar", "batch", "strided"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(1, 5))
    if lead == "scalar":
        coeffs = rng.standard_normal(lat.ncoords)
        fields = rng.standard_normal(lat.spatial_shape)
    elif lead == "batch":
        coeffs = rng.standard_normal((n, lat.ncoords))
        fields = rng.standard_normal((n,) + lat.spatial_shape)
    else:
        # one time slab of (B, nt, ...) arrays, as the ensemble step reads it
        j = draw(st.integers(0, 2))
        coeffs = rng.standard_normal((n, 3, lat.ncoords))[:, j]
        fields = rng.standard_normal((n, 3) + lat.spatial_shape)[:, j]
    return lat, coeffs, fields


class TestSlotTable:
    @settings(max_examples=80, deadline=None)
    @given(lattice_cases())
    def test_bit_equal_to_scatter_reference(self, case):
        lat, coeffs, fields = case
        ref = ScatterReference(lat)
        assert np.array_equal(lat.synthesize(coeffs), ref.synthesize(coeffs))
        assert np.array_equal(lat.extract(fields), ref.extract(fields))

    @settings(max_examples=80, deadline=None)
    @given(lattice_cases())
    def test_synthesize_extract_adjoint(self, case):
        lat, coeffs, fields = case
        dxd = lat.grid.dx ** lat.d
        terms = lat.synthesize(coeffs) * fields * dxd
        axes = tuple(range(-lat.d, 0))
        lhs = terms.sum(axis=axes)
        rhs = np.sum(coeffs * lat.extract(fields), axis=-1)
        assert np.all(np.abs(lhs - rhs) <= 1e-12 * np.abs(terms).sum(axis=axes))

    @settings(max_examples=40, deadline=None)
    @given(lattice_cases())
    def test_slab_synthesis_equals_batched(self, case):
        # the ensemble step synthesizes inc[:, j] alone; it must give the
        # same bits as slab j of one synthesis over all slabs
        lat, coeffs, _ = case
        inc = np.stack([coeffs, -coeffs, 0.5 * coeffs], axis=-2)
        whole = lat.synthesize(inc)
        for j in range(3):
            assert np.array_equal(lat.synthesize(inc[..., j, :]),
                                  np.take(whole, j, axis=-lat.d - 1))


def _correlation(lat, lag) -> float:
    """Truncated-lattice spatial correlation Gamma(lag) = sum mu(cell) e^{2pi i xi.lag}."""
    phase = 2.0 * np.pi * (lat.xi @ np.atleast_1d(lag))
    w = (lat.mu_weight * lat.mu_mult).reshape(-1)
    # stored entries with mult 2 represent +/- m: cos covers both
    return float(np.sum(w * np.cos(phase)))


@pytest.fixture(scope="module")
def lat():
    return lattice(COV, GridSpec(L=1.25, nx=64, nt=64, T=1.0, nk=32, seed=42))


class TestGridSpec:
    def test_aliasing_guard(self):
        with pytest.raises(GridError):
            GridSpec(L=1.0, nx=16, nt=8, T=1.0, nk=9)

    def test_positive_sizes(self):
        with pytest.raises(GridError):
            GridSpec(L=-1.0, nx=16, nt=8, T=1.0, nk=4)

    @pytest.mark.parametrize("L, T", [(float("nan"), 1.0), (1.0, float("inf"))])
    def test_finite_sizes(self, L, T):
        with pytest.raises(GridError, match="finite"):
            GridSpec(L=L, nx=16, nt=8, T=T, nk=4)

    def test_time_index_snap(self):
        g = GridSpec(L=1.0, nx=16, nt=10, T=1.0, nk=4)
        assert g.time_index(0.5) == 5
        with pytest.raises(GridError):
            g.time_index(1.2)

    @pytest.mark.parametrize("t", [float("inf"), float("-inf"), float("nan")])
    def test_time_index_rejects_a_non_finite_time(self, t):
        g = GridSpec(L=1.0, nx=16, nt=10, T=1.0, nk=4)
        with pytest.raises(GridError, match="not finite"):
            g.time_index(t)


def _coord_radius(lat):
    """|xi| of each coordinate's mode; _extract_slot // 2 is its flat spectrum entry."""
    return np.linalg.norm(lat._m[lat._extract_slot // 2], axis=-1) / (2.0 * lat.grid.L)


class TestLattice:
    def test_mode_ordering_by_radius(self, lat):
        assert np.all(np.diff(_coord_radius(lat)) >= -1e-15)
        # white noise keeps the constant mode first
        assert _coord_radius(lat)[0] == 0.0

    def test_riesz_drops_zero_mode(self):
        lz = lattice(CovarianceSpec("wave", 1, "riesz", 0.5),
                     GridSpec(L=1.25, nx=64, nt=8, T=1.0, nk=32, seed=1))
        assert _coord_radius(lz)[0] > 0.0
        assert lz.ncoords % 2 == 0

    def test_synthesize_extract_adjoint(self, lat, rng):
        c = rng.standard_normal(lat.ncoords)
        f = rng.standard_normal(lat.spatial_shape)
        lhs = np.sum(lat.synthesize(c) * f) * lat.grid.dx
        rhs = np.sum(c * lat.extract(f))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_synthesized_fields_real_and_stationary(self, lat, rng):
        c = rng.standard_normal((5, lat.ncoords))
        fields = lat.synthesize(c)
        assert fields.shape == (5,) + lat.spatial_shape
        assert np.isrealobj(fields)

    def test_two_dimensional_round_trip(self, rng):
        lz = lattice(CovarianceSpec("heat", 2, "riesz", 0.5),
                     GridSpec(L=2.0, nx=16, nt=4, T=0.5, nk=6, seed=1))
        c = rng.standard_normal(lz.ncoords)
        f = rng.standard_normal(lz.spatial_shape)
        lhs = np.sum(lz.synthesize(c) * f) * lz.grid.dx ** 2
        rhs = np.sum(c * lz.extract(f))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_point_index_wraps(self, lat):
        assert lat.point_index(0.0) == (0,)
        assert lat.point_index(-1.25) == (32,)
        with pytest.raises(GridError):
            lat.point_index(2.0)


class TestSamplePath:
    def test_deterministic_per_seed_stream(self, lat):
        a = sample_path(lat, 3)
        b = sample_path(lat, 3)
        assert np.array_equal(a.increments, b.increments)

    def test_streams_differ(self, lat):
        a = sample_path(lat, 0)
        b = sample_path(lat, 1)
        assert not np.allclose(a.increments, b.increments)

    def test_increment_variance(self, lat):
        # law of large numbers: sample variance ~ dt within 1% over 1e6 draws
        draws = np.concatenate([sample_path(lat, s).increments.ravel()
                                for s in range(250)])
        assert len(draws) > 1_000_000
        assert draws.var() == pytest.approx(lat.grid.dt, rel=0.01)

    def test_stream_independence(self, lat):
        a = np.concatenate([sample_path(lat, s).increments.ravel()
                            for s in range(15)])
        b = np.concatenate([sample_path(lat, 100 + s).increments.ravel()
                            for s in range(15)])
        n = min(len(a), len(b), 100_000)
        corr = np.corrcoef(a[:n], b[:n])[0, 1]
        assert abs(corr) < 3.0 / np.sqrt(n)

    def test_field_covariance_matches_quadrature(self, lat):
        # MC covariance of the synthesized increment field against the
        # truncated-lattice correlation at several spatial lags
        inc = np.stack([sample_path(lat, s).increments for s in range(400)])
        fields = lat.synthesize(inc)          # (400, nt, nx)
        flat = fields.reshape(-1, lat.grid.nx)
        n = flat.shape[0]
        for lag_pts in (0, 3, 11):
            emp = np.mean(flat[:, 0] * flat[:, lag_pts])
            model = lat.grid.dt * _correlation(lat, lag_pts * lat.grid.dx)
            se = np.std(flat[:, 0] * flat[:, lag_pts]) / np.sqrt(n)
            assert abs(emp - model) < 3.0 * se

    def test_control_is_the_drive(self, lat):
        # c = (eps / dt) dW; a shift h enters the drive as h + c
        h = ControlH(lat, np.ones((lat.grid.nt, lat.ncoords)))
        p = sample_path(lat, 0)
        c0, c = p.control(0.5), h + p.control(0.5)
        assert np.array_equal(c0.coeffs, 0.5 / lat.grid.dt * p.increments)
        assert np.array_equal(c.coeffs, h.coeffs + c0.coeffs)


class _StubHelper:
    """Stands in for noise's fill helper: claims at most `rows` rows at once
    (None: as many as there are), or with rows == 0 never starts."""

    def __init__(self, rows):
        self.rows, self.claimed, self.futures = rows, [], []

    def submit(self, fn, take, draw):
        future = Future()
        self.futures.append(future)
        if self.rows == 0:
            return future                  # pending: the caller cancels it

        mine = []

        def capped():
            if self.rows is not None and len(mine) >= self.rows:
                raise IndexError
            mine.append(take())
            self.claimed.append(mine[-1])
            return mine[-1]

        future.set_running_or_notify_cancel()
        future.set_result(fn(capped, draw))
        return future


class TestSampleIncrements:
    @pytest.mark.parametrize("rows, claimed, busy", [(0, [], False),
                                                     (None, [4, 3, 2, 1, 0], False),
                                                     (2, [4, 3], False), (None, [], True)],
                             ids=["no-row", "every-row", "a-share", "every-cpu-busy"])
    def test_the_fill_does_not_depend_on_the_split(self, lat, monkeypatch, rows,
                                                   claimed, busy):
        # the helper claims rows from the back; however many it takes, the
        # block equals the rows of sample_path bit for bit, over two calls.
        # While ensemble units keep every CPU busy it is not asked at all.
        paths = np.stack([sample_path(lat, s).increments for s in range(5)])
        helper = _StubHelper(rows)
        monkeypatch.setattr(noise, "_HELPER", helper)
        monkeypatch.setattr(noise, "_CPUS", 1)
        generators = [_philox(lat, s) for s in range(5)]
        with noise._Unit(lat) if busy else contextlib.nullcontext():
            first = sample_increments(lat, generators, np.empty((5, 3, lat.ncoords)))
            rest = sample_increments(lat, generators,
                                     np.empty((5, lat.grid.nt - 3, lat.ncoords)))
        assert np.array_equal(np.concatenate((first, rest), axis=1), paths)
        assert helper.claimed == claimed + claimed
        assert len(helper.futures) == (0 if busy else 2)
        assert all(f.cancelled() == (rows == 0) for f in helper.futures)


class TestRing:
    """solver._Increments fills its block as a ring of two halves: the
    helper draws the next half's rows while the sweep reads this half."""

    @staticmethod
    def _grid(nt):
        return GridSpec(L=1.25, nx=16, nt=nt, T=1.0, nk=8, seed=7)

    @staticmethod
    def _endpoints(grid, t, n=5):
        model = presets.nonlinear_model()
        lat = lattice(model.cov, grid)
        h = ControlH(lat, 0.3 * np.random.default_rng(5).standard_normal(
            (grid.nt, lat.ncoords)))
        plain = mc.sample_endpoints(model, grid, n, 0.0, t=t)
        tilted, dots = mc.sample_endpoints(model, grid, n, 0.0, t=t, h=h)
        return np.stack((plain, tilted, dots))

    @staticmethod
    def _three_sub_batches(monkeypatch, grid, jt):
        # 13 streams in sub-batches of 5, 5 and 3
        state = solver._sub_batch(lattice(COV, grid), jt, 1)[1]
        monkeypatch.setattr(solver, "_STATE_BUDGET", 5 * state)
        assert solver._sub_batch(lattice(COV, grid), jt, 13) == (5, state)

    # nt = 16: a ring of two 8-row halves; 17: an odd ring of 9 and 8 rows;
    # 40: a partial last block; 64: two whole blocks.  t = 0.4 stops the
    # sweep at row 6, 7, 16 or 26, and girsanov() draws the rest.
    @pytest.mark.parametrize("nt", [16, 17, 40, 64])
    @pytest.mark.parametrize("t", [None, 0.4], ids=["t=T", "t<T"])
    @pytest.mark.parametrize("rows, busy", [(0, False), (None, False), (2, False),
                                            (None, True)],
                             ids=["no-row", "every-row", "a-share", "every-cpu-busy"])
    def test_endpoints_and_dots_do_not_depend_on_the_split(self, monkeypatch, nt, t,
                                                           rows, busy):
        self._check_split(monkeypatch, self._grid(nt), t, 5, rows, busy)

    def _check_split(self, monkeypatch, grid, t, n, rows, busy):
        # the reference runs with the helper off: the job's thread is busy
        # and there is one CPU.  With a CPU free the stub helper claims its
        # rows when a fill starts, ahead of the sweep; with every CPU busy
        # no fill is queued at all
        monkeypatch.setattr(noise, "_CPUS", 1)
        want = self._endpoints(grid, t, n)
        helper = _StubHelper(rows)
        monkeypatch.setattr(noise, "_HELPER", helper)
        monkeypatch.setattr(noise, "_CPUS", 1 if busy else 2)
        assert np.array_equal(self._endpoints(grid, t, n), want)
        if busy:
            assert helper.futures == []
        else:
            assert len(helper.futures) > 2 and all(f.done() for f in helper.futures)
            assert all(f.cancelled() == (rows == 0) for f in helper.futures)

    # nt = 33 ends on a one-row block and nt = 40 on an 8-row one, too short
    # for the next sub-batch's first half to fit before its last half: no
    # fill crosses their sub-batch boundaries.  A tilted t < T sweep draws
    # the rest of its rows after the sweep, so it fills each sub-batch alone.
    @pytest.mark.parametrize("nt", [16, 17, 33, 40, 64])
    @pytest.mark.parametrize("t", [None, 0.4], ids=["t=T", "t<T"])
    @pytest.mark.parametrize("rows, busy", [(0, False), (None, False), (2, False),
                                            (None, True)],
                             ids=["no-row", "every-row", "a-share", "every-cpu-busy"])
    def test_the_split_across_sub_batches_changes_no_bit(self, monkeypatch, nt, t,
                                                          rows, busy):
        grid = self._grid(nt)
        self._three_sub_batches(monkeypatch, grid, nt if t is None else grid.time_index(t))
        self._check_split(monkeypatch, grid, t, 13, rows, busy)

    # (nt, t, tilted, whether sub-batch 1's first half is drawn during
    # sub-batch 0's last): jt = 1 and one-row or 8-row last blocks share
    # rows with the next first half; a tilted t < T sweep still draws into
    # the block after its last half
    @pytest.mark.parametrize("nt, t, tilt, ahead", [
        (16, None, False, True), (17, None, False, True), (64, None, True, True),
        (64, 0.5, False, True), (64, 0.5, True, False), (1, None, False, False),
        (33, None, False, False), (40, None, False, False)])
    def test_the_next_sub_batch_is_drawn_while_this_one_reads_its_last_half(
            self, monkeypatch, nt, t, tilt, ahead):
        helper = _StubHelper(None)
        monkeypatch.setattr(noise, "_HELPER", helper)
        monkeypatch.setattr(noise, "_CPUS", 2)
        grid = self._grid(nt)
        lat = lattice(COV, grid)
        eng = solver.MildEngine(COV, grid, None if t is None else grid.time_index(t))
        whole = np.stack([sample_path(lat, s).increments for s in range(8)])
        h = ControlH(lat, np.ones((nt, lat.ncoords))) if tilt else None
        views = solver._workspace(lat, eng.jt, 5)
        views(5)["block"].fill(np.nan)
        unit = noise._Unit(lat)
        first, second = (solver._Increments(eng, part, h, 1.0, views(len(part)), unit)
                         for part in (range(5), range(5, 8)))
        halves = [fill for fill in first.fills if fill[0] < eng.jt]
        rows, lo = second.fills[0][-1], halves[-1][0]
        for j in range(eng.jt):
            first(j)
            if j == lo:
                # one fill started per half, and one more for sub-batch 1's first half
                assert len(helper.futures) == len(halves) + ahead
                assert np.array_equal(rows, whole[5:, :rows.shape[1]]) == ahead
            # the fill drawn ahead leaves every slab this sweep reads intact
            assert np.array_equal(first.buffer[:, j % solver._BLOCK], whole[:5, j])
        if tilt:
            first.girsanov()
        for j in range(eng.jt):
            second(j)
            assert np.array_equal(second.buffer[:, j % solver._BLOCK], whole[5:, j])

    @pytest.mark.parametrize("nt", [16, 17, 40, 64])
    def test_the_next_half_is_drawn_while_the_sweep_reads_this_one(self, monkeypatch, nt):
        # the stub helper draws every row of a fill when it starts: right
        # after the sweep reads the first slab of a half, the next half's
        # rows already sit in the buffer, scaled by sqrt(dt) as they were drawn
        monkeypatch.setattr(noise, "_HELPER", _StubHelper(None))
        monkeypatch.setattr(noise, "_CPUS", 2)
        grid = self._grid(nt)
        lat = lattice(COV, grid)
        whole = np.stack([sample_path(lat, s).increments for s in range(5)])
        work = solver._workspace(lat, nt, 5)(5)
        buffer = work["block"]
        buffer.fill(np.nan)
        inc = solver._Increments(solver.MildEngine(COV, grid), range(5), None, 1.0, work,
                                 noise._Unit(lat))
        halves = [half[:4] for half in inc.fills]
        for (lo, hi, start, _), (lo2, hi2, start2, _) in zip(halves, halves[1:]):
            for j in range(lo, hi):
                inc(j)
            assert np.array_equal(buffer[:, lo2 - start2: hi2 - start2], whole[:, lo2: hi2])
        assert len(halves) == 2 * -(-nt // solver._BLOCK)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_no_fill_outlives_a_failed_sweep(self, monkeypatch):
        # the sweep blows up at step 10, inside the first half, while the
        # second half's fill waits in the helper's queue: it is cancelled
        # before the error leaves sample_endpoints
        model = ModelSpec(COV, ONE, ScalarFunc("affine", (0.0, 1e40)), ZeroInitial(), 1.0)
        helper = _StubHelper(0)
        monkeypatch.setattr(noise, "_HELPER", helper)
        monkeypatch.setattr(noise, "_CPUS", 2)
        with pytest.raises(BlowUpError) as err:
            mc.sample_endpoints(model, self._grid(64), 5, 0.0)
        assert err.value.step == 10
        assert len(helper.futures) == 2 and all(f.cancelled() for f in helper.futures)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("rows", [0, None, 2], ids=["no-row", "every-row", "a-share"])
    def test_no_fill_outlives_a_later_failed_sub_batch(self, monkeypatch, rows):
        # sub-batch 1 of three blows up at step 50, in its last half, while
        # sub-batch 2's first half is queued: its fill, and every other, is
        # cancelled or done when the error leaves, and the error keeps its step
        grid = self._grid(64)
        self._three_sub_batches(monkeypatch, grid, grid.nt)
        helper = _StubHelper(rows)
        monkeypatch.setattr(noise, "_HELPER", helper)
        monkeypatch.setattr(noise, "_CPUS", 2)
        forward, sweeps = mc._forward, []

        def failing(model, eng, w_tab, inc, work):
            sweeps.append(inc)
            drive = inc if len(sweeps) != 2 else (
                lambda j: inc(j) * (np.inf if j == 49 else 1.0))
            return forward(model, eng, w_tab, drive, work)

        monkeypatch.setattr(mc, "_forward", failing)
        with pytest.raises(BlowUpError) as err:
            mc.sample_endpoints(presets.nonlinear_model(), grid, 13, 0.0)
        assert err.value.step == 50 and len(sweeps) == 2
        # sub-batch 0 made five fills (its four halves and sub-batch 1's first),
        # sub-batch 1 four (its last three halves and sub-batch 2's first)
        assert len(helper.futures) == 9
        assert all(f.cancelled() if rows == 0 else f.done() for f in helper.futures)
        assert sweeps[1].unit.ahead is None


def test_a_thread_outliving_the_main_thread_still_draws():
    # once the interpreter shuts down the helper takes no task: a worker
    # thread that draws after the main thread returned fills alone
    script = textwrap.dedent("""
        import json, threading, time
        from varadhanlab import mc, presets

        def work():
            while threading.main_thread().is_alive():
                time.sleep(0.01)
            ends = mc.sample_endpoints(presets.nonlinear_model(), presets.tiny_grid(), 8, 0.0)
            print(json.dumps(ends.tolist()))

        threading.Thread(target=work).start()
    """)
    src = str(Path(noise.__file__).parents[1])
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0 and done.stderr == ""
    serial = mc.sample_endpoints(presets.nonlinear_model(), presets.tiny_grid(), 8, 0.0)
    assert json.loads(done.stdout) == serial.tolist()


class TestControlH:
    def test_unit_mode_norm(self, lat):
        coeffs = np.zeros((lat.grid.nt, lat.ncoords))
        coeffs[:, 2] = 1.0
        h = ControlH(lat, coeffs)
        assert h.norm_sq == pytest.approx(1.0)
        assert ht_inner(h, h) == pytest.approx(1.0)

    def test_inner_with_zero(self, lat):
        h = ControlH(lat, np.ones((lat.grid.nt, lat.ncoords)))
        assert ht_inner(h, ControlH.zeros(lat)) == 0.0

    def test_cauchy_schwarz_sampled(self, lat, rng):
        for _ in range(100):
            a = ControlH(lat, rng.standard_normal((lat.grid.nt, lat.ncoords)))
            b = ControlH(lat, rng.standard_normal((lat.grid.nt, lat.ncoords)))
            assert abs(ht_inner(a, b)) <= a.norm * b.norm + 1e-12

    def test_bilinear(self, lat, rng):
        a = ControlH(lat, rng.standard_normal((lat.grid.nt, lat.ncoords)))
        b = ControlH(lat, rng.standard_normal((lat.grid.nt, lat.ncoords)))
        c = ControlH(lat, rng.standard_normal((lat.grid.nt, lat.ncoords)))
        lhs = ht_inner(a + 2.0 * b, c)
        rhs = ht_inner(a, c) + 2.0 * ht_inner(b, c)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_positive_definite(self, lat, rng):
        h = ControlH(lat, 1e-3 * rng.standard_normal((lat.grid.nt, lat.ncoords)))
        assert h.norm_sq > 0.0

    def test_shape_mismatch_signals(self, lat):
        other = lattice(COV, GridSpec(L=1.25, nx=64, nt=32, T=1.0, nk=32, seed=0))
        with pytest.raises(ShapeError):
            ht_inner(ControlH.zeros(lat), ControlH.zeros(other))


class TestSmoothVn:
    def test_modes_beyond_n_vanish(self, lat):
        v = smooth_vn(sample_path(lat, 5), 3)
        assert np.all(v.coeffs[:, 3:] == 0.0)

    def test_first_interval_vanishes(self, lat):
        n = 4
        v = smooth_vn(sample_path(lat, 5), n)
        per = lat.grid.nt // (1 << n)
        assert np.all(v.coeffs[:per] == 0.0)

    def test_integral_recovers_increments(self, lat):
        n = 3
        path = sample_path(lat, 5)
        v = smooth_vn(path, n)
        blocks = dyadic_increments(path, n)
        per = lat.grid.nt // (1 << n)
        dt = lat.grid.dt
        for i in range((1 << n) - 1):
            got = v.coeffs[(i + 1) * per:(i + 2) * per, :n].sum(axis=0) * dt
            assert np.allclose(got, blocks[i, :n], atol=1e-14)

    def test_dyadic_alignment_required(self, lat):
        bad = lattice(COV, GridSpec(L=1.25, nx=64, nt=48, T=1.0, nk=32, seed=0))
        with pytest.raises(GridError):
            smooth_vn(sample_path(bad, 0), 5)

    def test_norm_bound_on_localization_event(self, lat):
        # on L_n the squared norm is bounded by the explicit combinatorial
        # sum of truncated increments, exact per realization
        n, theta = 4, 0.9
        bound_inc = 2.0 ** (n * (theta - 1.0))
        count = 0
        for s in range(200):
            path = sample_path(lat, s)
            if not localization_holds(path, n, theta, lat.grid.T):
                continue
            count += 1
            v = smooth_vn(path, n)
            explicit = (1 << n) / lat.grid.T * n * ((1 << n) - 1) * bound_inc ** 2
            assert v.norm_sq <= explicit + 1e-12
        assert count > 50


class TestLocalization:
    def test_all_zero_increments(self, lat):
        path = sample_path(lat, 0)
        path.increments[:] = 0.0
        assert localization_holds(path, 4, 0.75, 1.0)

    def test_single_large_increment(self, lat):
        path = sample_path(lat, 0)
        path.increments[:] = 0.0
        path.increments[0, 0] = 10.0
        assert not localization_holds(path, 4, 0.75, 1.0)

    def test_theta_guard(self, lat):
        with pytest.raises(ValueError):
            localization_holds(sample_path(lat, 0), 4, 0.5, 1.0)

    def test_nan_theta_is_rejected(self, lat):
        # theta <= 1/2 is False for NaN, which then read as "not localized"
        with pytest.raises(ValueError, match="theta > 1/2"):
            localization_holds(sample_path(lat, 0), 4, float("nan"), 1.0)

    def test_failure_probability_decreases(self):
        # the failure probability must trend to zero in n for theta = 3/4
        g = GridSpec(L=1.25, nx=16, nt=256, T=1.0, nk=8, seed=3)
        lz = lattice(COV, g)
        fails = []
        for n in (4, 5, 6, 7, 8):
            bad = sum(0 if localization_holds(sample_path(lz, s), n, 0.75, 1.0)
                      else 1 for s in range(1000))
            fails.append(bad / 1000.0)
        assert all(b <= a + 1e-9 for a, b in zip(fails, fails[1:]))
        assert fails[-1] < fails[0]


class TestSerialization:
    def test_control_roundtrip(self, lat, tmp_path, rng):
        # the magic, the <QQd header (nt, ncoords, dt), then the coefficients as <f8
        h = ControlH(lat, rng.standard_normal((lat.grid.nt, lat.ncoords)))
        f = tmp_path / "h.bin"
        save_control(h, f)
        raw = f.read_bytes()
        assert raw[:8] == b"VLCTRL01"
        assert np.frombuffer(raw, "<u8", 2, 8).tolist() == [lat.grid.nt, lat.ncoords]
        assert np.frombuffer(raw, "<f8", 1, 24)[0] == lat.grid.dt
        coeffs = np.frombuffer(raw, "<f8", offset=32).reshape(lat.grid.nt, lat.ncoords)
        assert coeffs.tobytes() == h.coeffs.tobytes()


class TestObservationPoint:
    def test_none_is_the_origin_in_every_dimension(self):
        for d in (1, 2, 3):
            lz = lattice(CovarianceSpec("heat", d, "riesz", 0.5),
                         GridSpec(L=2.0, nx=8, nt=4, T=0.5, nk=3, seed=1))
            assert np.array_equal(lz.point(), np.zeros(d))
            assert lz.point_index() == lz.point_index(np.zeros(d)) == (0,) * d

    def test_explicit_point_is_checked(self, lat):
        assert np.array_equal(lat.point(0.5), [0.5])
        with pytest.raises(GridError, match="1 component"):
            lat.point([0.0, 0.0])
        with pytest.raises(GridError, match="outside the torus"):
            lat.point(2.0)

    def test_non_finite_point_is_a_grid_error(self, lat):
        # NaN compares false with L, so only a test that NaN fails catches it
        with pytest.raises(GridError, match="not finite"):
            lat.point_index(float("nan"))
