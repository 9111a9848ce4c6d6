import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from varadhanlab import mc, rate
from varadhanlab.cli import _estimate_resources, load_config, main
from varadhanlab.errors import ConfigError
from varadhanlab.noise import lattice
from varadhanlab.solver import _BLOCK, _STATE_BUDGET, _sub_batch

TINY = ["--set", "grid.nx=16", "--set", "grid.nt=16", "--set", "grid.nk=8",
        "--set", "task.y=1.0"]


def test_varadhan_writes_row_diagnostics(tmp_path):
    assert main(["varadhan", *TINY, "--set", "task.n=2000",
                 "--set", "model.eps_list=1.0,0.7", "--out", str(tmp_path)]) == 0
    result = json.loads((tmp_path / "sweep_result.json").read_text())
    rows = result["rows"]
    assert [r["eps"] for r in rows] == [1.0, 0.7]
    header, *csv_rows = (tmp_path / "sweep.csv").read_text().splitlines()
    assert header == ("eps,y,p_hat,se,log_p,eps2_log_p,minus_I,gap,"
                      "ess,log_mean_weight,bandwidth")
    assert len(csv_rows) == len(rows)
    for row, line in zip(rows, csv_rows):
        assert row["ok"] and row["note"] == "tilted"
        assert row["ess"] >= 50.0 and row["bandwidth"] > 0.0
        assert math.isfinite(row["log_mean_weight"])
        ess, log_mean_weight, bandwidth = map(float, line.split(",")[-3:])
        assert (ess, log_mean_weight, bandwidth) == \
            (row["ess"], row["log_mean_weight"], row["bandwidth"])


def test_varadhan_writes_nan_where_the_density_underflows(tmp_path):
    # at eps = 0.03 p_hat is near exp(-1370): p_hat and se are NaN in
    # sweep.csv and null in sweep_result.json, never a false 0, while the
    # log-space columns stay finite
    assert main(["varadhan", *TINY, "--set", "task.n=2000",
                 "--set", "model.eps_list=0.1,0.03", "--out", str(tmp_path)]) == 0
    rows = json.loads((tmp_path / "sweep_result.json").read_text())["rows"]
    header, values = _read_csv(tmp_path / "sweep.csv")
    table = dict(zip(header, values.T))
    assert [r["ok"] for r in rows] == [True, True]
    assert rows[0]["p_hat"] > 0.0 and rows[0]["se"] > 0.0
    assert rows[1]["p_hat"] is None and rows[1]["se"] is None
    assert np.isnan(table["p_hat"][1]) and np.isnan(table["se"][1])
    for key in ("log_p", "eps2_log_p", "log_mean_weight"):
        assert all(math.isfinite(r[key]) for r in rows)
        assert np.all(np.isfinite(table[key]))


@pytest.fixture
def sweep_spy(monkeypatch):
    """The y, I and tilt that varadhan passes to mc.varadhan_sweep."""
    used, sweep = {}, mc.varadhan_sweep

    def spy(model, grid, eps_list, y, minus_I, **kw):
        used.update(y=y, I=minus_I, h_star=kw["h_star"])
        return sweep(model, grid, eps_list, y, minus_I, **kw)

    monkeypatch.setattr(mc, "varadhan_sweep", spy)
    return used


def _own_rate_point(overrides):
    """rate_function at task.y, task.t and task.x of the config the overrides give."""
    cfg = load_config(None, overrides)
    return rate.rate_function(cfg.model, cfg.grid, float(cfg.value("task", "y")),
                              t=cfg.t, x=cfg.x)


def test_varadhan_tilts_with_the_minimiser_of_its_own_y(tmp_path, sweep_spy):
    # a rate run with sigma = 1 leaves rate_result.json and h_star_000.bin;
    # varadhan with sigma = 2 in the same directory tilts with its own
    # model's minimiser and compares with its own I, not the stored one
    assert main(["rate", *TINY, "--out", str(tmp_path)]) == 0
    stored, = json.loads((tmp_path / "rate_result.json").read_text())["results"]
    args = [*TINY, "--set", "model.sigma=const:2.0"]
    assert main(["varadhan", *args, "--set", "task.n=2000", "--set", "model.eps_list=1.0,0.7",
                 "--out", str(tmp_path)]) == 0
    own = _own_rate_point(args[1::2])
    assert sweep_spy["y"] == own.y == 1.0
    assert sweep_spy["I"] == own.I != stored["I"]
    assert sweep_spy["h_star"].coeffs.tobytes() == own.h_star.coeffs.tobytes()


def test_varadhan_tilts_with_the_rate_point_of_its_observation_point(tmp_path, sweep_spy):
    args = [*TINY, "--set", "task.x=0.2", "--set", "task.t=0.5"]
    assert main(["varadhan", *args, "--set", "task.n=2000", "--set", "model.eps_list=1.0,0.7",
                 "--out", str(tmp_path)]) == 0
    own = _own_rate_point(args[1::2])
    assert own.I != _own_rate_point(TINY[1::2]).I
    assert sweep_spy["I"] == own.I
    assert sweep_spy["h_star"].coeffs.tobytes() == own.h_star.coeffs.tobytes()


def test_varadhan_on_an_unconverged_rate_point_draws_no_replica(tmp_path, monkeypatch,
                                                               capsys):
    # like rate, varadhan exits 1 on an unconverged point; it tilts with no
    # control but a converged minimiser, so no row is sampled
    solve, calls = rate.rate_function, []
    monkeypatch.setattr(rate, "rate_function", lambda *a, **kw: dataclasses.replace(
        solve(*a, **kw), converged=False, residual=0.25))
    monkeypatch.setattr(mc, "varadhan_sweep", lambda *a, **kw: calls.append(a))
    assert main(["varadhan", *TINY, "--set", "task.n=2000", "--out", str(tmp_path)]) == 1
    assert not calls and not (tmp_path / "sweep.csv").exists()
    assert "residual 0.25" in capsys.readouterr().err
    manifest = _manifest(tmp_path)
    assert manifest["rate"]["converged"] is False and manifest["rate"]["residual"] == 0.25
    assert manifest["artifacts"] == {} and "rate" in manifest["profile"]


def test_varadhan_on_a_y_grid_is_a_config_error(tmp_path, monkeypatch, capsys):
    # varadhan compares one point; it does not pick one from the grid
    solves = []
    monkeypatch.setattr(rate, "rate_function", lambda *a, **kw: solves.append(a))
    assert main(["varadhan", *TINY, "--set", "task.y=", "--set", "task.y_grid=0.5:1.5:3",
                 "--out", str(tmp_path)]) == 1
    assert not solves
    assert "set task.y" in capsys.readouterr().err
    assert _manifest(tmp_path)["error"] == "ConfigError"


def test_simulate_samples_do_not_depend_on_jobs(tmp_path):
    # three chunks of replicas; with --jobs 2 two threads share the lattice
    args = ["simulate", *TINY, "--set", "task.n=1100"]
    assert main([*args, "--jobs", "1", "--out", str(tmp_path / "one")]) == 0
    assert main([*args, "--jobs", "2", "--out", str(tmp_path / "two")]) == 0
    one = (tmp_path / "one" / "samples.csv").read_bytes()
    assert one == (tmp_path / "two" / "samples.csv").read_bytes()
    assert len(one.splitlines()) == 1101


def test_empty_override_removes_a_key(tmp_path):
    # the default config sets task.y, which would shadow task.y_grid
    assert main(["rate", *TINY, "--set", "task.y=", "--set", "task.y_grid=0.5:1.5:3",
                 "--out", str(tmp_path)]) == 0
    stored = json.loads((tmp_path / "rate_result.json").read_text())["results"]
    assert [r["y"] for r in stored] == [0.5, 1.0, 1.5]
    assert main(["rate", "--set", "task.bogus=", "--out", str(tmp_path)]) == 2


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array(rows[1:], dtype=float)


def test_density_writes_finite_curve(tmp_path):
    assert main(["density", *TINY, "--set", "task.n=1000",
                 "--set", "task.y_grid=-1:1:5", "--out", str(tmp_path)]) == 0
    header, values = _read_csv(tmp_path / "density.csv")
    assert header == ["eps", "y", "p_hat", "se", "log_p", "log_se"]
    assert values.shape == (5, 6)
    assert np.all(np.isfinite(values)) and np.all(values[:, 2] > 0.0)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["n"] == 1000 and manifest["bandwidth"] > 0.0


def test_support_writes_finite_tables(tmp_path):
    # 2^n must divide nt = 16, so the smoothing levels stop at 4; sigma is
    # not even, so the probe's ends are not mirror images
    overrides = ["task.n=40", "task.n_list=2,3", "task.budgets=0,1,10,100",
                 "model.sigma=affine_clamped:1,0.8,0.25,3", "model.b=tanh_bounded:1"]
    assert main(["support", *TINY, *[a for o in overrides for a in ("--set", o)],
                 "--out", str(tmp_path)]) == 0
    header, probe = _read_csv(tmp_path / "support_probe.csv")
    assert header == ["budget", "low", "high", "width"]
    assert probe.shape == (4, 4) and np.all(np.isfinite(probe))
    assert np.all(probe[:, 3] >= 0.0)
    # the ends of the constructive ray, exactly as written (.17g round-trips)
    assert probe[:, 1].tolist() == [0.0, -0.69007841312114604, -1.8338906519648188,
                                    -4.4419302827477436]
    assert probe[:, 2].tolist() == [0.0, 0.80988011695347661, 2.9805799451342483,
                                    12.357274205608078]
    header, conv = _read_csv(tmp_path / "support_convergence.csv")
    assert header == ["n", "kept", "c1_median"]
    assert conv.shape == (2, 3) and np.all(np.isfinite(conv))
    assert list(conv[:, 0]) == [2.0, 3.0] and np.all(conv[:, 1] >= 1)


def test_unknown_key_error_names_the_line_in_its_section(tmp_path):
    # eps is a known key in [model] (line 2) but not in [task] (line 6)
    config = tmp_path / "bad.ini"
    config.write_text("[model]\neps = 0.5\n\n[task]\nn = 100\neps = 0.3\n")
    with pytest.raises(ConfigError, match=r"line 6: unknown key 'eps' in \[task\]"):
        load_config(str(config), [])
    assert main(["rate", "--config", str(config), "--dry-run"]) == 2


def test_config_hash_ignores_key_order_and_tracks_values(tmp_path):
    one, two = tmp_path / "one.ini", tmp_path / "two.ini"
    one.write_text("[grid]\nnx = 16\nnk = 8\n\n[task]\nn = 100\ny = 1.0\n")
    two.write_text("[task]\ny = 1.0\nn = 100\n\n[grid]\nnk = 8\nnx = 16\n")
    h1 = load_config(str(one), []).hash()
    assert h1 == load_config(str(two), []).hash()
    assert h1 == load_config(str(one), []).hash()
    assert h1 != load_config(str(one), ["task.y=1.5"]).hash()
    assert h1 != load_config(str(one), ["grid.seed=8"]).hash()
    # defaults fill in: an empty file is the built-in config, and deleting
    # keys at their default values (grid.seed, model.eps) gives one's hash
    empty, full = tmp_path / "empty.ini", tmp_path / "full.ini"
    empty.write_text("")
    full.write_text("[model]\neps = 1.0\n\n[grid]\nnx = 16\nnk = 8\nseed = 7\n\n"
                    "[task]\nn = 100\ny = 1.0\n")
    assert load_config(str(empty), []).hash() == load_config(None, []).hash()
    assert load_config(str(full), []).hash() == h1
    # removing task.y turns rate into the y_grid profile: not a default
    assert load_config(None, ["task.y="]).hash() != load_config(None, []).hash()


def _step_bytes(lat) -> int:
    """Workspace bytes per replica that a sweep writes each step into: the
    coefficient row, the drive and state fields, the integrand spectrum and
    the causal-sum accumulator (heat: also its k1 x_n term)."""
    spectra = 2 if lat.cov.operator == "wave" else 3
    return lat.ncoords * 8 + 2 * math.prod(lat.spatial_shape) * 8 + spectra * lat.nspec * 16


@pytest.mark.parametrize("operator", ["wave", "heat"])
@pytest.mark.parametrize("nt, t", [(16, None), (256, None), (64, 0.5)],
                         ids=["16", "256", "64-t0.5"])
def test_dry_run_estimate_follows_the_shapes(operator, nt, t, capsys):
    overrides = [f"model.operator={operator}", f"grid.nt={nt}", "task.n=2000"]
    overrides += [] if t is None else [f"task.t={t}"]
    cfg = load_config(None, overrides)
    lat = lattice(cfg.model.cov, cfg.grid)
    jt = nt if t is None else cfg.grid.time_index(t)  # the sweeps stop at task.t
    B = mc.CHUNK                                     # n = 2000 fills whole chunks
    # the state a sub-batch is sized by, per replica: its increment rows
    # plus the wave history or heat accumulator
    lags, work = (jt, 0.5 * jt ** 2) if operator == "wave" else (1, jt)
    block = min(_BLOCK, nt) * lat.ncoords * 8
    state = block + lags * lat.nspec * 16
    k = math.ceil(B * state / _STATE_BUDGET)         # sub-batches per chunk
    # the workspace per replica: the block, the step buffers, and for wave
    # the history and far sums
    per = block + _step_bytes(lat) + ((jt + min(_BLOCK, jt)) * lat.nspec * 16
                                      if operator == "wave" else 0)
    want = (math.ceil(B / k) * per, work * lat.nspec * 2000 * 8)
    assert _estimate_resources(cfg) == want
    args = ["simulate", "--dry-run"] + [a for o in overrides for a in ("--set", o)]
    assert main(args) == 0
    assert f"~{want[0] / 1e6:.0f} MB per chunk" in capsys.readouterr().out


@pytest.mark.parametrize("n", ["0", "-5", "abc"])
def test_dry_run_rejects_a_bad_replica_count(n, capsys):
    # the same clean failure as the run itself: no traceback, exit 1
    assert main(["simulate", "--dry-run", "--set", f"task.n={n}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    with pytest.raises(ValueError):
        _estimate_resources(load_config(None, [f"task.n={n}"]))


def test_dry_run_estimate_stays_within_the_state_budget():
    # a 512-replica wave chunk at nt = 256 holds one sub-batch at a time,
    # not its whole (nspec, nt, 512) history: the budget bounds the state
    # it counts, and the sub-batch's far sums and step buffers come on top
    cfg = load_config(None, ["grid.nt=256"])
    lat = lattice(cfg.model.cov, cfg.grid)
    size, state = _sub_batch(lat, 256, mc.CHUNK)
    extra = size * (lat.nspec * _BLOCK * 16 + _step_bytes(lat))
    assert _estimate_resources(cfg)[0] == size * state + extra <= _STATE_BUDGET + extra


@pytest.mark.slow
def test_validate_full_matches_minus_rate(tmp_path):
    # the headline check: extrapolated eps^2 log p_hat(y) within 15% of -I(y)
    assert main(["validate", "--full", "--jobs", "2", "--out", str(tmp_path)]) == 0
    checks = {c["name"]: c for c in
              json.loads((tmp_path / "validate.json").read_text())}
    headline = checks["nonlinear log-density limit vs -I"]
    assert headline["ok"]
    assert float(headline["detail"].rpartition("rel=")[2]) < 0.15


def _manifest(path):
    return json.loads((path / "manifest.json").read_text())


@pytest.mark.parametrize("subcommand, overrides", [
    ("density", ["task.n=500"]),                        # n >= 1000 guard
    ("rate", ["task.y=", "task.y_grid=1,0.5"]),         # sorted-grid guard
    ("simulate", ["task.n=0"]),                         # empty-ensemble guard
    ("support", ["task.budgets=-1,1", "task.n=40",      # negative-budget guard
                 "task.n_list=2,3"]),
    ("rate", ["task.y=", "task.y_grid=0:1:0"]),         # empty-grid guard
    ("rate", ["task.y=nan"]),                           # non-finite target guards,
    ("rate", ["task.y=", "task.y_grid=0,nan"]),         # not a blow-up at step 1
    ("rate", ["task.tol_rel=nan"]),                     # tolerance guards, not a
    ("rate", ["task.tol_rel=-1"]),                      # whole unconverged AL budget
    ("support", ["task.budgets=1,inf", "task.n=40",     # infinite-budget guard, not
                 "task.n_list=2,3"]),                   # a blow-up at step 1
    ("varadhan", ["task.y=nan"]),                       # the rate point's own guards,
    ("varadhan", ["task.y=inf"]),                       # before any solve or draw
    ("varadhan", ["task.tol_rel=-1"]),
])
def test_value_error_fails_the_run_cleanly(subcommand, overrides, tmp_path, capsys):
    args = [subcommand, *TINY] + [a for o in overrides for a in ("--set", o)]
    assert main([*args, "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    manifest = _manifest(tmp_path)
    assert manifest["failed"] and manifest["error"] == "ValueError"
    assert "step" not in manifest


@pytest.mark.parametrize("t", ["inf", "nan"])
@pytest.mark.parametrize("subcommand", ["simulate", "rate"])
def test_non_finite_time_is_a_grid_error(subcommand, t, tmp_path, capsys):
    assert main([subcommand, *TINY, "--set", f"task.t={t}", "--out", str(tmp_path)]) == 1
    assert f"time {t} is not finite" in capsys.readouterr().err
    assert _manifest(tmp_path)["error"] == "GridError"


def test_non_finite_sigma0_is_a_config_error(tmp_path, capsys):
    # a NaN coefficient fails when the config loads, not as a blow-up at step 1
    assert main(["simulate", *TINY, "--set", "model.sigma=const:nan",
                 "--out", str(tmp_path)]) == 2
    assert "config error: const parameters must be finite" in capsys.readouterr().err
    assert not (tmp_path / "manifest.json").exists()


@pytest.mark.parametrize("override, message", [
    ("model.b=const:inf", "const parameters must be finite"),
    ("model.sigma=affine_clamped:1,0.5,3,0.25", "affine_clamped needs lo <= hi"),
    ("model.sigma=cos_perturbed:0.25,1", "inf |sigma| = 0.0 must be > 0"),
    ("model.sigma0=1.0", "unknown key 'sigma0' in [model]"),
])
def test_bad_coefficient_is_a_config_error(override, message, tmp_path, capsys):
    assert main(["simulate", *TINY, "--set", override, "--out", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("y_grid", ["1:2", "1:2:3:4", "-1:1:-3", "1:2:2.5", "a:1:3",
                                    "0,x", "1;2"])
@pytest.mark.parametrize("subcommand", ["density", "rate"])
def test_malformed_y_grid_is_a_config_error(subcommand, y_grid, tmp_path, capsys):
    # refused when the config loads, by --dry-run as by the run, before any draw
    args = [subcommand, *TINY, "--set", "task.y=", "--set", f"task.y_grid={y_grid}"]
    for extra in (["--dry-run"], ["--out", str(tmp_path)]):
        assert main([*args, *extra]) == 2
        assert capsys.readouterr().err.startswith("config error: task.y_grid must be")
    assert not (tmp_path / "manifest.json").exists()
    with pytest.raises(ConfigError):
        load_config(None, [f"task.y_grid={y_grid}"])


@pytest.mark.parametrize("y_grid, want", [("-1:1:3", [-1.0, 0.0, 1.0]), ("0:1:0", []),
                                          ("0.5, 1,2", [0.5, 1.0, 2.0]), (",", [])])
def test_y_grid_parses_when_the_config_loads(y_grid, want):
    assert load_config(None, [f"task.y_grid={y_grid}"]).y_grid.tolist() == want


@pytest.mark.parametrize("overrides, error", [
    (["task.n_list=,"], "ValueError"), (["task.n_list=-1"], "ValueError"),
    (["task.n_list=2,3", "task.theta=nan"], "ValueError"),
    (["task.n_list=2,3", "task.budgets=,"], "ValueError"),
    (["grid.nk=1", "task.n_list=2,4"], "GridError"),        # 3 coordinates < 4
    (["task.n_list=2,3", "task.budgets=1,inf"], "ValueError"),
    (["task.n_list=2,3", "task.n=0"], "ValueError"),
    (["task.n_list=2,3", "task.n=-3"], "ValueError")],
    ids=["levels", "negative-level", "nan-theta", "budgets", "level-above-modes",
         "infinite-budget", "no-replicas", "negative-replicas"])
def test_support_rejects_empty_or_negative_inputs_before_any_draw(
        overrides, error, tmp_path, monkeypatch, capsys):
    # bad levels, replica counts, theta or budgets (empty, negative or
    # infinite) fail before the probe's first skeleton solve and before the
    # endpoints are drawn, and no table is written
    draws, solves = [], []
    monkeypatch.setattr(mc, "sample_endpoints", lambda *a, **kw: draws.append(a))
    monkeypatch.setattr(rate, "solve_phi", lambda *a, **kw: solves.append(a))
    args = ["support", *TINY, "--set", "task.n=40"]
    args += [a for o in overrides for a in ("--set", o)]
    assert main([*args, "--out", str(tmp_path)]) == 1
    assert not draws and not solves
    assert capsys.readouterr().err.startswith("error: ")
    manifest = _manifest(tmp_path)
    assert manifest["error"] == error and manifest["artifacts"] == {}
    assert not (tmp_path / "support_probe.csv").exists()


def test_support_c1_column_is_pinned(tmp_path):
    # the default 300 replicas on the tiny grid: kept counts exactly and
    # c1 medians to 1e-12 relative, so the smoothing route cannot drift
    assert main(["support", *TINY, "--set", "task.n_list=2,3,4",
                 "--out", str(tmp_path)]) == 0
    header, conv = _read_csv(tmp_path / "support_convergence.csv")
    assert header == ["n", "kept", "c1_median"]
    assert conv[:, :2].tolist() == [[2, 138], [3, 171], [4, 257]]
    np.testing.assert_allclose(conv[:, 2], [0.1626796451158713, 0.13179771313461536,
                                            0.093135772076897438], rtol=1e-12, atol=0)


def test_density_on_an_empty_y_grid_draws_no_replica(tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(mc, "sample_endpoints", lambda *a, **kw: calls.append(a))
    assert main(["density", *TINY, "--set", "task.y_grid=0:1:0", "--set", "task.n=1000",
                 "--out", str(tmp_path)]) == 1
    assert not calls
    assert "error: y_grid is empty" in capsys.readouterr().err
    assert _manifest(tmp_path)["error"] == "ValueError"


@pytest.mark.parametrize("y_grid", ["nan,0,0.5", "-1,inf"])
def test_density_on_a_non_finite_y_grid_draws_no_replica(y_grid, tmp_path, monkeypatch,
                                                         capsys):
    # a non-finite entry would give a NaN row; it fails before any draw
    calls = []
    monkeypatch.setattr(mc, "sample_endpoints", lambda *a, **kw: calls.append(a))
    assert main(["density", *TINY, "--set", f"task.y_grid={y_grid}", "--set", "task.n=1000",
                 "--out", str(tmp_path)]) == 1
    assert not calls
    assert "error: y_grid has a non-finite entry" in capsys.readouterr().err
    assert _manifest(tmp_path)["error"] == "ValueError"


def test_varadhan_in_a_rate_directory_keeps_the_rate_provenance(tmp_path):
    # varadhan overwrites the rate run's manifest; rate_result.json keeps
    # that run's config hash, and sweep_result.json the diagnostics of the
    # rate point varadhan solved, as rate_result.json gives them
    assert main(["rate", *TINY, "--out", str(tmp_path)]) == 0
    rate_hash = _manifest(tmp_path)["config_hash"]
    stored = json.loads((tmp_path / "rate_result.json").read_text())
    assert stored["config_hash"] == rate_hash
    assert main(["varadhan", *TINY, "--set", "task.n=2000", "--set", "model.eps_list=1.0,0.7",
                 "--out", str(tmp_path)]) == 0
    manifest = _manifest(tmp_path)
    assert manifest["subcommand"] == "varadhan" and manifest["config_hash"] != rate_hash
    assert "inputs" not in manifest
    block = json.loads((tmp_path / "sweep_result.json").read_text())["rate"]
    entry, = stored["results"]
    assert block == {k: v for k, v in entry.items() if k != "h_star"}
    assert block["converged"] and block.keys() >= {
        "I", "residual", "iterations", "converged", "gamma_bar", "stationarity",
        "skeleton_solves", "adjoint_sweeps"}


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_exits_2(jobs, tmp_path, capsys):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["simulate", *TINY, "--jobs", jobs, "--out", str(out)])
    assert exc.value.code == 2
    assert "--jobs must be at least 1" in capsys.readouterr().err
    assert not out.exists()


def test_blow_up_writes_its_step(tmp_path):
    assert main(["simulate", *TINY, "--set", "model.b=affine:0,1e40",
                 "--set", "task.n=600", "--out", str(tmp_path)]) == 1
    manifest = _manifest(tmp_path)
    assert manifest["failed"] == "time stepping blew up at step 10"
    assert manifest["error"] == "BlowUpError" and manifest["step"] == 10


@pytest.mark.parametrize("y_grid", ["-2:2:3", "-2:2:5"])
def test_density_on_a_grid_coarser_than_the_bandwidth(y_grid, tmp_path):
    # steps of 2 and 1 against a bandwidth of about 0.11: the trapezoid sum
    # is not a mass there, so the mass bound must not fire
    assert main(["density", *TINY, "--set", "task.n=1000",
                 "--set", f"task.y_grid={y_grid}", "--out", str(tmp_path)]) == 0
    assert "failed" not in _manifest(tmp_path)


def test_rate_result_carries_solver_diagnostics(tmp_path):
    assert main(["rate", *TINY, "--out", str(tmp_path)]) == 0
    entry, = json.loads((tmp_path / "rate_result.json").read_text())["results"]
    assert math.isfinite(entry["stationarity"])
    assert entry["adjoint_sweeps"] >= entry["iterations"] >= 1
    assert "evaluations" not in entry


def test_validate_passes_every_check(tmp_path):
    assert main(["validate", "--out", str(tmp_path)]) == 0
    checks = json.loads((tmp_path / "validate.json").read_text())
    assert checks and all(c["ok"] for c in checks)
    assert _manifest(tmp_path)["all_pass"]


def test_removed_config_keys_are_rejected():
    # task.alpha and [output] were accepted, hashed and never read;
    # task.n_controls set the probe's random directions, which are gone
    assert main(["rate", "--set", "task.alpha=0.5", "--dry-run"]) == 2
    assert main(["rate", "--set", "output.formats=csv", "--dry-run"]) == 2
    assert main(["support", "--set", "task.n_controls=6", "--dry-run"]) == 2
    # task.rate_artifact pointed varadhan at a rate run's directory; it
    # solves its own rate point now
    assert main(["varadhan", "--set", "task.rate_artifact=x", "--dry-run"]) == 2
    assert not load_config(None, []).raw.keys() - {"model", "grid", "task"}


def test_rate_runs_a_two_dimensional_riesz_point(tmp_path):
    # an absent task.x is the origin of R^d, not a one-component point
    args = ["model.d=2", "model.kind=riesz", "model.beta=1", "grid.nx=16",
            "grid.nt=8", "grid.nk=4", "grid.L=2.5"]
    assert main(["rate", *[a for o in args for a in ("--set", o)],
                 "--out", str(tmp_path)]) == 0
    stored = json.loads((tmp_path / "rate_result.json").read_text())
    assert stored["x"] == [0.0, 0.0] and stored["t"] == 1.0
    entry, = stored["results"]
    assert entry["converged"] and entry["I"] > 0.0


def test_rate_result_counts_skeleton_solves(tmp_path):
    assert main(["rate", *TINY, "--out", str(tmp_path)]) == 0
    stored = json.loads((tmp_path / "rate_result.json").read_text())
    entry, = stored["results"]
    assert entry["skeleton_solves"] > entry["adjoint_sweeps"] >= 1
    assert stored["x"] == [0.0]


@pytest.mark.parametrize("y, evaluated", [("1.0", True), ("0.0", False)])
def test_rate_result_counts_adjoint_sweeps(tmp_path, monkeypatch, y, evaluated):
    # y = 0 is the zero-control centre of the default model: no evaluation,
    # one sweep for the gradient there
    from varadhanlab import rate
    sweeps, gradient = [], rate.gradient_phi
    monkeypatch.setattr(rate, "gradient_phi",
                        lambda *a, **k: sweeps.append(1) or gradient(*a, **k))
    assert main(["rate", *TINY, "--set", f"task.y={y}", "--out", str(tmp_path)]) == 0
    entry, = json.loads((tmp_path / "rate_result.json").read_text())["results"]
    assert entry["adjoint_sweeps"] == len(sweeps)
    if evaluated:
        assert entry["adjoint_sweeps"] >= entry["iterations"] >= 1
    else:
        assert entry["I"] == 0.0 and entry["iterations"] == 0
        assert entry["adjoint_sweeps"] == 1


def test_simulate_defaults_to_a_thousand_replicas(tmp_path):
    assert main(["simulate", *TINY, "--out", str(tmp_path)]) == 0
    assert len((tmp_path / "samples.csv").read_bytes().splitlines()) == 1001
    assert _manifest(tmp_path)["n"] == 1000


def test_support_defaults_to_three_hundred_replicas(tmp_path, monkeypatch, capsys):
    used = []
    convergence = mc.support_convergence

    def spy(model, grid, n_list, n_replicas, **kw):
        used.append(n_replicas)
        return convergence(model, grid, n_list, n_replicas, **kw)

    monkeypatch.setattr(mc, "support_convergence", spy)
    overrides = ["task.n_list=2", "task.budgets=1"]
    args = ["support", *TINY, *[a for o in overrides for a in ("--set", o)]]
    assert main([*args, "--dry-run"]) == 0
    assert "task.n=" in capsys.readouterr().out.splitlines()      # listed unset
    assert main([*args, "--out", str(tmp_path)]) == 0
    assert used == [300]
    cfg = load_config(None, [])
    lat = lattice(cfg.model.cov, cfg.grid)
    # two sub-batches of 150; the workspace adds the far sums and the step
    # buffers to their state
    state = _BLOCK * lat.ncoords * 8 + 64 * lat.nspec * 16
    assert _estimate_resources(cfg, "support")[0] == \
        150 * (state + _BLOCK * lat.nspec * 16 + _step_bytes(lat))


def test_riesz_without_beta_is_a_config_error(capsys):
    assert main(["rate", "--set", "model.kind=riesz", "--dry-run"]) == 2
    assert "model.beta" in capsys.readouterr().err


def test_an_empty_config_resolves_like_the_built_in_one(tmp_path):
    empty = tmp_path / "empty.ini"
    empty.write_text("")
    cfg, builtin = load_config(str(empty), []), load_config(None, [])
    assert cfg.raw == {}
    assert cfg.model == builtin.model and cfg.grid == builtin.grid
    assert cfg.eps_list == builtin.eps_list
    assert builtin.task
    for key, text in builtin.task.items():
        assert cfg.value("task", key) == text


@pytest.mark.parametrize("subcommand, overrides, stages", [
    ("simulate", [], {"sampling", "replica_field"}),
    ("density", ["task.n=1000"], {"density"}),
    ("rate", [], {"rate"}),
    ("varadhan", ["task.n=2000", "model.eps_list=1.0,0.7"], {"rate", "sweep"}),
    ("support", ["task.n=40", "task.n_list=2,3", "task.budgets=1"],
     {"support_probe", "support_convergence"}),
])
def test_manifest_profiles_the_library_stages(subcommand, overrides, stages, tmp_path):
    args = [subcommand, *TINY] + [a for o in overrides for a in ("--set", o)]
    assert main([*args, "--out", str(tmp_path)]) == 0
    profile = _manifest(tmp_path)["profile"]
    assert profile.keys() == stages
    assert all(isinstance(s, float) and s > 0.0 for s in profile.values())


def test_failed_run_profiles_the_stage_it_failed_in(tmp_path):
    # the blow-up of test_blow_up_writes_its_step, inside the sampling stage
    assert main(["simulate", *TINY, "--set", "model.b=affine:0,1e40",
                 "--set", "task.n=600", "--out", str(tmp_path)]) == 1
    manifest = _manifest(tmp_path)
    assert manifest["error"] == "BlowUpError"
    assert list(manifest["profile"]) == ["sampling"]
    assert manifest["profile"]["sampling"] > 0.0


_FOOTPRINT = """
import json, sys
import varadhanlab
from varadhanlab import cli, mc, presets, rate

HEAVY = ("scipy.optimize", "scipy.integrate", "scipy.special")

def loaded():
    return sorted(m for m in HEAVY if m in sys.modules)

grid = presets.tiny_grid()
for cov in (presets.WAVE_WHITE, presets.HEAT_WHITE):
    mc.sample_endpoints(presets.nonlinear_model(cov=cov), grid, mc.CHUNK, None)
code = cli.main(["simulate", *json.loads(sys.argv[1]), "--out", sys.argv[2]])
after_mc = loaded()
res = rate.rate_function(presets.nonlinear_model(), grid, 1.0)
print(json.dumps({"simulate": code, "after_mc": after_mc,
                  "converged": res.converged, "after_rate": loaded()}))
"""


def test_monte_carlo_path_loads_no_scipy_solver(tmp_path):
    # ensemble chunks and a simulate run load numpy only; scipy's solvers
    # and quadrature load with the first rate point that needs them
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", _FOOTPRINT, json.dumps(TINY),
                          str(tmp_path)], env=env, capture_output=True, text=True,
                         check=True)
    report = json.loads(out.stdout.splitlines()[-1])
    assert report["simulate"] == 0
    assert report["after_mc"] == []
    assert report["converged"] and "scipy.optimize" in report["after_rate"]
