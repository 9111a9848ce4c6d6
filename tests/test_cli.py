import json
import math

import pytest

from varadhanlab import mc
from varadhanlab.cli import main

TINY = ["--set", "grid.nx=16", "--set", "grid.nt=16", "--set", "grid.nk=8",
        "--set", "task.y=1.0"]


def test_varadhan_writes_row_diagnostics(tmp_path):
    assert main(["rate", *TINY, "--out", str(tmp_path)]) == 0
    assert main(["varadhan", *TINY, "--set", "task.n=2000",
                 "--set", "model.eps_list=1.0,0.7", "--out", str(tmp_path)]) == 0
    result = json.loads((tmp_path / "sweep_result.json").read_text())
    rows = result["rows"]
    assert [r["eps"] for r in rows] == [1.0, 0.7]
    csv_rows = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
    for row, line in zip(rows, csv_rows):
        assert row["ok"] and row["note"] == "tilted"
        assert row["ess"] >= 50.0 and row["bandwidth"] > 0.0
        assert math.isfinite(row["mean_weight"])
        ess, mean_weight, bandwidth = map(float, line.split(",")[-3:])
        assert (ess, mean_weight, bandwidth) == \
            (row["ess"], row["mean_weight"], row["bandwidth"])


def test_varadhan_tilts_with_the_minimiser_of_its_own_y(tmp_path, monkeypatch):
    # a y_grid profile, then varadhan at its default y (the first entry):
    # the tilt must be that entry's minimiser, ||h*||^2 / 2 = I(y)
    config = tmp_path / "profile.ini"
    config.write_text("[grid]\nnx = 16\nnt = 16\nnk = 8\n\n"
                      "[task]\ny_grid = 0.5:1.5:3\n")
    assert main(["rate", "--config", str(config), "--out", str(tmp_path)]) == 0
    stored = json.loads((tmp_path / "rate_result.json").read_text())["results"]

    used = {}
    sweep = mc.varadhan_sweep

    def spy(model, grid, eps_list, y, minus_I, **kw):
        used.update(y=y, I=minus_I, h_star=kw["h_star"])
        return sweep(model, grid, eps_list, y, minus_I, **kw)

    monkeypatch.setattr(mc, "varadhan_sweep", spy)
    assert main(["varadhan", "--config", str(config), "--set", "task.n=2000",
                 "--set", "model.eps_list=1.0,0.7", "--out", str(tmp_path)]) == 0
    entry = stored[0]
    assert used["y"] == entry["y"] == 0.5
    assert used["I"] == entry["I"]
    assert abs(0.5 * used["h_star"].norm_sq - entry["I"]) <= 1e-12 * entry["I"]
    assert [r["h_star"] for r in stored] == [f"h_star_{i:03d}.bin" for i in range(3)]


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


@pytest.mark.slow
def test_validate_full_matches_minus_rate(tmp_path):
    # the headline check: extrapolated eps^2 log p_hat(y) within 15% of -I(y)
    assert main(["validate", "--full", "--jobs", "2", "--out", str(tmp_path)]) == 0
    checks = {c["name"]: c for c in
              json.loads((tmp_path / "validate.json").read_text())}
    headline = checks["nonlinear log-density limit vs -I"]
    assert headline["ok"]
    assert float(headline["detail"].rpartition("rel=")[2]) < 0.15
