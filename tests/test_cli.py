import json
import math

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
