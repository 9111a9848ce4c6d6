"""Tests of the benchmark harness itself.

Run from the repository root:  python -m pytest -q benchmarks
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run

run.bootstrap()

import numpy.fft  # noqa: E402
import scipy.optimize  # noqa: E402
import varadhanlab  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _invoke(args, cwd=run.ROOT):
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=170)


def test_workload_names_match_spec():
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(run.WORKLOAD_NAMES) == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_tiny_smoke_run_emits_spec_metrics(workload, trace):
    proc = _invoke(["benchmarks/run.py", "--workload", workload, "--seed", "3",
                    "--seconds", "1", "--trace", str(trace), "--tiny"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        assert result["metrics"]["trace.coverage"]["value"] >= 0.9


def test_without_library_source_exits_nonzero_without_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _invoke([*SPEC["command"][1:], "--workload", "ensemble", "--seconds", "1"],
                   cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _snapshot():
    """Identity of every attribute the tracer could touch."""
    owners = [numpy.fft, scipy.optimize]
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "varadhanlab":
            owners.append(mod)
            owners.extend(v for v in vars(mod).values()
                          if isinstance(v, type) and v.__module__ == name)
    return {(id(o), k): id(v) for o in owners for k, v in list(vars(o).items())}


def _assert_restored(before):
    # lazily imported submodules may add attributes; none may change
    after = _snapshot()
    assert {key: after.get(key) for key in before} == before


def test_traced_run_restores_every_wrapped_attribute():
    before = _snapshot()
    tracer = Tracer("test")
    wl = WORKLOADS["tail"](seed=1, tiny=True, tracer=tracer)
    with tracer.installed():
        assert hasattr(varadhanlab.tilted_density, "__wrapped__")
        assert hasattr(numpy.fft.rfftn, "__wrapped__")
        rec = wl.run(0)
    assert rec.failed == 0
    _assert_restored(before)
    summary = tracer.summary()
    for layer in ("noise.sample_increments", "noise.synthesize", "noise.extract",
                  "solver.forward.wave", "solver.adjoint", "fft", "funcs.eval",
                  "skeleton.solve_phi", "skeleton.gradient_phi", "rate.rate_function",
                  "mc.tilted_density"):
        assert summary[layer]["calls"] > 0, layer
    assert tracer.counts["rate.outer_iters"] > 0 and tracer.tilts
    assert tracer.coverage(summary) >= 0.9


def test_restores_after_an_error_inside_the_traced_block():
    before = _snapshot()
    with pytest.raises(ZeroDivisionError):
        with Tracer("test").installed():
            1 / 0
    _assert_restored(before)


def test_self_time_subtracts_child_spans():
    tracer = Tracer("test")
    outer = tracer.begin("phase.x")
    inner = tracer.begin("a")
    tracer.begin("b")
    tracer.finish(2)
    tracer.finish(inner)
    tracer.finish(outer)
    # overwrite the clock readings with known values
    for sid, (t0, t1) in enumerate([(0.0, 10.0), (1.0, 7.0), (2.0, 5.0)]):
        tracer.start[sid], tracer.end[sid] = t0, t1
    summary = tracer.summary()
    assert summary["phase.x"]["self_s"] == pytest.approx(4.0)
    assert summary["a"]["self_s"] == pytest.approx(3.0)
    assert summary["b"]["self_s"] == pytest.approx(3.0)
    assert tracer.coverage(summary) == pytest.approx(0.6)
