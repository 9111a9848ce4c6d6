"""Run one benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload ensemble --seed 7 --seconds 30 --trace 0

Runs from the root of a source checkout and imports the library from
``src/``.  With ``--trace 0`` it prints the end-to-end metrics of an
untraced run; with ``--trace 1`` it alternates untraced and traced runs of
the same operations and prints the per-layer metrics.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
machine and build facts.  A full record (and, when traced, the spans) is
written to ``benchmarks/out/``.  The exit code is 0 only when every
correctness check passed.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import uuid
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("ensemble", "long_horizon", "tail")
#: cold set-up builds at the start and at the end of a run; their median is setup_s
SETUP_REPS = 15


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="smoke run on tiny grids; reference values are not checked")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return args


def bootstrap() -> None:
    """Import the library from this checkout's src/, single-threaded."""
    if not (SRC / "varadhanlab" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no library source at {SRC}; run from a full checkout")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))


# ---------------------------------------------------------------------------
# machine and build facts

def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return ""


def _caches() -> dict:
    out = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in range(8):
        level = _read(f"{base}/index{index}/level").strip()
        kind = _read(f"{base}/index{index}/type").strip()
        if level and kind != "Instruction":
            out[f"L{level}"] = _read(f"{base}/index{index}/size").strip()
    return out


def _git_commit() -> str | None:
    head = _read(str(ROOT / ".git" / "HEAD")).strip()
    if not head.startswith("ref: "):
        return head or None
    ref = head[5:]
    direct = _read(str(ROOT / ".git" / ref)).strip()
    if direct:
        return direct
    for line in _read(str(ROOT / ".git" / "packed-refs")).splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def machine_facts() -> dict:
    import numpy
    import scipy

    model = ""
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": model or "unknown",
            "caches": _caches(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "commit": _git_commit(), "src_sha256": _src_digest()}


# ---------------------------------------------------------------------------
# measurement

def clear_package_caches() -> None:
    """Drop every functools cache of the library, so set-up starts cold."""
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "varadhanlab":
            for obj in list(vars(mod).values()):
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def measure_setup(workload) -> list[float]:
    """Wall times of building the workload's engines from cold caches."""
    from varadhanlab.solver import MildEngine

    times = []
    for _ in range(SETUP_REPS):
        clear_package_caches()
        t0 = perf_counter()
        for cov, grid in workload.setups():
            MildEngine(cov, grid)
        times.append(perf_counter() - t0)
    return times


def sample_setup(workload, clock) -> list[float]:
    """Cold set-up builds, in nominal-machine seconds when a speed clock runs
    (scaled by its latest burst)."""
    scale = clock.scale() if clock else 1.0
    return [t * scale for t in measure_setup(workload)]


def run_ops(workload, seconds: float, tracer):
    """Run operations until the next one would end after `seconds`.

    Without a tracer every operation is timed untraced.  With one, each
    operation runs twice on the same inputs, untraced and traced, in
    alternating order; the pair gives the tracing overhead.
    """
    plain, traced = [], []
    t_start = perf_counter()
    k = 0
    while True:
        t_op = perf_counter()
        if tracer is None:
            plain.append(workload.run(k))
        else:
            for run_traced in ((False, True) if k % 2 == 0 else (True, False)):
                if run_traced:
                    tracer.current_op = k
                    workload.tracer = tracer
                    with tracer.installed():
                        traced.append(workload.run(k))
                    workload.tracer = None
                else:
                    plain.append(workload.run(k))
        k += 1
        elapsed = perf_counter() - t_start
        if elapsed + (perf_counter() - t_op) > seconds:
            return plain, traced


def _median(values):
    values = [v for v in values if v > 0]
    return statistics.median(values) if values else 0.0


def end_to_end(ops, setup_s: float) -> dict:
    """Medians over the run, in nominal-machine seconds."""
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    chunks = [c for o in ops for c in o.chunks]
    return {
        "replicas_per_s": (_median([n / nominal for n, _, nominal in chunks]), "1/s"),
        "op_s": (_median([o.nominal for o in ops]), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_mb, "MiB"),
    }


def per_layer(tracer, summ: dict, plain, traced, setup_s: float) -> dict:
    """Per-operation layer metrics from the traced operations."""
    n_ops = max(len(traced), 1)
    points = sum(o.rate_points for o in traced)

    def self_s(*names):
        return sum(summ.get(n, {}).get("self_s", 0.0) for n in names) / n_ops

    def calls(*names):
        return sum(summ.get(n, {}).get("calls", 0) for n in names) / n_ops

    def per_point(name):
        return summ.get(name, {}).get("calls", 0) / points if points else 0.0

    c = tracer.counts
    fwd = ("solver.forward.wave", "solver.forward.heat")
    tilts = tracer.tilts
    ess = [t["ess"] for t in tilts]
    gaps = [o.observed["rel_gap"] for o in traced if "rel_gap" in o.observed]
    ratios = [t.wall / p.wall for p, t in zip(plain, traced) if p.wall > 0]
    return {
        "noise.sample_increments.self_s": (self_s("noise.sample_increments"), "s"),
        "noise.sample_increments.streams": (c["noise.sample_increments.streams"] / n_ops, "count"),
        "noise.synthesize.self_s": (self_s("noise.synthesize"), "s"),
        "noise.synthesize.calls": (calls("noise.synthesize"), "count"),
        "noise.extract.self_s": (self_s("noise.extract"), "s"),
        "noise.extract.calls": (calls("noise.extract"), "count"),
        "solver.forward.self_s": (self_s(*fwd), "s"),
        "solver.forward.wave.self_s": (self_s(fwd[0]), "s"),
        "solver.forward.heat.self_s": (self_s(fwd[1]), "s"),
        "solver.forward.calls": (calls(*fwd), "count"),
        "solver.forward.steps": (c["solver.forward.steps"] / n_ops, "count"),
        "solver.forward.history_macs": (c["solver.forward.history_macs"] / n_ops, "count"),
        "solver.forward.history_bytes": (c["solver.forward.history_bytes"], "B"),
        "solver.adjoint.self_s": (self_s("solver.adjoint"), "s"),
        "solver.adjoint.calls": (calls("solver.adjoint"), "count"),
        "fft.self_s": (self_s("fft"), "s"),
        "fft.calls": (calls("fft"), "count"),
        "fft.points": (c["fft.points"] / n_ops, "count"),
        "funcs.eval.self_s": (self_s("funcs.eval"), "s"),
        "funcs.eval.calls": (calls("funcs.eval"), "count"),
        "skeleton.solve_phi.self_s": (self_s("skeleton.solve_phi"), "s"),
        "skeleton.solve_phi.per_point": (per_point("skeleton.solve_phi"), "count"),
        "skeleton.gradient_phi.self_s": (self_s("skeleton.gradient_phi"), "s"),
        "skeleton.gradient_phi.per_point": (per_point("skeleton.gradient_phi"), "count"),
        "rate.self_s": (self_s("rate.rate_function"), "s"),
        "rate.outer_iters": (c["rate.outer_iters"] / points if points else 0.0, "count"),
        "mc.tilted_density.self_s": (self_s("mc.tilted_density"), "s"),
        "mc.ess_min": (min(ess) if ess else 0.0, "count"),
        "mc.ess_frac": (min(t["ess"] / t["n"] for t in tilts) if tilts else 0.0, "frac"),
        "mc.rows_ok": (sum(o.observed.get("rows_ok", 0) for o in traced) / n_ops, "count"),
        "mc.varadhan_rel_gap": (statistics.median(gaps) if gaps else 0.0, "frac"),
        "solver.setup_s": (setup_s, "s"),
        "trace.coverage": (tracer.coverage(summ), "frac"),
        "trace.overhead_frac": (statistics.median(ratios) - 1.0 if ratios else 0.0, "frac"),
        "trace.spans": (len(tracer.start) / n_ops, "count"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    bootstrap()
    from probe import NOMINAL_S, SpeedClock
    from tracing import Tracer
    from workloads import WORKLOADS

    facts = machine_facts()
    tracer = Tracer(uuid.uuid4().hex) if args.trace else None
    kind = WORKLOADS[args.workload]
    clock = SpeedClock() if kind.probe_scaled and not tracer else None
    workload = kind(args.seed, tiny=args.tiny, clock=clock)
    if clock:
        clock.burst(0.5)
    setup = sample_setup(workload, clock)
    plain, traced = run_ops(workload, args.seconds, tracer)
    setup += sample_setup(workload, clock)
    setup_s = statistics.median(setup)
    ops = plain + traced
    attempted = sum(o.attempted for o in ops)
    failed = sum(o.failed for o in ops)
    if tracer is None:
        metrics = end_to_end(plain, setup_s)
    else:
        layers = tracer.summary()
        metrics = per_layer(tracer, layers, plain, traced, setup_s)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}"
    record = {"args": vars(args), "facts": facts, "setup_samples": setup,
              "probe": {"nominal_s": NOMINAL_S, "samples": clock.samples if clock else []},
              "computed": {"note": "computed from array shapes, not measured",
                           **workload.computed()},
              "ops": [{"traced": i >= len(plain), **dataclasses.asdict(o)}
                      for i, o in enumerate(ops)],
              "result": result}
    if tracer is not None:
        record["run_id"] = tracer.run_id
        record["layers"] = layers
        record["tilts"] = tracer.tilts
        tracer.save(OUT / f"{stem}-spans.npz")
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
    for o in ops:
        for problem in o.problems:
            print(f"FAILED: {problem}", file=sys.stderr)
    print(json.dumps({"facts": facts}))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
