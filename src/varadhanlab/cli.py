"""Batch front end: config parsing, experiment orchestration, artifact emission.

Configs are flat ``key = value`` lines grouped in named sections (INI
style), chosen over nested formats for diff-friendliness; any key can be
overridden with repeated ``--set section.key=value`` flags.  Every run
writes a JSON manifest carrying the seed and a hash of the resolved
config, and artifacts regenerate bit-identically from those regardless of
``--jobs``.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import configparser
import dataclasses
import datetime
import hashlib
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import covkernel, mc, rate as rate_mod, skeleton, solver
from .covkernel import CovarianceSpec, KernelTable
from .errors import ConfigError, VaradhanLabError
from .funcs import parse_func
from .noise import ControlH, GridSpec, lattice, load_control, save_control
from .solver import BumpInitial, ModelSpec, ZeroInitial, g1_grid

_SCHEMA = {
    "model": {"operator", "d", "kind", "beta", "sigma", "b", "w", "sigma0",
              "eps", "eps_list"},
    "grid": {"L", "nx", "nt", "nk", "T", "seed"},
    "task": {"t", "x", "y", "y_grid", "n", "n_list", "budgets", "theta",
             "alpha", "n_controls", "tol_rel", "rate_artifact"},
    "output": {"directory", "formats"},
}

DEFAULT_CONFIG = """\
[model]
operator = wave
d = 1
kind = white
sigma = const:1.0
b = zero
w = zero
sigma0 = 1.0
eps = 1.0
eps_list = 1.0,0.7,0.5,0.35

[grid]
L = 1.25
nx = 128
nt = 64
nk = 64
T = 1.0
seed = 7

[task]
t = 1.0
x = 0.0
y = 1.0
y_grid = -1.5:1.5:13
n = 10000
n_list = 3,4,5,6
budgets = 1,10,100
theta = 0.9
alpha = 0.5
n_controls = 6
tol_rel = 1e-6

[output]
directory = out
formats = csv,json
"""


def _floats(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _ints(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _parse_grid_expr(text: str) -> np.ndarray:
    """Either 'start:stop:count' or a comma list."""
    if ":" in text:
        lo, hi, cnt = text.split(":")
        return np.linspace(float(lo), float(hi), int(cnt))
    return np.array(_floats(text))


class Config:
    """Validated experiment configuration."""

    def __init__(self, parser: configparser.ConfigParser, source_text: str):
        self.raw = {s: dict(parser.items(s)) for s in parser.sections()}
        self._validate_keys(source_text)
        self.model = self._build_model()
        self.grid = self._build_grid()
        self.task = self.raw.get("task", {})
        self.output = self.raw.get("output", {})

    def _validate_keys(self, source_text: str):
        lines = source_text.splitlines()
        for section, items in self.raw.items():
            if section not in _SCHEMA:
                raise ConfigError(f"unknown section [{section}]")
            for key in items:
                if key not in _SCHEMA[section]:
                    lineno = next((i + 1 for i, ln in enumerate(lines)
                                   if ln.strip().split("=")[0].strip() == key), "?")
                    raise ConfigError(
                        f"line {lineno}: unknown key '{key}' in [{section}]")

    def _build_model(self) -> ModelSpec:
        m = self.raw.get("model", {})
        kind = m.get("kind", "white")
        beta = float(m["beta"]) if kind == "riesz" else None
        cov = CovarianceSpec(m.get("operator", "wave"), int(m.get("d", 1)),
                             kind, beta)
        w_text = m.get("w", "zero")
        if w_text == "zero":
            w = ZeroInitial()
        elif w_text.startswith("bump"):
            args = _floats(w_text.partition(":")[2]) if ":" in w_text else []
            names = ["amp0", "width0", "amp1", "width1", "center"]
            w = BumpInitial(**dict(zip(names, args)))
        else:
            raise ConfigError(f"unknown initial data '{w_text}'")
        return ModelSpec(cov, parse_func(m.get("sigma", "const:1.0")),
                         parse_func(m.get("b", "zero")), w,
                         float(m.get("eps", 1.0)), float(m.get("sigma0", 1.0)))

    def _build_grid(self) -> GridSpec:
        g = self.raw.get("grid", {})
        return GridSpec(L=float(g.get("L", 1.25)), nx=int(g.get("nx", 128)),
                        nt=int(g.get("nt", 64)), T=float(g.get("T", 1.0)),
                        nk=int(g.get("nk", 64)), seed=int(g.get("seed", 7)))

    @property
    def eps_list(self) -> list[float]:
        return _floats(self.raw.get("model", {}).get("eps_list", "1.0,0.7,0.5,0.35"))

    @property
    def t(self) -> float:
        return float(self.task.get("t", self.grid.T))

    @property
    def x(self) -> np.ndarray:
        return np.array(_floats(self.task.get("x", "0.0")))

    def canonical_text(self) -> str:
        lines = []
        for section in sorted(self.raw):
            for key in sorted(self.raw[section]):
                lines.append(f"{section}.{key}={self.raw[section][key]}")
        return "\n".join(lines)

    def hash(self) -> str:
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()


def load_config(path: str | None, overrides: list[str], seed: int | None) -> Config:
    text = Path(path).read_text() if path else DEFAULT_CONFIG
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    parser.optionxform = str
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config parse failure: {exc}") from exc
    for item in overrides:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"override must look like section.key=value: '{item}'")
        target, value = item.split("=", 1)
        section, key = target.split(".", 1)
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section.strip(), key.strip(), value.strip())
    if seed is not None:
        if not parser.has_section("grid"):
            parser.add_section("grid")
        parser.set("grid", "seed", str(seed))
    return Config(parser, text)


# ---------------------------------------------------------------------------
# artifact plumbing

def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Runner:
    def __init__(self, cfg: Config, outdir: Path, jobs: int):
        self.cfg = cfg
        self.out = outdir
        self.jobs = jobs
        self.artifacts: list[Path] = []
        self.executor = (concurrent.futures.ThreadPoolExecutor(max_workers=jobs)
                         if jobs > 1 else None)

    def path(self, name: str) -> Path:
        p = self.out / name
        self.artifacts.append(p)
        return p

    def finish(self, subcommand: str, extra: dict | None = None) -> Path:
        manifest = {
            "subcommand": subcommand,
            "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "config_hash": self.cfg.hash(),
            "seed": self.cfg.grid.seed,
            "config": self.cfg.canonical_text().splitlines(),
            "artifacts": {p.name: _sha256(p) for p in self.artifacts if p.exists()},
        }
        if extra:
            manifest.update(extra)
        mp = self.out / "manifest.json"
        mp.write_text(json.dumps(manifest, indent=2, sort_keys=True))
        if self.executor is not None:
            self.executor.shutdown()
        return mp


def _cmd_simulate(run: Runner) -> int:
    cfg = run.cfg
    n = int(cfg.task.get("n", 1000))
    samples = mc.sample_endpoints(cfg.model, cfg.grid, n, cfg.x, t=cfg.t,
                                  executor=run.executor)
    with open(run.path("samples.csv"), "w", newline="") as fh:
        fh.write("stream,endpoint\r\n")
        for s, v in enumerate(samples):
            fh.write(f"{s},{format(v, '.17g')}\r\n")
    from .noise import sample_path
    lat = lattice(cfg.model.cov, cfg.grid)
    field = solver.simulate(cfg.model, cfg.grid, sample_path(lat, 0), t=cfg.t)
    field.save(run.path("field_replica0.bin"))
    run.finish("simulate", {"n": n})
    print(f"simulate: {n} endpoint samples, mean {samples.mean():.6g}, "
          f"sd {samples.std():.6g}")
    return 0


def _cmd_density(run: Runner) -> int:
    cfg = run.cfg
    n = int(cfg.task.get("n", 10000))
    y_grid = _parse_grid_expr(cfg.task.get("y_grid", "-1.5:1.5:13"))
    curve = mc.estimate_density(cfg.model, cfg.grid, n, y_grid, t=cfg.t, x=cfg.x,
                                executor=run.executor)
    curve.to_csv(run.path("density.csv"))
    run.finish("density", {"n": n, "bandwidth": curve.bandwidth})
    print(f"density: n={n}, bandwidth={curve.bandwidth:.4g}, "
          f"max p_hat={curve.p_hat.max():.4g}")
    return 0


def _cmd_rate(run: Runner) -> int:
    cfg = run.cfg
    opts = rate_mod.RateOptions(tol_rel=float(cfg.task.get("tol_rel", 1e-6)))
    if "y_grid" in cfg.task and "y" not in cfg.task:
        y_grid = _parse_grid_expr(cfg.task["y_grid"])
        results = rate_mod.rate_profile(cfg.model, cfg.grid, y_grid, t=cfg.t,
                                        x=cfg.x, options=opts)
    else:
        y = float(cfg.task.get("y", 1.0))
        results = [rate_mod.rate_function(cfg.model, cfg.grid, y, t=cfg.t,
                                          x=cfg.x, options=opts)]
    rate_mod.profile_to_csv(results, run.path("rate.csv"))
    best = results[len(results) // 2] if len(results) > 1 else results[0]
    save_control(best.h_star, run.path("h_star.bin"))
    payload = [{"y": r.y, "I": r.I, "residual": r.residual,
                "iterations": r.iterations, "converged": r.converged,
                "gamma_bar": r.gamma_bar_at_hstar} for r in results]
    run.path("rate_result.json").write_text(
        json.dumps({"results": payload, "t": cfg.t, "x": list(map(float, cfg.x))},
                   indent=2, sort_keys=True))
    run.finish("rate")
    for r in results:
        print(f"rate: y={r.y:.6g} I={r.I:.8g} residual={r.residual:.3g} "
              f"converged={r.converged}")
    return 0 if all(r.converged for r in results) else 1


def _cmd_varadhan(run: Runner) -> int:
    cfg = run.cfg
    art_dir = Path(cfg.task.get("rate_artifact", run.out))
    result_file = art_dir / "rate_result.json"
    hstar_file = art_dir / "h_star.bin"
    if not result_file.exists() or not hstar_file.exists():
        print("error: rate profile required (run the rate subcommand first or "
              "point task.rate_artifact at its output)", file=sys.stderr)
        return 2
    stored = json.loads(result_file.read_text())
    y = float(cfg.task.get("y", stored["results"][0]["y"]))
    entry = min(stored["results"], key=lambda r: abs(r["y"] - y))
    if abs(entry["y"] - y) > 1e-9:
        print(f"note: using stored rate value at y={entry['y']:.6g}")
    lat = lattice(cfg.model.cov, cfg.grid)
    h_star = load_control(lat, hstar_file)
    n = int(cfg.task.get("n", 10000))
    sweep = mc.varadhan_sweep(cfg.model, cfg.grid, cfg.eps_list, entry["y"],
                              entry["I"], n=n, t=cfg.t, x=cfg.x, h_star=h_star,
                              executor=run.executor)
    sweep.to_csv(run.path("sweep.csv"))
    # per-row values, tilt diagnostics included; NaN (rows without them) -> null
    rows = [{k: None if isinstance(v, float) and math.isnan(v) else v
             for k, v in dataclasses.asdict(r).items()} for r in sweep.rows]
    run.path("sweep_result.json").write_text(json.dumps(
        {"y": sweep.y, "minus_I": sweep.minus_I, "limit": sweep.limit,
         "limit_se": sweep.limit_se, "raw_last": sweep.raw_last,
         "gap": sweep.gap, "rel_gap": sweep.rel_gap, "rows": rows},
        indent=2, sort_keys=True))
    run.finish("varadhan", {"n": n})
    print(f"varadhan: limit={sweep.limit:.6g} (se {sweep.limit_se:.2g}) vs "
          f"-I={sweep.minus_I:.6g}; rel gap {sweep.rel_gap:.3%}")
    return 0


def _cmd_support(run: Runner) -> int:
    cfg = run.cfg
    budgets = _floats(cfg.task.get("budgets", "1,10,100"))
    n_controls = int(cfg.task.get("n_controls", 6))
    intervals = rate_mod.support_probe(cfg.model, cfg.grid, n_controls, budgets,
                                       t=cfg.t, x=cfg.x, seed=cfg.grid.seed)
    with open(run.path("support_probe.csv"), "w", newline="") as fh:
        fh.write("budget,low,high,width\r\n")
        for b, (lo, hi) in zip(budgets, intervals):
            fh.write(f"{format(b, '.17g')},{format(lo, '.17g')},"
                     f"{format(hi, '.17g')},{format(hi - lo, '.17g')}\r\n")
    n_list = _ints(cfg.task.get("n_list", "3,4,5,6"))
    n = int(cfg.task.get("n", 300))
    theta = float(cfg.task.get("theta", 0.9))
    rows = mc.support_convergence(cfg.model, cfg.grid, n_list, n, theta=theta,
                                  t=cfg.t, x=cfg.x)
    with open(run.path("support_convergence.csv"), "w", newline="") as fh:
        fh.write("n,kept,c1_median\r\n")
        for r in rows:
            fh.write(f"{r['n']},{r['kept']},{format(r['c1_median'], '.17g')}\r\n")
    run.finish("support")
    widths = [hi - lo for lo, hi in intervals]
    print(f"support: widths {['%.4g' % w for w in widths]}, "
          f"c1 medians {['%.4g' % r['c1_median'] for r in rows]}")
    return 0


def _cmd_validate(run: Runner, full: bool = False) -> int:
    from .presets import linear_model, mc_grid, nonlinear_model, rate_grid, tiny_grid
    from .noise import ht_inner, sample_path

    checks: list[tuple[str, bool, str]] = []

    def record(name, ok, detail=""):
        checks.append((name, bool(ok), detail))
        print(f"{'PASS' if ok else 'FAIL'}  {name}  {detail}")

    # kernel closed forms vs independent quadrature
    for spec in (CovarianceSpec("wave", 1, "white"),
                 CovarianceSpec("wave", 3, "riesz", 1.0),
                 CovarianceSpec("heat", 1, "riesz", 0.5)):
        closed = covkernel.g1(spec, 0.8)
        quad = covkernel.g1(spec, 0.8, method="quadrature")
        rel = abs(closed - quad) / closed
        record(f"kernel g1 closed vs quadrature [{spec.label()}]", rel < 1e-3,
               f"rel={rel:.2e}")

    # exponent fits
    for spec, expect in ((CovarianceSpec("wave", 1, "white"), 2.0),
                         (CovarianceSpec("heat", 1, "riesz", 0.5), 0.75)):
        ts = np.geomspace(0.05, 1.0, 8)
        fitted = covkernel.fit_exponent([(t, covkernel.g1(spec, t)) for t in ts])
        record(f"kernel exponent fit [{spec.label()}]", abs(fitted - expect) < 0.01,
               f"fit={fitted:.4f} expect={expect}")

    # gradient checks on the nonlinear defaults
    model = nonlinear_model()
    grid = tiny_grid()
    lat = lattice(model.cov, grid)
    rng = np.random.Generator(np.random.Philox(key=np.array([2, 2], dtype=np.uint64)))
    h = ControlH(lat, 0.4 * rng.standard_normal((grid.nt, lat.ncoords)))
    G = skeleton.gradient_phi(model, grid, h, x=np.zeros(1))
    worst = 0.0
    for _ in range(3):
        g = ControlH(lat, rng.standard_normal((grid.nt, lat.ncoords)))
        delta = 1e-5
        fp = skeleton.solve_phi(model, grid, h + delta * g).at(grid.T, 0.0)
        fm = skeleton.solve_phi(model, grid, h + (-delta) * g).at(grid.T, 0.0)
        fd = (fp - fm) / (2 * delta)
        worst = max(worst, abs(fd - ht_inner(G, g)) / max(abs(fd), 1e-12))
    record("adjoint gradient vs central differences", worst < 1e-4,
           f"max rel={worst:.2e}")
    xi = skeleton.forward_xi(model, grid, h, x=np.zeros(1))
    gap = float(np.max(np.abs(xi.coeffs - G.coeffs)))
    record("adjoint vs forward linearization", gap < 1e-8, f"max abs={gap:.2e}")

    # linear-case oracle end-to-end
    lin = linear_model()
    mg = mc_grid()
    gg = g1_grid(lin.cov, mg, 1.0)
    res = rate_mod.rate_function(lin, mg, 1.0, x=np.zeros(1))
    rel = abs(res.I - 1.0 / (2 * gg)) * 2 * gg
    record("linear rate function vs closed form", res.converged and rel < 1e-3,
           f"I={res.I:.6f} rel={rel:.2e}")
    samples = mc.sample_endpoints(lin, mg, 2000, np.zeros(1), executor=run.executor)
    var = samples.var()
    se = var * math.sqrt(2.0 / len(samples))
    record("linear MC variance vs g1", abs(var - gg) < 3 * se,
           f"var={var:.5f} g1={gg:.5f}")

    if full:
        nl = nonlinear_model()
        sd = float(np.std(mc.sample_endpoints(nl, mg, 4000, np.zeros(1),
                                              executor=run.executor)))
        y = 1.5 * sd
        rr = rate_mod.rate_function(nl, mg, y, x=np.zeros(1))
        sweep = mc.varadhan_sweep(nl, mg, [1.0, 0.7, 0.5, 0.35], y, rr.I,
                                  n=100_000, x=np.zeros(1), h_star=rr.h_star,
                                  executor=run.executor)
        record("nonlinear log-density limit vs -I", sweep.rel_gap < 0.15,
               f"limit={sweep.limit:.4f} -I={-rr.I:.4f} rel={sweep.rel_gap:.3f}")

    ok = all(c[1] for c in checks)
    run.path("validate.json").write_text(json.dumps(
        [{"name": n, "ok": o, "detail": d} for n, o, d in checks],
        indent=2, sort_keys=True))
    run.finish("validate", {"full": full, "all_pass": ok})
    print(f"validate: {'all checks passed' if ok else 'FAILURES present'}")
    return 0 if ok else 1


def _estimate_resources(cfg: Config) -> str:
    lat = lattice(cfg.model.cov, cfg.grid)
    chunk = min(mc.CHUNK, int(cfg.task.get("n", 10000)))
    hist = chunk * cfg.grid.nt * lat.nspec * 16
    fields = chunk * cfg.grid.nt * (cfg.grid.nx ** lat.d) * 8
    flops = 0.5 * cfg.grid.nt ** 2 * lat.nspec * int(cfg.task.get("n", 10000)) * 8
    return (f"estimated workspace ~{(hist + fields) / 1e6:.0f} MB per chunk, "
            f"~{flops / 1e9:.1f} GF of kernel gathers")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="varadhan-lab",
        description="Small-noise SPDE density asymptotics at desk scale.")
    parser.add_argument("subcommand",
                        choices=["simulate", "density", "rate", "varadhan",
                                 "support", "validate"])
    parser.add_argument("--config", help="experiment config file (INI)")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="SECTION.KEY=VALUE",
                        help="override one config value (repeatable)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker threads for replica chunks")
    parser.add_argument("--seed", type=int, default=None,
                        help="override grid.seed")
    parser.add_argument("--out", default=None,
                        help="output directory (default $VARADHAN_LAB_OUT or ./out)")
    parser.add_argument("--dry-run", action="store_true",
                        help="print the resolved config and cost estimates only")
    parser.add_argument("--full", action="store_true",
                        help="validate: include the slow nonlinear cross-validation")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config, args.overrides, args.seed)
    except (ConfigError, VaradhanLabError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    if args.dry_run:
        print(cfg.canonical_text())
        print(f"config hash: {cfg.hash()}")
        print(_estimate_resources(cfg))
        return 0

    outdir = Path(args.out or os.environ.get("VARADHAN_LAB_OUT", "out"))
    outdir.mkdir(parents=True, exist_ok=True)
    run = Runner(cfg, outdir, args.jobs)
    try:
        if args.subcommand == "simulate":
            return _cmd_simulate(run)
        if args.subcommand == "density":
            return _cmd_density(run)
        if args.subcommand == "rate":
            return _cmd_rate(run)
        if args.subcommand == "varadhan":
            return _cmd_varadhan(run)
        if args.subcommand == "support":
            return _cmd_support(run)
        return _cmd_validate(run, full=args.full)
    except VaradhanLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        run.finish(args.subcommand, {"failed": str(exc)})
        return 1


if __name__ == "__main__":
    sys.exit(main())
