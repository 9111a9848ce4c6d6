"""Batch front end: config parsing, experiment orchestration, artifact emission.

Configs are flat ``key = value`` lines grouped in named sections (INI
style), chosen over nested formats for diff-friendliness; any key can be
overridden with repeated ``--set section.key=value`` flags, and removed
with an empty value (``--set task.y=``).  Every run writes a JSON manifest
carrying the seed and a hash of the resolved config, and artifacts
regenerate bit-identically from those regardless of ``--jobs``.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import configparser
import contextlib
import csv
import dataclasses
import datetime
import hashlib
import json
import math
import os
import re
import sys
from functools import partial
from pathlib import Path
from time import perf_counter

import numpy as np

from . import covkernel, mc, rate as rate_mod, skeleton, solver
from .covkernel import CovarianceSpec
from .errors import BlowUpError, ConfigError, VaradhanLabError
from .funcs import parse_func
from .noise import ControlH, GridSpec, lattice, save_control
from .solver import BumpInitial, ModelSpec, ZeroInitial, g1_grid

_SCHEMA = {
    "model": {"operator", "d", "kind", "beta", "sigma", "b", "w", "eps", "eps_list"},
    "grid": {"L", "nx", "nt", "nk", "T", "seed"},
    "task": {"t", "x", "y", "y_grid", "n", "n_list", "budgets", "theta", "tol_rel"},
}

#: replicas per subcommand when task.n is absent
_DEFAULT_N = {"simulate": 1000, "density": 10_000, "varadhan": 10_000, "support": 300}

DEFAULT_CONFIG = """\
[model]
operator = wave
d = 1
kind = white
sigma = const:1.0
b = zero
w = zero
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
y = 1.0
y_grid = -1.5:1.5:13
n_list = 3,4,5,6
budgets = 1,10,100
theta = 0.9
tol_rel = 1e-6
"""


def _parse_ini(text: str) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    parser.optionxform = str
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config parse failure: {exc}") from exc
    return parser


#: the built-in values, which also stand in for keys a config file leaves out
_DEFAULTS = {name: dict(section) for name, section in _parse_ini(DEFAULT_CONFIG).items()
             if name != configparser.DEFAULTSECT}


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

    def value(self, section: str, key: str) -> str | None:
        """The raw text of section.key, else its built-in default, else None; task.y
        has none beside a task.y_grid (rate profiles it; varadhan refuses it)."""
        raw = self.raw.get(section, {})
        if (section, key) == ("task", "y") and "y_grid" in raw:
            return raw.get(key)
        return raw.get(key, _DEFAULTS[section].get(key))

    def _validate_keys(self, source_text: str):
        for section, items in self.raw.items():
            if section not in _SCHEMA:
                raise ConfigError(f"unknown section [{section}]")
            for key in items:
                if key not in _SCHEMA[section]:
                    lineno = _key_line(source_text, section, key)
                    raise ConfigError(
                        f"line {lineno}: unknown key '{key}' in [{section}]")

    def _build_model(self) -> ModelSpec:
        m = partial(self.value, "model")
        kind, beta = m("kind"), m("beta")
        if kind == "riesz" and beta is None:
            raise ConfigError("model.kind = riesz needs model.beta")
        beta = float(beta) if kind == "riesz" else None
        cov = CovarianceSpec(m("operator"), int(m("d")), kind, beta)
        w_text = m("w")
        if w_text == "zero":
            w = ZeroInitial()
        elif w_text.startswith("bump"):
            args = _floats(w_text.partition(":")[2]) if ":" in w_text else []
            names = ["amp0", "width0", "amp1", "width1", "center"]
            w = BumpInitial(**dict(zip(names, args)))
        else:
            raise ConfigError(f"unknown initial data '{w_text}'")
        return ModelSpec(cov, parse_func(m("sigma")), parse_func(m("b")), w,
                         float(m("eps")))

    def _build_grid(self) -> GridSpec:
        g = partial(self.value, "grid")
        return GridSpec(L=float(g("L")), nx=int(g("nx")), nt=int(g("nt")),
                        T=float(g("T")), nk=int(g("nk")), seed=int(g("seed")))

    @property
    def eps_list(self) -> list[float]:
        return _floats(self.value("model", "eps_list"))

    @property
    def t(self) -> float:
        return float(self.task.get("t", self.grid.T))

    @property
    def x(self) -> np.ndarray | None:
        """The observation point; None (the origin of R^d) when task.x is absent."""
        return np.array(_floats(self.task["x"])) if "x" in self.task else None

    def replicas(self, subcommand: str) -> int:
        return int(self.task.get("n", _DEFAULT_N[subcommand]))

    def canonical_text(self) -> str:
        """Every schema key at its resolved value (value), 'section.key=' where none."""
        return "\n".join(f"{section}.{key}={self.value(section, key) or ''}"
                         for section in sorted(_SCHEMA) for key in sorted(_SCHEMA[section]))

    def hash(self) -> str:
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()


def _key_line(text: str, section: str, key: str):
    """Line number of key inside [section] of an INI text ('?' when absent,
    e.g. for a key set only by an override)."""
    current = None
    for lineno, line in enumerate(text.splitlines(), 1):
        header = re.match(r"\[(.+)\]", line.strip())
        if header:
            current = header.group(1)
        elif current == section and re.split("[=:]", line, maxsplit=1)[0].strip() == key:
            return lineno
    return "?"


def load_config(path: str | None, overrides: list[str]) -> Config:
    text = Path(path).read_text() if path else DEFAULT_CONFIG
    parser = _parse_ini(text)
    for item in overrides:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"override must look like section.key=value: '{item}'")
        target, value = item.split("=", 1)
        section, key = (part.strip() for part in target.split(".", 1))
        if not value.strip():
            # an empty value removes the key, e.g. task.y so task.y_grid applies
            if key not in _SCHEMA.get(section, ()):
                raise ConfigError(f"override removes unknown key '{section}.{key}'")
            if parser.has_section(section):
                parser.remove_option(section, key)
            continue
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section, key, value.strip())
    return Config(parser, text)


# ---------------------------------------------------------------------------
# artifact plumbing

def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_csv(path: Path, header: list[str], rows) -> None:
    """An artifact table: every float as .17g, every other value as is."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([format(v, ".17g") if isinstance(v, float) else v
                          for v in row] for row in rows)


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True))


def _rate_fields(r: rate_mod.RateResult) -> dict:
    """One rate point's value and solver diagnostics, as its JSON artifacts give them."""
    return {"y": r.y, "I": r.I, "residual": r.residual, "iterations": r.iterations,
            "converged": r.converged, "gamma_bar": r.gamma_bar_at_hstar,
            "stationarity": r.stationarity, "skeleton_solves": r.skeleton_solves,
            "adjoint_sweeps": r.adjoint_sweeps}


class Runner:
    """One subcommand's run: its artifacts, its worker pool and the wall
    seconds of each library stage, written to manifest.json by finish."""

    def __init__(self, cfg: Config, outdir: Path, jobs: int):
        self.cfg = cfg
        self.out = outdir
        self.jobs = jobs
        self.artifacts: list[Path] = []
        self.profile: dict[str, float] = {}
        self.executor = (concurrent.futures.ThreadPoolExecutor(max_workers=jobs)
                         if jobs > 1 else None)

    def path(self, name: str) -> Path:
        p = self.out / name
        self.artifacts.append(p)
        return p

    @contextlib.contextmanager
    def stage(self, name: str):
        """Add the wall time of the enclosed library calls to profile[name],
        also when they raise."""
        start = perf_counter()
        try:
            yield
        finally:
            self.profile[name] = self.profile.get(name, 0.0) + perf_counter() - start

    def finish(self, subcommand: str, extra: dict | None = None) -> Path:
        manifest = {
            "subcommand": subcommand,
            "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "config_hash": self.cfg.hash(),
            "seed": self.cfg.grid.seed,
            "config": self.cfg.canonical_text().splitlines(),
            "artifacts": {p.name: _sha256(p) for p in self.artifacts if p.exists()},
            "profile": self.profile,
        }
        if extra:
            manifest.update(extra)
        mp = self.out / "manifest.json"
        _write_json(mp, manifest)
        if self.executor is not None:
            self.executor.shutdown()
        return mp


def _cmd_simulate(run: Runner) -> int:
    cfg = run.cfg
    n = cfg.replicas("simulate")
    with run.stage("sampling"):
        samples = mc.sample_endpoints(cfg.model, cfg.grid, n, cfg.x, t=cfg.t,
                                      executor=run.executor)
    _write_csv(run.path("samples.csv"), ["stream", "endpoint"], enumerate(samples))
    from .noise import sample_path
    with run.stage("replica_field"):
        lat = lattice(cfg.model.cov, cfg.grid)
        field = skeleton.solve_phi(cfg.model, cfg.grid,
                                   sample_path(lat, 0).control(cfg.model.eps), t=cfg.t)
    field.save(run.path("field_replica0.bin"))
    run.finish("simulate", {"n": n})
    print(f"simulate: {n} endpoint samples, mean {samples.mean():.6g}, "
          f"sd {samples.std():.6g}")
    return 0


def _cmd_density(run: Runner) -> int:
    cfg = run.cfg
    n = cfg.replicas("density")
    y_grid = _parse_grid_expr(cfg.value("task", "y_grid"))
    with run.stage("density"):
        curve = mc.estimate_density(cfg.model, cfg.grid, n, y_grid, t=cfg.t, x=cfg.x,
                                    executor=run.executor)
    _write_csv(run.path("density.csv"), ["eps", "y", "p_hat", "se", "log_p", "log_se"],
               [(curve.eps, *row) for row in zip(curve.y_grid, curve.p_hat, curve.se,
                                                 curve.log_p, curve.log_se)])
    run.finish("density", {"n": n, "bandwidth": curve.bandwidth})
    print(f"density: n={n}, bandwidth={curve.bandwidth:.4g}, "
          f"max p_hat={curve.p_hat.max():.4g}")
    return 0


def _cmd_rate(run: Runner) -> int:
    cfg = run.cfg
    tol_rel = float(cfg.value("task", "tol_rel"))
    with run.stage("rate"):
        y = cfg.value("task", "y")
        if y is None:
            y_grid = _parse_grid_expr(cfg.value("task", "y_grid"))
            results = rate_mod.rate_profile(cfg.model, cfg.grid, y_grid, t=cfg.t,
                                            x=cfg.x, tol_rel=tol_rel)
        else:
            results = [rate_mod.rate_function(cfg.model, cfg.grid, float(y), t=cfg.t,
                                              x=cfg.x, tol_rel=tol_rel)]
    _write_csv(run.path("rate.csv"),
               ["y", "I", "residual", "iterations", "gamma_bar", "converged"],
               [(r.y, r.I, r.residual, r.iterations, r.gamma_bar_at_hstar,
                 int(r.converged)) for r in results])
    # each entry's minimiser in a file of its own, for use outside the pipeline
    h_files = [run.path(f"h_star_{i:03d}.bin") for i in range(len(results))]
    for r, f in zip(results, h_files):
        save_control(r.h_star, f)
    payload = [{**_rate_fields(r), "h_star": f.name} for r, f in zip(results, h_files)]
    x = lattice(cfg.model.cov, cfg.grid).point(cfg.x)
    # a varadhan run here overwrites the manifest, so the results keep the hash
    _write_json(run.path("rate_result.json"),
                {"results": payload, "t": cfg.t, "x": list(map(float, x)),
                 "config_hash": cfg.hash()})
    run.finish("rate")
    for r in results:
        print(f"rate: y={r.y:.6g} I={r.I:.8g} residual={r.residual:.3g} "
              f"converged={r.converged}")
    return 0 if all(r.converged for r in results) else 1


def _cmd_varadhan(run: Runner) -> int:
    cfg = run.cfg
    y = cfg.value("task", "y")
    if y is None:
        raise ConfigError("varadhan compares one point: set task.y, not task.y_grid")
    n = cfg.replicas("varadhan")
    with run.stage("rate"):
        rr = rate_mod.rate_function(cfg.model, cfg.grid, float(y), t=cfg.t, x=cfg.x,
                                    tol_rel=float(cfg.value("task", "tol_rel")))
    rate_point = _rate_fields(rr)
    if not rr.converged:
        # the tilt is this model's own minimiser at y, or there is no sweep
        run.finish("varadhan", {"n": n, "rate": rate_point})
        print(f"error: the rate point at y={rr.y:.6g} did not converge "
              f"(residual {rr.residual:.3g}); no replica drawn", file=sys.stderr)
        return 1
    with run.stage("sweep"):
        sweep = mc.varadhan_sweep(cfg.model, cfg.grid, cfg.eps_list, rr.y, rr.I, n=n,
                                  t=cfg.t, x=cfg.x, h_star=rr.h_star,
                                  executor=run.executor)
    _write_csv(run.path("sweep.csv"),
               ["eps", "y", "p_hat", "se", "log_p", "eps2_log_p", "minus_I", "gap",
                "ess", "log_mean_weight", "bandwidth"],
               [(r.eps, sweep.y, r.p_hat, r.se, r.log_p, r.eps2_log_p, sweep.minus_I,
                 r.eps2_log_p - sweep.minus_I, r.ess, r.log_mean_weight, r.bandwidth)
                for r in sweep.rows])
    # per-row values, tilt diagnostics included; NaN (rows without them) -> null
    rows = [{k: None if isinstance(v, float) and math.isnan(v) else v
             for k, v in dataclasses.asdict(r).items()} for r in sweep.rows]
    _write_json(run.path("sweep_result.json"),
                {"y": sweep.y, "minus_I": sweep.minus_I, "limit": sweep.limit,
                 "limit_se": sweep.limit_se, "raw_last": sweep.raw_last,
                 "gap": sweep.gap, "rel_gap": sweep.rel_gap, "rows": rows,
                 "rate": rate_point})
    run.finish("varadhan", {"n": n})
    print(f"varadhan: limit={sweep.limit:.6g} (se {sweep.limit_se:.2g}) vs "
          f"-I={sweep.minus_I:.6g}; rel gap {sweep.rel_gap:.3%}")
    return 0


def _cmd_support(run: Runner) -> int:
    cfg = run.cfg
    budgets = _floats(cfg.value("task", "budgets"))
    n_list = _ints(cfg.value("task", "n_list"))
    theta = float(cfg.value("task", "theta"))
    n = cfg.replicas("support")
    # bad levels, replica counts or theta fail here, before the probe's skeleton solves
    mc._check_support_levels(cfg.model, cfg.grid, n_list, n, theta)
    with run.stage("support_probe"):
        intervals = rate_mod.support_probe(cfg.model, cfg.grid, budgets,
                                           t=cfg.t, x=cfg.x)
    with run.stage("support_convergence"):
        rows = mc.support_convergence(cfg.model, cfg.grid, n_list, n, theta=theta,
                                      t=cfg.t, x=cfg.x)
    # both tables are written once both stages ran, so a failed run leaves none
    _write_csv(run.path("support_probe.csv"), ["budget", "low", "high", "width"],
               [(b, lo, hi, hi - lo) for b, (lo, hi) in zip(budgets, intervals)])
    _write_csv(run.path("support_convergence.csv"), ["n", "kept", "c1_median"],
               [(r["n"], r["kept"], r["c1_median"]) for r in rows])
    run.finish("support")
    widths = [hi - lo for lo, hi in intervals]
    print(f"support: widths {['%.4g' % w for w in widths]}, "
          f"c1 medians {['%.4g' % r['c1_median'] for r in rows]}")
    return 0


def _cmd_validate(run: Runner, full: bool = False) -> int:
    with run.stage("validate"):
        checks = _validation_checks(run.executor, full)
    ok = all(c[1] for c in checks)
    _write_json(run.path("validate.json"),
                [{"name": n, "ok": o, "detail": d} for n, o, d in checks])
    run.finish("validate", {"full": full, "all_pass": ok})
    print(f"validate: {'all checks passed' if ok else 'FAILURES present'}")
    return 0 if ok else 1


def _validation_checks(executor, full: bool) -> list[tuple[str, bool, str]]:
    """Run the validate checks; (name, ok, detail) of each, printed as it ends."""
    from .presets import linear_model, mc_grid, nonlinear_model, tiny_grid
    from .noise import ht_inner

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

    # exponent fits: g1(t) ~ t^gamma
    for spec in (CovarianceSpec("wave", 1, "white"),
                 CovarianceSpec("heat", 1, "riesz", 0.5)):
        expect = spec.exponents[0]
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
    G = skeleton.gradient_phi(model, grid, h)
    worst = 0.0
    for _ in range(3):
        g = ControlH(lat, rng.standard_normal((grid.nt, lat.ncoords)))
        delta = 1e-5
        fp = skeleton.solve_phi(model, grid, h + delta * g).endpoint()
        fm = skeleton.solve_phi(model, grid, h + (-delta) * g).endpoint()
        fd = (fp - fm) / (2 * delta)
        worst = max(worst, abs(fd - ht_inner(G, g)) / max(abs(fd), 1e-12))
    record("adjoint gradient vs central differences", worst < 1e-4,
           f"max rel={worst:.2e}")
    xi = skeleton.forward_xi(model, grid, h)
    gap = float(np.max(np.abs(xi.coeffs - G.coeffs)))
    record("adjoint vs forward linearization", gap < 1e-8, f"max abs={gap:.2e}")

    # linear-case oracle end-to-end
    lin = linear_model()
    mg = mc_grid()
    gg = g1_grid(lin.cov, mg, 1.0)
    res = rate_mod.rate_function(lin, mg, 1.0)
    rel = abs(res.I - 1.0 / (2 * gg)) * 2 * gg
    record("linear rate function vs closed form", res.converged and rel < 1e-3,
           f"I={res.I:.6f} rel={rel:.2e}")
    samples = mc.sample_endpoints(lin, mg, 2000, None, executor=executor)
    var = samples.var()
    se = var * math.sqrt(2.0 / len(samples))
    record("linear MC variance vs g1", abs(var - gg) < 3 * se,
           f"var={var:.5f} g1={gg:.5f}")

    if full:
        nl = nonlinear_model()
        sd = float(np.std(mc.sample_endpoints(nl, mg, 4000, None,
                                              executor=executor)))
        y = 1.5 * sd
        rr = rate_mod.rate_function(nl, mg, y)
        sweep = mc.varadhan_sweep(nl, mg, [1.0, 0.7, 0.5, 0.35], y, rr.I,
                                  n=100_000, h_star=rr.h_star,
                                  executor=executor)
        record("nonlinear log-density limit vs -I", rr.converged and sweep.rel_gap < 0.15,
               f"limit={sweep.limit:.4f} -I={-rr.I:.4f} rel={sweep.rel_gap:.3f}")
    return checks


def _estimate_resources(cfg: Config, subcommand: str = "simulate") -> tuple[int, float]:
    """(workspace bytes per chunk, history-sum flops of the run), from shapes.

    A chunk runs its sub-batches in one workspace sized for the first: its
    size and buffers come from solver._sub_batch and _workspace at the time
    index jt of task.t, the rules the engine itself runs by.  The wave
    history sum costs O(jt^2) per frequency and replica, the heat recursion
    O(jt).  The run draws task.n replicas, or the subcommand's default.
    """
    lat, jt = lattice(cfg.model.cov, cfg.grid), cfg.grid.time_index(cfg.t)
    n = cfg.replicas(subcommand)
    if n < 1:
        raise ValueError(f"{subcommand} needs n >= 1 replicas")
    size = solver._sub_batch(lat, jt, min(mc.CHUNK, n))[0]
    workspace = solver._workspace(lat, jt, size)(size).values()   # pages never touched
    per_mode = jt if cfg.model.cov.operator == "heat" else 0.5 * jt ** 2
    return sum(a.nbytes for a in workspace), per_mode * lat.nspec * n * 8.0


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
                        help="override one config value, or remove it with an "
                             "empty value (repeatable)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker threads for replica chunks")
    parser.add_argument("--out", default=None,
                        help="output directory (default $VARADHAN_LAB_OUT or ./out)")
    parser.add_argument("--dry-run", action="store_true",
                        help="print the resolved config and cost estimates only")
    parser.add_argument("--full", action="store_true",
                        help="validate: include the slow nonlinear cross-validation")
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error(f"--jobs must be at least 1, got {args.jobs}")

    try:
        cfg = load_config(args.config, args.overrides)
    except (ConfigError, VaradhanLabError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    if args.dry_run:
        print(cfg.canonical_text())
        print(f"config hash: {cfg.hash()}")
        if args.subcommand in _DEFAULT_N:        # the subcommands that draw replicas
            try:
                workspace, flops = _estimate_resources(cfg, args.subcommand)
            except (VaradhanLabError, ValueError) as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
            print(f"estimated workspace ~{workspace / 1e6:.0f} MB per chunk, "
                  f"~{flops / 1e9:.1f} GF of history sums")
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
    except (VaradhanLabError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        failure = {"failed": str(exc), "error": type(exc).__name__}
        if isinstance(exc, BlowUpError):
            failure["step"] = exc.step
        run.finish(args.subcommand, failure)
        return 1


if __name__ == "__main__":
    sys.exit(main())
