"""Outside-in layer tracing for the benchmark.

A Tracer wraps the public functions of each layer for the duration of one
``installed()`` block and restores every wrapped attribute afterwards, so
untraced runs execute the unmodified library.  Spans (name, start, end,
parent span, operation id) are kept in compact in-memory arrays and
reduced to per-layer self times and counts at the end; ``save`` writes
them out.

Self time is a span's duration minus the time its child spans cover.
Spans whose name starts with ``phase.`` are roots opened by the harness
around a timed phase; every other span is a layer, and coverage is the
layers' summed self time over the phases' summed wall time.
"""

from __future__ import annotations

import functools
import math
import sys
import types
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np

PHASE_PREFIX = "phase."


def _package_bindings(fn):
    """Every (module, attribute) of the package currently bound to fn."""
    for mod in list(sys.modules.values()):
        if mod is not None and mod.__name__.split(".")[0] == "varadhanlab":
            for key, val in list(vars(mod).items()):
                if val is fn:
                    yield mod, key


def _forward_counts(tracer, args, kwargs):
    """Shape-derived work of one MildEngine.forward call (computed, not measured)."""
    eng = args[0]
    batch = kwargs.get("batch_shape", args[3] if len(args) > 3 else ())
    b = math.prod(batch)
    jt, nspec = eng.jt, eng.lat.nspec
    tracer.counts["solver.forward.steps"] += jt
    # step j contracts j + 1 lags of the (jt, B, nspec) complex history
    tracer.counts["solver.forward.history_macs"] += jt * (jt + 1) // 2 * b * nspec
    hist_bytes = jt * b * nspec * 16
    tracer.counts["solver.forward.history_bytes"] = max(
        tracer.counts["solver.forward.history_bytes"], hist_bytes)


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("H")
        self.op = array("q")
        self.current_op = -1
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.tilts: list[dict] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------

    def begin(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        sid = len(self.start)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name.append(nid)
        self.op.append(self.current_op)
        self.end.append(math.nan)
        self._stack.append(sid)
        self.start.append(perf_counter())
        return sid

    def finish(self, sid: int) -> None:
        self.end[sid] = perf_counter()
        self._stack.pop()

    def _span(self, name, fn, label=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer.begin(name if label is None else label(args))
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.finish(sid)
            if after is not None:
                after(args, kwargs, out)
            return out

        return wrapper

    def _counter(self, key, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- wrapping -----------------------------------------------------------

    def targets(self):
        """(owner, attribute, wrapper factory) for every traced entry point."""
        import numpy.fft
        import scipy.optimize
        from varadhanlab import funcs, mc, noise, rate, skeleton, solver

        counts = self.counts

        def streams(args, kwargs, out):
            counts["noise.sample_increments.streams"] += len(args[1])

        def points(args, kwargs, out):
            src = out if out.dtype.kind == "f" else args[0]
            counts["fft.points"] += src.size

        def forward(args, kwargs, out):
            _forward_counts(self, args, kwargs)

        def tilt(args, kwargs, out):
            self.tilts.append(dict(out[2]))

        def span(name, **kw):
            return lambda fn: self._span(name, fn, **kw)

        return [
            (noise, "sample_increments", span("noise.sample_increments", after=streams)),
            (noise.Lattice, "synthesize", span("noise.synthesize")),
            (noise.Lattice, "extract", span("noise.extract")),
            (solver.MildEngine, "forward",
             span("solver.forward",
                  label=lambda a: "solver.forward." + a[0].lat.cov.operator,
                  after=forward)),
            (solver.MildEngine, "adjoint", span("solver.adjoint")),
            (numpy.fft, "rfftn", span("fft", after=points)),
            (numpy.fft, "irfftn", span("fft", after=points)),
            (funcs.ScalarFunc, "__call__", span("funcs.eval")),
            (funcs.ScalarFunc, "deriv", span("funcs.eval")),
            (skeleton, "solve_phi", span("skeleton.solve_phi")),
            (skeleton, "gradient_phi", span("skeleton.gradient_phi")),
            (rate, "rate_function", span("rate.rate_function")),
            (mc, "tilted_density", span("mc.tilted_density", after=tilt)),
            # one L-BFGS solve per augmented-Lagrangian outer iteration
            (scipy.optimize, "minimize", lambda fn: self._counter("rate.outer_iters", fn)),
        ]

    @contextmanager
    def installed(self):
        """Install every wrapper; restore the original attributes on exit."""
        if self._saved:
            raise RuntimeError("tracer is already installed")
        try:
            for owner, attr, make in self.targets():
                original = vars(owner)[attr]
                sites = [(owner, attr)]
                if isinstance(owner, types.ModuleType) and owner.__name__.startswith("varadhanlab"):
                    sites = list(_package_bindings(original))
                wrapped = make(original)
                for mod, key in sites:
                    self._saved.append((mod, key, vars(mod)[key]))
                    setattr(mod, key, wrapped)
            yield self
        finally:
            while self._saved:
                owner, attr, original = self._saved.pop()
                setattr(owner, attr, original)

    # -- reduction ----------------------------------------------------------

    def arrays(self):
        """Span table as numpy arrays: (start, end, parent, name id, op id)."""
        return (np.array(self.start, dtype=float), np.array(self.end, dtype=float),
                np.array(self.parent, dtype=np.int64),
                np.array(self.name, dtype=np.int64),
                np.array(self.op, dtype=np.int64))

    def summary(self) -> dict:
        """Per span name: total self time, total duration and call count."""
        start, end, parent, name, _ = self.arrays()
        if self._stack:
            raise RuntimeError("spans still open")
        dur = end - start
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child], minlength=len(dur))
        self_t = dur - covered
        out = {}
        for nid, label in enumerate(self.names):
            sel = name == nid
            out[label] = {"self_s": float(self_t[sel].sum()),
                          "total_s": float(dur[sel].sum()),
                          "calls": int(sel.sum())}
        return out

    def coverage(self, summary: dict) -> float:
        """Layer self time over the wall time of the harness's phases."""
        wall = sum(v["total_s"] for k, v in summary.items() if k.startswith(PHASE_PREFIX))
        named = sum(v["self_s"] for k, v in summary.items()
                    if not k.startswith(PHASE_PREFIX))
        return named / wall if wall > 0 else 0.0

    def save(self, path) -> None:
        start, end, parent, name, op = self.arrays()
        np.savez_compressed(path, run_id=np.array(self.run_id), names=np.array(self.names),
                            start=start, end=end, parent=parent, name=name, op=op)
