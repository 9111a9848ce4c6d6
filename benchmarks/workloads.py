"""The benchmark's three workloads and their correctness checks.

Each workload turns a seed into inputs, runs one operation at a time
through the library's public API (the calls the CLI makes, with no
parallel executor), times the phases of that operation and checks its
outputs.
Why each workload exists is written in README.md next to this file.

Reference values were recorded from the first operation at the reference
seed on the commit that added the benchmark; the per-operation records in
``out/`` print the observed values they are compared with.
"""

from __future__ import annotations

import dataclasses
import math
from time import perf_counter

import numpy as np

from probe import ProbedMap
from varadhanlab import mc, presets, rate
from varadhanlab.errors import VaradhanLabError
from varadhanlab.noise import GridSpec, lattice

REFERENCE_SEED = 7
X0 = np.zeros(1)

#: endpoint mean and sd of operation 0 at the reference seed, per operator
ENSEMBLE_REF = {"wave": (-0.0339285516698494, 0.652899587906391)}
LONG_HORIZON_REF = {"wave": (-0.03139854625827069, 0.6733972441090003),
                    "heat": (-0.04614286221240245, 1.026596148394743)}
#: the converged rate value at y = 1 on mc_grid; it does not depend on the seed
TAIL_Y = 1.0
TAIL_I = 1.2040352514663395
TAIL_EPS = (1.0, 0.7, 0.5, 0.35)
#: validate --full accepts the log-density limit within this relative gap
TAIL_MAX_GAP = 0.15
#: sweep streams used by one tail operation are below this offset
TAIL_STREAM_STRIDE = 1 << 16

#: relative tolerances of the reference checks
SAMPLE_RTOL = 1e-9
#: sd of one chunk may differ from the reference by this share at any seed
SD_BAND = 0.25


def stream_base(seed: int) -> int:
    """First replica stream of a run: distinct seeds use disjoint stream ranges."""
    return seed << 24


@dataclasses.dataclass
class OpRecord:
    """Timing, counts and check results of one workload operation.

    ``wall`` is the seconds of all the operation's timed phases and
    ``nominal`` the same time on the nominal machine (equal to ``wall``
    when no speed clock runs); ``chunks`` holds (replicas, seconds, nominal
    seconds) per timed ensemble chunk.
    """

    wall: float = 0.0
    nominal: float = 0.0
    chunks: list = dataclasses.field(default_factory=list)
    rate_points: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list = dataclasses.field(default_factory=list)
    observed: dict = dataclasses.field(default_factory=dict)

    def fail(self, count: int, what: str) -> None:
        self.failed += count
        self.problems.append(what)


class Workload:
    """Common base: phase timing, optional trace spans and endpoint checks."""

    name = ""
    #: whether untraced runs scale this workload's phases by the speed probe
    probe_scaled = True

    def __init__(self, seed: int, tiny: bool = False, tracer=None, clock=None):
        self.seed = seed
        self.tiny = tiny
        self.tracer = tracer
        self.clock = clock
        self.stream0 = stream_base(seed)
        self.check_refs = seed == REFERENCE_SEED and not tiny

    def setups(self) -> list:
        """(cov, grid) pairs whose lattice and weight table the run builds."""
        raise NotImplementedError

    def computed(self) -> dict:
        """Work per operation computed from array shapes (not measured)."""
        raise NotImplementedError

    def run(self, k: int) -> OpRecord:
        raise NotImplementedError

    def timed(self, rec: OpRecord, phase: str, fn, *args, **kwargs):
        """Call fn, adding its time to rec; return (result, seconds, nominal seconds).

        With a speed clock a probe burst follows the phase; when traced the
        phase is a trace root span.
        """
        if self.clock:
            out, wall, nominal = self.clock.timed(fn, *args, **kwargs)
        else:
            sid = self.tracer.begin("phase." + phase) if self.tracer else -1
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                wall = nominal = perf_counter() - t0
                if self.tracer:
                    self.tracer.finish(sid)
        rec.wall += wall
        rec.nominal += nominal
        return out, wall, nominal

    def chunk(self, rec: OpRecord, model, grid: GridSpec, streams0: int,
              ref: tuple[float, float] | None, sd_ref: float) -> None:
        """One 512-replica endpoint chunk, timed and checked."""
        rec.attempted += 1
        label = model.cov.operator
        try:
            samples, wall, nominal = self.timed(rec, "chunk", mc.sample_endpoints,
                                                model, grid, mc.CHUNK, X0,
                                                stream0=streams0)
        except VaradhanLabError as exc:
            rec.fail(1, f"{label} chunk raised {exc!r}")
            return
        rec.chunks.append((len(samples), wall, nominal))
        mean, sd = float(np.mean(samples)), float(np.std(samples))
        rec.observed[label] = {"mean": mean, "sd": sd}
        problem = check_endpoints(samples, mean, sd, ref, None if self.tiny else sd_ref)
        if problem:
            rec.fail(1, f"{label} chunk: {problem}")


def check_endpoints(samples, mean, sd, ref, sd_ref) -> str:
    """Structural checks for any seed; exact reference values when ref is given.

    The endpoint law is symmetric (sigma even, b odd, zero initial data),
    so the chunk mean must sit within six standard errors of zero.
    """
    n = len(samples)
    if n != mc.CHUNK or not np.all(np.isfinite(samples)):
        return "non-finite or missing samples"
    if not sd > 0.0:
        return "zero spread"
    if sd_ref is not None and abs(sd / sd_ref - 1.0) > SD_BAND:
        return f"sd {sd!r} outside {SD_BAND:.0%} of {sd_ref!r}"
    if abs(mean) > 6.0 * sd / math.sqrt(n):
        return f"mean {mean!r} is more than six standard errors from zero"
    if ref is not None:
        ref_mean, ref_sd = ref
        if abs(mean - ref_mean) > SAMPLE_RTOL * max(abs(ref_mean), ref_sd):
            return f"mean {mean!r} differs from the reference {ref_mean!r}"
        if abs(sd - ref_sd) > SAMPLE_RTOL * ref_sd:
            return f"sd {sd!r} differs from the reference {ref_sd!r}"
    return ""


def _history(model, grid: GridSpec) -> dict:
    """History size and contraction work of one chunk's forward sweep."""
    jt, nspec, batch = grid.nt, lattice(model.cov, grid).nspec, mc.CHUNK
    return {"history_bytes": jt * batch * nspec * 16,
            "history_macs": jt * (jt + 1) // 2 * batch * nspec}


class Ensemble(Workload):
    """One 512-replica chunk of the production MC grid per operation."""

    name = "ensemble"

    def __init__(self, seed, tiny=False, tracer=None, clock=None):
        super().__init__(seed, tiny, tracer, clock)
        self.model = presets.nonlinear_model()
        self.grid = (presets.tiny_grid if tiny else presets.mc_grid)(seed)

    def setups(self):
        return [(self.model.cov, self.grid)]

    def computed(self):
        return {"per_chunk": _history(self.model, self.grid)}

    def run(self, k):
        rec = OpRecord()
        ref = ENSEMBLE_REF["wave"] if self.check_refs and k == 0 else None
        self.chunk(rec, self.model, self.grid, self.stream0 + k * mc.CHUNK,
                   ref, ENSEMBLE_REF["wave"][1])
        return rec


class LongHorizon(Workload):
    """A wave chunk and a heat chunk at nt = 256 per operation."""

    name = "long_horizon"
    # Its 6-second memory-bound chunks already average the machine's drift,
    # and the probe does not follow them: on a shared 2-vCPU Xeon, scaled
    # spreads across seeds were 0.12-0.23 against 0.07-0.10 unscaled, so
    # these runs report measured seconds.
    probe_scaled = False

    def __init__(self, seed, tiny=False, tracer=None, clock=None):
        super().__init__(seed, tiny, tracer, clock)
        base = (presets.tiny_grid if tiny else presets.mc_grid)(seed)
        self.grid = dataclasses.replace(base, nt=32 if tiny else 256)
        self.models = [presets.nonlinear_model(),
                       presets.nonlinear_model(cov=presets.HEAT_WHITE)]

    def setups(self):
        return [(m.cov, self.grid) for m in self.models]

    def computed(self):
        return {"per_chunk": _history(self.models[0], self.grid)}

    def run(self, k):
        rec = OpRecord()
        for model in self.models:
            op = model.cov.operator
            ref = LONG_HORIZON_REF[op] if self.check_refs and k == 0 else None
            self.chunk(rec, model, self.grid, self.stream0 + k * mc.CHUNK,
                       ref, LONG_HORIZON_REF[op][1])
        return rec


class Tail(Workload):
    """One converged rate point at y = 1, then the tilted Varadhan sweep."""

    name = "tail"

    def __init__(self, seed, tiny=False, tracer=None, clock=None):
        super().__init__(seed, tiny, tracer, clock)
        self.model = presets.nonlinear_model()
        self.grid = (presets.tiny_grid if tiny else presets.mc_grid)(seed)
        self.n = 512 if tiny else 4 * mc.CHUNK

    def setups(self):
        return [(self.model.cov, self.grid)]

    def computed(self):
        return {"per_sweep_chunk": _history(self.model, self.grid),
                "sweep_replicas": self.n * len(TAIL_EPS)}

    def run(self, k):
        rec = OpRecord(attempted=1 + len(TAIL_EPS))
        try:
            res, rate_s, _ = self.timed(
                rec, "rate_point", rate.rate_function, self.model, self.grid, TAIL_Y, x=X0)
        except VaradhanLabError as exc:
            rec.fail(rec.attempted, f"rate point raised {exc!r}")
            return rec
        rec.rate_points = 1
        rec.observed.update(I=res.I, rate_point_s=rate_s)
        if not res.converged:
            rec.fail(1, "rate point did not converge")
        elif not self.tiny and abs(res.I - TAIL_I) > 1e-6 * TAIL_I:
            rec.fail(1, f"I = {res.I!r} differs from the reference {TAIL_I!r}")
        args = (self.model, self.grid, TAIL_EPS, TAIL_Y, res.I)
        kwargs = dict(n=self.n, x=X0, h_star=res.h_star,
                      stream0=self.stream0 + k * TAIL_STREAM_STRIDE)
        try:
            if self.clock:
                # time each chunk of the sweep, with probe bursts between them;
                # the sweep's own work outside the chunks gets the chunks' scale
                chunk_map = ProbedMap(self.clock)
                t0, probed0 = perf_counter(), self.clock.probed_s
                sweep = mc.varadhan_sweep(*args, executor=chunk_map, **kwargs)
                net = perf_counter() - t0 - (self.clock.probed_s - probed0)
                rec.chunks.extend(chunk_map.chunks)
                rec.wall += net
                rec.nominal += net * (sum(c[2] for c in chunk_map.chunks)
                                      / sum(c[1] for c in chunk_map.chunks))
            else:
                sweep, wall, _ = self.timed(rec, "sweep", mc.varadhan_sweep,
                                            *args, **kwargs)
                rec.chunks.append((self.n * len(TAIL_EPS), wall, wall))
        except VaradhanLabError as exc:
            rec.fail(len(TAIL_EPS), f"sweep raised {exc!r}")
            return rec
        rows_ok = sum(r.ok for r in sweep.rows)
        rec.observed.update(rel_gap=sweep.rel_gap, rows_ok=rows_ok, limit=sweep.limit)
        if rows_ok < len(TAIL_EPS):
            rec.fail(len(TAIL_EPS) - rows_ok, "sweep rows not ok: "
                     + "; ".join(r.note for r in sweep.rows if not r.ok))
        elif not self.tiny and not sweep.rel_gap < TAIL_MAX_GAP:
            rec.fail(1, f"rel_gap {sweep.rel_gap!r} >= {TAIL_MAX_GAP}")
        return rec


WORKLOADS = {w.name: w for w in (Ensemble, LongHorizon, Tail)}
