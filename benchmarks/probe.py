"""Machine-speed probe that scales the benchmark's timings to a nominal machine.

The benchmark runs on shared machines whose speed drifts by tens of
percent within a minute, as neighbours load the cores, caches and memory
bus.  A fixed kernel written in numpy only (so no change to the library
can move it) is timed in a burst after every timed phase, about a tenth as
long as the phase, and the phase's seconds are multiplied by NOMINAL_S
over the mean of the median probe times of the bursts just before and just
after it.  The kernel mixes the two kinds of work the library does:
whole-chunk array passes (a complex history contraction, real FFTs and
transcendental coefficients over 512 replicas) and single-replica steps,
where call overhead dominates.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

#: about the median probe time on the machine the benchmark was defined on
#: (shared 2-vCPU Intel Xeon, 300 MiB L3, numpy 2.4.6)
NOMINAL_S = 0.03
#: probe seconds per second of the phase a burst follows
DUTY = 0.1


class SpeedClock:
    """Probe bursts between timed phases, and the nominal times they give."""

    def __init__(self):
        rng = np.random.default_rng(0)
        shape = (32, 512, 65)
        self.hist = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        self.weights = rng.standard_normal((32, 65))
        self.field = rng.standard_normal((512, 128))
        self.samples: list[float] = []
        self.last = NOMINAL_S
        self.probed_s = 0.0

    def kernel(self) -> float:
        t0 = perf_counter()
        for _ in range(3):
            np.einsum("lf,l...f->...f", self.weights, self.hist)
            spec = np.fft.rfftn(self.field, axes=(-1,))
            np.fft.irfftn(spec, s=(128,), axes=(-1,))
            np.cos(self.field) + np.tanh(self.field)
        row, hist_row = self.field[0], self.hist[:, 0]
        for _ in range(100):
            spec = np.fft.rfftn(row, axes=(-1,))
            np.fft.irfftn(spec, s=(128,), axes=(-1,))
            np.cos(row)
            np.einsum("lf,lf->f", self.weights, hist_row)
        return perf_counter() - t0

    def burst(self, seconds: float) -> float:
        """Probe for at least `seconds`, and at least once; return the median."""
        t0 = perf_counter()
        burst = [self.kernel()]
        while perf_counter() < t0 + seconds:
            burst.append(self.kernel())
        self.probed_s += perf_counter() - t0
        self.samples.extend(burst)
        self.last = statistics.median(burst)
        return self.last

    def scale(self) -> float:
        """Nominal seconds per measured second at the latest burst."""
        return NOMINAL_S / self.last

    def timed(self, phase, *args, **kwargs):
        """Run phase(*args, **kwargs), then a burst.

        Returns (result, seconds, nominal-machine seconds); the burst before
        the phase is the one that ended the previous phase or the run's
        opening burst.
        """
        before = self.last
        t0 = perf_counter()
        out = phase(*args, **kwargs)
        wall = perf_counter() - t0
        after = self.burst(DUTY * wall)
        return out, wall, wall * 2.0 * NOMINAL_S / (before + after)


class ProbedMap:
    """Serial stand-in for the library's executor hook.

    Maps the chunks in order in the calling thread, exactly as the library
    does without an executor, but times each chunk, follows it with a probe
    burst and records (replicas, seconds, nominal seconds) per chunk.
    """

    def __init__(self, clock: SpeedClock):
        self.clock = clock
        self.chunks: list[tuple[int, float, float]] = []

    def map(self, fn, jobs):
        for job in jobs:
            out, wall, nominal = self.clock.timed(fn, job)
            self.chunks.append((len(job), wall, nominal))
            yield out
