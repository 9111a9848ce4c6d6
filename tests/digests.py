"""Print sha256 digests of the ensemble outputs that a bit-identical change keeps.

Run from the repository root (pytest does not collect this file):

    PYTHONPATH=src python tests/digests.py

Each line is a name and the sha256 of the float64 bytes (``tobytes()``, C
order) of one output, seed 7 throughout, with stream0 = 7 << 24 as in the
benchmark's operation 0:

- ``ensemble``: ``sample_endpoints(nonlinear_model(), mc_grid(7), 512, None,
  stream0=7 << 24)``, the ``ensemble`` workload's first chunk.
- ``long_horizon wave`` and ``long_horizon heat``: the same call on
  ``mc_grid(7)`` with nt = 256, for ``nonlinear_model()`` and
  ``nonlinear_model(HEAT_WHITE)``, the ``long_horizon`` workload's first
  operation.
- ``tail rate point``: the rate value I followed by h*.coeffs of
  ``rate_function(nonlinear_model(), mc_grid(7), 1.0, x=[0])``.
- ``tail sweep rows``: ``varadhan_sweep(nonlinear_model(), mc_grid(7),
  (1.0, 0.7, 0.5, 0.35), 1.0, I, n=2048, x=[0], h_star=h*, stream0=7 << 24)``,
  the ``tail`` workload's first sweep, as the (4, 9) array of each row's
  (eps, p_hat, se, log_p, eps2_log_p, eps2_log_se, ess, log_mean_weight,
  bandwidth).
- ``tilted t=0.5 samples`` and ``tilted t=0.5 dots``: ``sample_endpoints(
  nonlinear_model().with_eps(0.5), mc_grid(7), 700, [0], t=0.5, h=h*)``, a
  tilted sweep that stops at jt = 32 < nt, then girsanov's draws.

The run takes about ten seconds on 2 vCPUs.
"""

import dataclasses
import hashlib

import numpy as np

from varadhanlab import mc, presets, rate

SEED = 7
STREAM0 = SEED << 24
X0 = np.zeros(1)


def digest(*arrays) -> str:
    return hashlib.sha256(b"".join(np.ascontiguousarray(a, dtype=np.float64).tobytes()
                                   for a in arrays)).hexdigest()


def main() -> None:
    model, grid = presets.nonlinear_model(), presets.mc_grid(SEED)
    long = dataclasses.replace(grid, nt=256)
    print("ensemble", digest(mc.sample_endpoints(model, grid, mc.CHUNK, None,
                                                 stream0=STREAM0)))
    for name, cov in (("wave", presets.WAVE_WHITE), ("heat", presets.HEAT_WHITE)):
        print("long_horizon", name, digest(mc.sample_endpoints(
            presets.nonlinear_model(cov), long, mc.CHUNK, X0, stream0=STREAM0)))
    res = rate.rate_function(model, grid, 1.0, x=X0)
    print("tail rate point", digest([res.I], res.h_star.coeffs))
    sweep = mc.varadhan_sweep(model, grid, (1.0, 0.7, 0.5, 0.35), 1.0, res.I, n=4 * mc.CHUNK,
                              x=X0, h_star=res.h_star, stream0=STREAM0)
    print("tail sweep rows", digest([[r.eps, r.p_hat, r.se, r.log_p, r.eps2_log_p,
                                      r.eps2_log_se, r.ess, r.log_mean_weight, r.bandwidth]
                                     for r in sweep.rows]))
    samples, dots = mc.sample_endpoints(model.with_eps(0.5), grid, 700, X0, t=0.5,
                                        h=res.h_star)
    print("tilted t=0.5 samples", digest(samples))
    print("tilted t=0.5 dots", digest(dots))


if __name__ == "__main__":
    main()
