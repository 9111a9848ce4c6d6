"""Numerical laboratory for small-noise SPDE density asymptotics.

Simulates wave/heat equations driven by spatially correlated Gaussian
noise on a periodic grid, solves the controlled skeleton equation and its
adjoint to compute variational rate functions, and estimates endpoint
densities by (optionally tilted) Monte Carlo to check the small-noise
log-density limit at desk scale.
"""

from .covkernel import (CovarianceSpec, fit_exponent, fourier_lambda, g1,
                        spectral_density)
from .errors import (BlowUpError, BracketError, ConfigError, GridError,
                     MemoryBudgetError, QuadratureError, ShapeError, TiltError,
                     VaradhanLabError, ZeroModeError)
from .funcs import ScalarFunc, parse_func
from .mc import (DensityCurve, SweepResult, estimate_density,
                 support_convergence, tilted_density, varadhan_sweep)
from .noise import (ControlH, GridSpec, Lattice, NoisePath, ht_inner,
                    lattice, localization_holds, sample_path, smooth_vn)
from .rate import RateResult, rate_function, rate_profile, support_probe
from .skeleton import (dphi_window_norm, expansion_check, forward_xi,
                       gradient_phi, solve_phi)
from .solver import BumpInitial, Field, ModelSpec, ZeroInitial, g1_grid

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
