"""Fundamental-solution kernels and spectral energy integrals.

Supported operators are the wave and heat operators on R^d with either a
Riesz spatial correlation (spectral density |xi|^{-(d-beta)}) or white
spatial noise in d=1.  With the energy kernels

    j1(s) = int |F Lambda(s)(xi)|^2 mu(dxi),      j2(s) = Lambda(s)(R^d),
    g1(t) = int_0^t j1(s) ds,

the module provides the Fourier transform of the fundamental solution;
g1 in its closed power-law form, with constants from math.gamma, and by
an independent radial quadrature of j1 (validate compares the two);
int_0^t j2, which bounds the drift's reach in the bracket of
rate._init_shift; the scaling exponents of CovarianceSpec; and the
slab-averaged squared multipliers used by the spectral time stepper.

scipy is imported on first use, inside the functions that call it:
_j1_quadrature and g1's quadrature branch.  The Monte Carlo path (noise,
solver, mc) and closed-form g1 call neither, and loading scipy.integrate,
scipy.special and scipy.optimize costs a process about 48 MiB resident
and 0.6 s (import varadhanlab.cli: 81 MiB and 0.79 s with them, 34 MiB
and 0.23 s without; scipy 1.17 on a 2-vCPU Xeon).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import QuadratureError, ZeroModeError

_QUAD_TOL = 1e-9


def _sphere_area(d: int) -> float:
    """Surface area 2 pi^{d/2} / Gamma(d/2) of the unit sphere in R^d."""
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


@dataclass(frozen=True)
class CovarianceSpec:
    """Spatial correlation of the driving noise plus the operator it drives.

    kind="riesz" uses the correlation |x|^{-beta} with spectral density
    |xi|^{-(d-beta)}, valid for 0 < beta < min(d, 2).  kind="white" is
    spatially white noise, permitted only for the default d=1 experiments.
    """

    operator: str
    d: int
    kind: str = "white"
    beta: float | None = None

    def __post_init__(self):
        if self.operator not in ("wave", "heat"):
            raise ValueError(f"operator must be 'wave' or 'heat', got {self.operator!r}")
        if self.d < 1:
            raise ValueError("dimension must be >= 1")
        if self.operator == "wave" and self.d not in (1, 2, 3):
            raise ValueError("wave operator supports d in {1, 2, 3}")
        if self.kind == "riesz":
            if self.beta is None:
                raise ValueError("riesz correlation requires beta")
            if not 0.0 < self.beta < min(self.d, 2):
                raise ValueError(f"riesz exponent must satisfy 0 < beta < min(d, 2)"
                                 f" = {min(self.d, 2)}, got {self.beta}")
        elif self.kind == "white":
            if self.beta is not None:
                raise ValueError("white noise takes no beta")
            if self.d != 1:
                raise ValueError("white spatial noise is supported only for d=1")
        else:
            raise ValueError(f"kind must be 'riesz' or 'white', got {self.kind!r}")

    @property
    def beta_eff(self) -> float:
        """Exponent making white d=1 a formal member of the Riesz family."""
        return 1.0 if self.kind == "white" else float(self.beta)

    @property
    def exponents(self) -> tuple[float, float, float]:
        """(gamma, eta, delta): g1(t) ~ t^gamma (= t^eta) and int_0^t j2 <= C t^delta."""
        b = self.beta_eff
        if self.operator == "wave":
            return 3.0 - b, 3.0 - b, 2.0
        return (2.0 - b) / 2.0, (2.0 - b) / 2.0, 1.0

    def label(self) -> str:
        corr = "white" if self.kind == "white" else f"riesz(beta={self.beta:g})"
        return f"{self.operator}/d={self.d}/{corr}"


def _radius(spec: CovarianceSpec, xi) -> np.ndarray:
    xi = np.asarray(xi, dtype=float)
    if xi.ndim == 0:
        if spec.d != 1:
            raise ValueError("scalar frequency only valid for d=1")
        return np.abs(xi)
    if xi.shape[-1] != spec.d:
        if spec.d == 1:
            return np.abs(xi)
        raise ValueError(f"frequency vectors must have last axis {spec.d}")
    return np.sqrt(np.sum(xi * xi, axis=-1))


def spectral_density(spec: CovarianceSpec, xi) -> np.ndarray:
    """Density of the spectral measure mu at frequency xi.

    Riesz correlation gives |xi|^{-(d-beta)}; white noise gives 1.  The
    density is undefined at xi = 0 for Riesz; callers on a discrete torus
    apply the zero-mode policy (drop the constant mode) themselves.
    """
    r = _radius(spec, xi)
    if spec.kind == "white":
        return np.ones_like(r)
    if np.any(r == 0.0):
        raise ZeroModeError("zero-mode undefined: the Riesz spectral density "
                            "diverges at xi = 0")
    return r ** (spec.beta - spec.d)


def fourier_lambda(spec: CovarianceSpec, t: float, xi) -> np.ndarray:
    """Fourier transform of the fundamental solution at time t, frequency xi."""
    if not 0.0 <= t < math.inf:                         # NaN fails too
        raise ValueError(f"time must be finite and nonnegative, got {t}")
    r = _radius(spec, xi)
    if spec.operator == "wave":
        x = 2.0 * math.pi * t * r
        # sin(2 pi t r) / (2 pi r) with limit t at r = 0
        return t * np.sinc(x / math.pi)
    return np.exp(-4.0 * math.pi ** 2 * t * r * r)


def j2_integral(spec: CovarianceSpec, t: float) -> float:
    """int_0^t Lambda(s)(R^d) ds: t^2/2 for wave, t for heat."""
    if not 0.0 <= t < math.inf:                         # NaN fails too
        raise ValueError(f"time must be finite and nonnegative, got {t}")
    if spec.operator == "wave":
        return 0.5 * t * t
    return float(t)


def _wave_sin2_moment(beta: float) -> float:
    """int_0^inf sin^2(u) u^(beta-3) du = pi / (2^beta sin(pi beta / 2) Gamma(3 - beta)).

    The closed form holds for 0 < beta < 2; at beta = 1 it is pi / 2.
    """
    return math.pi / (2.0 ** beta * math.sin(0.5 * math.pi * beta) * math.gamma(3.0 - beta))


@lru_cache(maxsize=None)
def _j1_coefficients(spec: CovarianceSpec) -> tuple[float, float]:
    """(C, p) with j1(s) = C * s^p for the closed power-law form."""
    b = spec.beta_eff
    area = _sphere_area(spec.d)
    if spec.operator == "wave":
        coeff = area * (2.0 * math.pi) ** (2.0 - b) * _wave_sin2_moment(b) / (4.0 * math.pi ** 2)
        return coeff, 2.0 - b
    coeff = area * 0.5 * math.gamma(b / 2.0) * (8.0 * math.pi ** 2) ** (-b / 2.0)
    return coeff, -b / 2.0


def _j1_quadrature(spec: CovarianceSpec, s: float) -> float:
    """j1(s) for s > 0 by the radial spectral integral, independent of the closed form."""
    from scipy import integrate

    b = spec.beta_eff
    area = _sphere_area(spec.d)
    if spec.operator == "heat":
        val, err = integrate.quad(
            lambda r: area * np.exp(-8.0 * math.pi ** 2 * s * r * r) * r ** (b - 1.0),
            0.0, np.inf, limit=400, epsabs=_QUAD_TOL, epsrel=1e-12)
        if err > 1e-6 * max(1.0, abs(val)):
            raise QuadratureError(f"heat j1 quadrature reached only {err:.3e}", achieved=err)
        return val
    amp = area / (4.0 * math.pi ** 2)
    cut = max(20.0, 4.0 / s)
    head, err1 = integrate.quad(
        lambda r: amp * np.sin(2.0 * math.pi * s * r) ** 2 * r ** (b - 3.0),
        0.0, cut, limit=800, epsabs=_QUAD_TOL, epsrel=1e-12)
    mono = 0.5 * amp * cut ** (b - 2.0) / (2.0 - b)
    osc, err2 = integrate.quad(lambda r: 0.5 * amp * r ** (b - 3.0), cut, np.inf,
                               weight="cos", wvar=4.0 * math.pi * s)
    achieved = err1 + abs(err2)
    if achieved > 1e-6 * max(1.0, head + mono):
        raise QuadratureError(f"wave j1 quadrature reached only {achieved:.3e}",
                              achieved=achieved)
    return head + mono - osc


def g1(spec: CovarianceSpec, t: float, method: str = "closed") -> float:
    """Cumulative energy g1(t) = int_0^t j1(s) ds.

    Closed form is C t^(p+1)/(p+1) with the cached power-law constants;
    quadrature integrates the independent radial route over s.
    """
    if not 0.0 <= t < math.inf:                         # NaN fails too
        raise ValueError(f"time must be finite and nonnegative, got {t}")
    if t == 0.0:
        return 0.0
    if method == "closed":
        coeff, p = _j1_coefficients(spec)
        return coeff * t ** (p + 1.0) / (p + 1.0)
    if method != "quadrature":
        raise ValueError("method must be 'closed' or 'quadrature'")
    from scipy import integrate

    val, err = integrate.quad(lambda s: _j1_quadrature(spec, s), 0.0, t,
                              limit=200, epsabs=1e-10, epsrel=1e-8)
    if err > 1e-5 * max(1.0, abs(val)):
        raise QuadratureError(f"g1 quadrature reached only {err:.3e}", achieved=err)
    return val


def fit_exponent(samples) -> float:
    """Least-squares slope of log g1 against log t.

    samples is a sequence of (t, g1(t)) pairs; at least 4 points spanning
    a decade, all values positive.
    """
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 4:
        raise ValueError("need at least 4 (t, g1) samples")
    t, g = arr[:, 0], arr[:, 1]
    if np.any(t <= 0.0) or np.any(g <= 0.0):
        raise ValueError("exponent fit requires positive times and values")
    if np.max(t) / np.min(t) < 10.0:
        raise ValueError("samples must span at least one decade in t")
    slope, _ = np.polyfit(np.log(t), np.log(g), 1)
    return float(slope)


# ---------------------------------------------------------------------------
# slab-averaged multipliers for the spectral time stepper

def slab_l2_mean(spec: CovarianceSpec, r, a, b) -> np.ndarray:
    """Mean of F Lambda(u)(r)^2 over the lag slab u in [a, b], per radius r.

    Closed forms; stable branches handle r -> 0.  r, a and b broadcast
    against each other, so one call evaluates many slabs.
    """
    r = np.asarray(r, dtype=float)
    if np.any(b <= a) or np.any(a < 0):
        raise ValueError("need 0 <= a < b")
    if spec.operator == "heat":
        kappa = 8.0 * math.pi ** 2 * r * r
        x = kappa * (b - a)
        small = x < 1e-12
        xs = np.where(small, 1.0, x)
        ratio = np.where(small, 1.0, -np.expm1(-xs) / xs)
        return np.exp(-kappa * a) * ratio
    c = 2.0 * math.pi * r
    small = c * np.maximum(b, 1.0) < 1e-3
    cs = np.where(small, 1.0, c)
    # mean of sin^2(c u)/c^2 = (1 - cos(c(a+b)) sinc(c(b-a))) / (2 c^2)
    num = 1.0 - np.cos(cs * (a + b)) * np.sinc(cs * (b - a) / math.pi)
    exact = num / (2.0 * cs * cs)
    series = (b * b + a * b + a * a) / 3.0
    return np.where(small, series, exact)


def slab_sign(spec: CovarianceSpec, r, mid) -> np.ndarray:
    """Sign of F Lambda at the slab midpoint lag (always +1 for heat)."""
    r = np.asarray(r, dtype=float)
    if spec.operator == "heat":
        return np.ones_like(r)
    s = np.sign(np.sin(2.0 * math.pi * r * mid))
    return np.where(s == 0.0, 1.0, s)
