"""Registry of named scalar coefficient functions.

Diffusion and drift coefficients are picked from a closed-form registry
rather than parsed from expressions, so model specs remain hashable and
boundedness is decided, not sampled: each entry states the exact value
range of its function, which ScalarFunc.abs_bounds turns into inf/sup |f|.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ScalarFunc:
    """A named scalar function u -> f(u) with derivative, vectorized over arrays."""

    name: str
    args: tuple[float, ...] = ()

    def __post_init__(self):
        if self.name not in _REGISTRY:
            raise ValueError(f"unknown scalar function {self.name!r}; "
                             f"known: {sorted(_REGISTRY)}")
        spec = _REGISTRY[self.name]
        if len(self.args) != spec.n_args:
            raise ValueError(f"{self.name} takes {spec.n_args} parameter(s), "
                             f"got {len(self.args)}")
        if not np.all(np.isfinite(self.args)):
            raise ValueError(f"{self.name} parameters must be finite, got {self.args}")
        if self.name == "affine_clamped" and self.args[2] > self.args[3]:
            raise ValueError(f"affine_clamped needs lo <= hi, got {self.args[2:]}")

    def __call__(self, u):
        return _REGISTRY[self.name].f(np.asarray(u, dtype=float), *self.args)

    def deriv(self, u):
        return _REGISTRY[self.name].df(np.asarray(u, dtype=float), *self.args)

    def abs_bounds(self) -> tuple[float, float]:
        """(inf |f|, sup |f|) over the real line, from the exact value range of f."""
        lo, hi = _REGISTRY[self.name].span(*self.args)
        return max(lo, -hi, 0.0), max(hi, -lo)


@dataclass(frozen=True)
class _Entry:
    f: callable
    df: callable
    n_args: int
    #: the parameters -> (inf f, sup f) over the real line
    span: callable


def _affine_clamped(u, a, b, lo, hi):
    return np.clip(a + b * u, lo, hi)


def _affine_clamped_d(u, a, b, lo, hi):
    v = a + b * u
    return np.where((v > lo) & (v < hi), b, 0.0)


_REGISTRY = {
    "zero": _Entry(lambda u: np.zeros_like(u), lambda u: np.zeros_like(u), 0,
                   lambda: (0.0, 0.0)),
    "const": _Entry(lambda u, c: np.full_like(u, c), lambda u, c: np.zeros_like(u), 1,
                    lambda c: (c, c)),
    "affine": _Entry(lambda u, a, b: a + b * u, lambda u, a, b: np.full_like(u, b), 2,
                     lambda a, b: (-np.inf, np.inf) if b else (a, a)),
    "affine_clamped": _Entry(_affine_clamped, _affine_clamped_d, 4,
                             lambda a, b, lo, hi: (lo, hi) if b else
                             (min(max(a, lo), hi),) * 2),
    "cos_perturbed": _Entry(lambda u, c, a: c + a * np.cos(u),
                            lambda u, c, a: -a * np.sin(u), 2,
                            lambda c, a: (c - abs(a), c + abs(a))),
    "tanh_bounded": _Entry(lambda u, a: a * np.tanh(u),
                           lambda u, a: a / np.cosh(u) ** 2, 1,
                           lambda a: (-abs(a), abs(a))),
}

ZERO = ScalarFunc("zero")
ONE = ScalarFunc("const", (1.0,))
# Smooth bounded-below diffusion and bounded drift used as the default
# nonlinear test model: sigma = 1 + 0.25 cos(u) >= 0.75, b = 0.5 tanh(u).
SIGMA_DEFAULT = ScalarFunc("cos_perturbed", (1.0, 0.25))
B_DEFAULT = ScalarFunc("tanh_bounded", (0.5,))


def parse_func(text: str) -> ScalarFunc:
    """Parse ``"name"`` or ``"name:1.0,2.0"`` into a ScalarFunc."""
    text = text.strip()
    if ":" in text:
        name, _, rest = text.partition(":")
        args = tuple(float(tok) for tok in rest.split(",") if tok.strip())
    else:
        name, args = text, ()
    return ScalarFunc(name.strip(), args)
