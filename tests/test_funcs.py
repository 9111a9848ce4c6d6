import math

import numpy as np
import pytest

from varadhanlab.funcs import _REGISTRY, ScalarFunc, parse_func

#: argument sets per registry entry: signs, zero slopes and ranges that
#: cross, touch or avoid 0
CASES = [
    ("zero", ()),
    ("const", (1.3,)), ("const", (-0.4,)), ("const", (0.0,)),
    ("affine", (0.1, -0.5)), ("affine", (0.7, 0.0)), ("affine", (-2.0, 3.0)),
    ("affine_clamped", (1.0, 0.8, 0.25, 3.0)), ("affine_clamped", (0.0, 0.5, -2.0, 2.0)),
    ("affine_clamped", (-1.0, -2.0, -3.0, -0.5)), ("affine_clamped", (5.0, 0.0, -1.0, 1.0)),
    ("affine_clamped", (0.3, 0.0, -1.0, 1.0)),
    ("cos_perturbed", (1.0, 0.25)), ("cos_perturbed", (0.25, 1.0)),
    ("cos_perturbed", (-2.0, -0.5)),
    ("tanh_bounded", (0.5,)), ("tanh_bounded", (-1.5,)),
]


def test_every_registry_entry_is_covered():
    assert {name for name, _ in CASES} == set(_REGISTRY)


@pytest.mark.parametrize("name, args", CASES, ids=[f"{n}{a}" for n, a in CASES])
def test_exact_bounds_hold_and_are_approached(name, args):
    fn = ScalarFunc(name, args)
    inf_f, sup_f = fn.abs_bounds()
    values = np.abs(fn(np.linspace(-50.0, 50.0, 200_001)))
    # the bounds hold on a dense sample ...
    assert inf_f <= values.min() and values.max() <= sup_f
    # ... and the sample comes within one step's change of them
    assert values.min() - inf_f < 1e-3
    if math.isfinite(sup_f):
        assert sup_f - values.max() < 1e-3
    else:
        assert np.abs(fn(np.array([-1e12, 1e12]))).max() > 1e11


@pytest.mark.parametrize("text", ["const:nan", "const:inf", "affine:0,-inf",
                                  "cos_perturbed:1,nan", "tanh_bounded:inf"])
def test_non_finite_parameters_are_rejected(text):
    with pytest.raises(ValueError, match="must be finite"):
        parse_func(text)


def test_affine_clamped_needs_ordered_limits():
    # np.clip would turn lo > hi into the constant hi
    with pytest.raises(ValueError, match="lo <= hi"):
        ScalarFunc("affine_clamped", (1.0, 0.5, 3.0, 0.25))
    assert ScalarFunc("affine_clamped", (1.0, 0.5, 0.5, 0.5)).abs_bounds() == (0.5, 0.5)
