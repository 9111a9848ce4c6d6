import ast
from pathlib import Path

import varadhanlab

# the package's public names, spelled out so that adding or dropping one
# shows up as a diff of this list
PUBLIC = [
    "BlowUpError", "BracketError", "BumpInitial", "ConfigError", "ControlH",
    "CovarianceSpec", "DensityCurve", "Field", "FixedPointError", "GridError",
    "GridSpec",
    "Lattice", "MemoryBudgetError", "ModelSpec", "NoisePath",
    "QuadratureError", "RateResult", "ScalarFunc", "ShapeError", "SweepResult",
    "TiltError", "VaradhanLabError", "ZeroInitial", "ZeroModeError",
    "covkernel", "dphi_window_norm", "errors", "estimate_density",
    "expansion_check", "fit_exponent", "forward_xi",
    "fourier_lambda", "funcs", "g1", "g1_grid", "gradient_phi", "ht_inner",
    "init_shift", "lattice", "localization_holds",
    "mc", "noise", "parse_func", "picard_verify", "rate", "rate_function",
    "rate_profile", "sample_path", "simulate", "skeleton", "smooth_vn",
    "solve_phi", "solver", "spectral_density", "support_convergence",
    "support_probe", "tilted_density", "varadhan_sweep",
]

# the functions no pipeline stage calls, each kept for a stated reason
NO_PIPELINE_CALLER = {
    "picard_verify": "oracle of the Picard fixed-point lemma for the mild map",
    "expansion_check": "oracle of the first-order expansion around the skeleton",
    "dphi_window_norm": "oracle of the windowed Malliavin-derivative norm bound",
    "spectral_density": "the density of mu, kept for the lattice weights to call",
}


def test_public_names_are_pinned():
    assert sorted(varadhanlab.__all__) == PUBLIC


def test_every_src_name_has_a_pipeline_caller():
    # a function, class or method counts as called when a name or attribute
    # anywhere in the library spells its name; dunders Python calls itself
    defined, referenced = set(), set()
    for path in sorted(Path(varadhanlab.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.add(node.name)
            elif isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    assert defined - referenced == set(NO_PIPELINE_CALLER)
