import varadhanlab

# the package's public names, spelled out so that adding or dropping one
# shows up as a diff of this list
PUBLIC = [
    "BlowUpError", "BracketError", "BumpInitial", "ConfigError", "ControlH",
    "CovarianceSpec", "DensityCurve", "Field", "FixedPointError", "GridError",
    "GridSpec",
    "KernelTable", "Lattice", "MemoryBudgetError", "ModelSpec", "NoisePath",
    "QuadratureError", "RateResult", "ScalarFunc", "ShapeError", "SweepResult",
    "TiltError", "VaradhanLabError", "ZeroInitial", "ZeroModeError",
    "covkernel", "dphi_window_norm", "errors", "estimate_density",
    "expansion_check", "fit_exponent", "forward_xi",
    "fourier_lambda", "funcs", "g1", "g1_grid", "gradient_phi", "ht_inner",
    "init_shift", "j1", "j2", "lattice", "localization_holds", "make_func",
    "mc", "noise", "parse_func", "picard_verify", "rate", "rate_function",
    "rate_profile", "sample_path", "simulate", "skeleton", "smooth_vn",
    "solve_phi", "solver", "spectral_density", "support_convergence",
    "support_probe", "tilted_density", "varadhan_sweep",
]


def test_public_names_are_pinned():
    assert sorted(varadhanlab.__all__) == PUBLIC
