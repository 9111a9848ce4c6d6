import ast
import functools
import sys
import threading
import types
from pathlib import Path

import numpy.fft

import varadhanlab
from varadhanlab import funcs, mc, noise, presets, rate, skeleton, solver

SRC = Path(varadhanlab.__file__).parent
ROOT = Path(__file__).resolve().parents[1]

# the package's public names, spelled out so that adding or dropping one
# shows up as a diff of this list
PUBLIC = [
    "BlowUpError", "BracketError", "BumpInitial", "ConfigError", "ControlH",
    "CovarianceSpec", "DensityCurve", "Field", "GridError", "GridSpec",
    "Lattice", "MemoryBudgetError", "ModelSpec", "NoisePath",
    "QuadratureError", "RateResult", "ScalarFunc", "ShapeError", "SweepResult",
    "TiltError", "VaradhanLabError", "ZeroInitial", "ZeroModeError",
    "covkernel", "dphi_window_norm", "errors", "estimate_density",
    "expansion_check", "fit_exponent", "forward_xi",
    "fourier_lambda", "funcs", "g1", "g1_grid", "gradient_phi", "ht_inner",
    "lattice", "localization_holds",
    "mc", "noise", "parse_func", "rate", "rate_function",
    "rate_profile", "sample_path", "skeleton", "smooth_vn",
    "solve_phi", "solver", "spectral_density", "support_convergence",
    "support_probe", "tilted_density", "varadhan_sweep",
]

# the functions no pipeline stage calls, each kept for a stated reason
NO_PIPELINE_CALLER = {
    "expansion_check": "oracle of the first-order expansion around the skeleton",
    "dphi_window_norm": "oracle of the windowed Malliavin-derivative norm bound",
    "spectral_density": "the density of mu, kept for the lattice weights to call",
}

# the functions whose options count as passed when a test passes them,
# each with its reason
ORACLES = {
    **{name: NO_PIPELINE_CALLER[name]
       for name in ("expansion_check", "dphi_window_norm")},
    "forward_xi": "oracle of the adjoint gradient, which validate runs at its defaults",
}

# the options no pipeline stage passes, each kept for a stated reason
UNPASSED_OPTIONS = {
    "main.argv": "the console script calls main() with no arguments",
}


def test_public_names_are_pinned():
    assert sorted(varadhanlab.__all__) == PUBLIC


def test_every_src_name_has_a_pipeline_caller():
    # a function, class or method counts as called when a name or attribute
    # anywhere in the library spells its name; dunders Python calls itself
    defined, referenced = set(), set()
    for path in sorted(SRC.glob("*.py")):
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


def test_every_random_draw_is_philox():
    # the noise streams are Philox counters keyed on (grid.seed, stream);
    # a generator of another kind would be a second stream beside them
    others = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)
                    and node.value.attr == "random"
                    and isinstance(node.value.value, ast.Name)
                    and node.value.value.id in ("np", "numpy")
                    and node.attr not in ("Generator", "Philox")):
                others.append(f"{path.name}:{node.lineno} np.random.{node.attr}")
    assert others == []


#: the numpy FFT transforms; fftfreq and the other helpers transform nothing
FFT_TRANSFORMS = {"rfftn", "irfftn", "rfft", "irfft", "fft", "ifft", "fftn", "ifftn"}


def _owners(tree) -> dict[int, list[str]]:
    """Per node id, the names of the functions and classes around it, outermost first."""
    owner = {}
    for scope in ast.walk(tree):
        if isinstance(scope, (ast.FunctionDef, ast.ClassDef)):
            for node in ast.walk(scope):
                owner.setdefault(id(node), []).append(scope.name)
    return owner


def test_every_fft_is_in_the_lattice_transform_pair():
    # Lattice.to_spec and Lattice.to_field fix the one flat spectrum layout;
    # a transform elsewhere would be a second copy of it
    others = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = _owners(tree)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr in FFT_TRANSFORMS
                    and getattr(node.value, "attr", getattr(node.value, "id", "")) == "fft"):
                where = ".".join(owner.get(id(node), []))
                if where not in ("Lattice.to_spec", "Lattice.to_field"):
                    others.append(f"{path.name}:{node.lineno} {where} .{node.attr}")
            elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith("fft"):
                others += [f"{path.name}:{node.lineno} import {a.name}"
                           for a in node.names if a.name in FFT_TRANSFORMS]
    assert others == []


def test_every_batched_sweep_is_in_sample_endpoints():
    # mc.sample_endpoints cuts a stream batch into chunks and sub-batches
    # and sweeps each; a batched _forward elsewhere would be a second route
    inside, others = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = _owners(tree)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and "_forward" in _callees(node.func)
                    and (len(node.args) > 4 or any(k.arg == "work" for k in node.keywords))):
                where = owner.get(id(node), [])
                if path.name == "mc.py" and where[:1] == ["sample_endpoints"]:
                    inside.append(node.lineno)
                else:
                    others.append(f"{path.name}:{node.lineno} {'.'.join(where)}")
    assert inside and others == []


def test_every_stream_batch_is_drawn_in_sample_endpoints():
    # solver._Increments draws a batch of Philox streams into a unit's
    # workspace; constructed elsewhere it would be a second stream-batch loop
    inside, others = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = _owners(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and "_Increments" in _callees(node.func):
                where = owner.get(id(node), [])
                if path.name == "mc.py" and where[:1] == ["sample_endpoints"]:
                    inside.append(node.lineno)
                else:
                    others.append(f"{path.name}:{node.lineno} {'.'.join(where)}")
    assert inside and others == []


#: the standard_normal calls outside noise.sample_increments, each with its reason
NORMAL_DRAWS = {
    "cli._validation_checks": "the random directions of validate's finite-difference "
                              "gradient check, not a noise stream",
}


def test_every_stream_draw_is_in_sample_increments():
    # noise.sample_increments draws every noise stream, sample_path and the
    # stream batches of solver._Increments alike; a standard_normal call
    # elsewhere would be a second draw routine beside it
    inside, others = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = _owners(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "standard_normal":
                scope = ".".join([path.stem, *owner.get(id(node), [])])
                if scope == "noise.sample_increments":
                    inside.append(node.lineno)
                elif scope not in NORMAL_DRAWS:
                    others.append(f"{path.name}:{node.lineno} {scope}")
    assert inside and others == []


#: the names of noise's fill machinery: its fills, its helper and the busy units
FILL_NAMES = {"_Fill", "_HELPER", "_BUSY"}


def _fill_schedule_uses(tree) -> list[tuple[int, str]]:
    """(line, use) of every _philox call, FILL_NAMES name and .ahead attribute."""
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and "_philox" in _callees(node.func):
            uses.append((node.lineno, "_philox()"))
        elif isinstance(node, ast.Name) and node.id in FILL_NAMES:
            uses.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute) and node.attr in FILL_NAMES | {"ahead"}:
            uses.append((node.lineno, "." + node.attr))
        elif isinstance(node, ast.alias) and node.name in FILL_NAMES:
            uses.append((node.lineno, "import " + node.name))
    return uses


def test_the_fill_schedule_stays_in_noise():
    # noise._Unit alone decides which Philox fill of an ensemble unit may
    # run ahead of which sweep; a generator made, a fill or the helper
    # named, or a fill made ahead read in another module would split that
    # policy again
    others = [f"{path.name}:{line} {use}" for path in sorted(SRC.glob("*.py"))
              if path.name != "noise.py"
              for line, use in _fill_schedule_uses(ast.parse(path.read_text()))]
    assert others == []
    assert _fill_schedule_uses(ast.parse((SRC / "noise.py").read_text()))


#: the entry points benchmarks/tracing.py wraps, as (owner, attribute)
TRACED = [
    (noise, "sample_increments"), (noise.Lattice, "synthesize"),
    (noise.Lattice, "extract"), (solver.MildEngine, "forward"),
    (solver.MildEngine, "adjoint"), (numpy.fft, "rfftn"), (numpy.fft, "irfftn"),
    (funcs.ScalarFunc, "__call__"), (funcs.ScalarFunc, "deriv"),
    (skeleton, "solve_phi"), (skeleton, "gradient_phi"),
    (rate, "rate_function"), (mc, "tilted_density"),
]


def test_every_traced_entry_point_runs_on_the_callers_thread(monkeypatch):
    # the benchmark tracer keeps one span stack for all threads, so a
    # traced call from noise's fill helper (or any other thread) would
    # corrupt its layers: a tilted tiny-grid ensemble and one rate point
    # must make every traced call on the caller's thread
    calls = []

    def spy(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls.append((name, threading.get_ident()))
            return fn(*args, **kwargs)
        return wrapper

    for owner, attr in TRACED:
        original = vars(owner)[attr]
        wrapped = spy(attr, original)
        sites = [(owner, attr)]
        if isinstance(owner, types.ModuleType) and owner.__name__.startswith("varadhanlab"):
            sites = [(mod, key) for mod in list(sys.modules.values())
                     if mod is not None and mod.__name__.split(".")[0] == "varadhanlab"
                     for key, val in list(vars(mod).items()) if val is original]
        for site, key in sites:
            monkeypatch.setattr(site, key, wrapped)
    model, grid = presets.nonlinear_model(), presets.tiny_grid()
    res = rate.rate_function(model, grid, 1.0)
    mc.tilted_density(model, grid, 2 * mc.CHUNK + 100, 1.0, res.h_star, eps=0.5)
    assert {name for name, _ in calls} == {attr for _, attr in TRACED}
    assert {ident for _, ident in calls} == {threading.get_ident()}


#: the evenly spaced grids in src/, each with its reason
SPACED_GRIDS = {
    "cli._parse_grid_expr": "the user's y grid, 'start:stop:count'",
    "mc._batches": "the edges of the contiguous batches of the batch-mean errors",
    "cli._validation_checks": "the times of validate's kernel exponent fits",
}


def test_no_coefficient_bound_is_sampled():
    # every coefficient bound is exact from the funcs registry
    # (ScalarFunc.abs_bounds); a grid elsewhere could be a sampled bound
    others = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = _owners(tree)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("linspace", "geomspace")):
                scope = ".".join([path.stem, *owner.get(id(node), [])])
                if scope not in SPACED_GRIDS:
                    others.append(f"{path.name}:{node.lineno} {scope}")
    assert others == []


#: the reads of the lag weights outside MildEngine, each with its reason
WEIGHT_READS = {
    "skeleton.forward_xi": "the adjoint's independent oracle, which validate runs",
}


def test_every_history_sum_is_in_the_engine():
    # MildEngine sums the mild map's history K_{j-i} * rho_i; a read of its
    # lag weights elsewhere would be a second sweep of the same map
    others = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = _owners(tree)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr == "weights"
                    and isinstance(node.ctx, ast.Load)):
                where = owner.get(id(node), [])
                scope = ".".join([path.stem, *where[:1]])    # module and outermost def
                if scope != "solver.MildEngine" and scope not in WEIGHT_READS:
                    others.append(f"{path.name}:{node.lineno} {'.'.join(where)}")
    assert others == []


#: the skeleton routes the rate layer runs, each solve or sweep a counted one
SKELETON_ROUTES = {"solve_phi", "gradient_phi", "bare_kernel_control"}


def test_the_rate_layer_reaches_the_skeleton_only_through_its_evaluator():
    # rate._Skeleton counts the solves and sweeps of a rate point and
    # remembers its recent controls; a call beside it would be uncounted
    tree = ast.parse((SRC / "rate.py").read_text())
    inside = {id(node) for cls in ast.walk(tree)
              if isinstance(cls, ast.ClassDef) and cls.name == "_Skeleton"
              for node in ast.walk(cls)}
    others = [f"rate.py:{node.lineno} {name}" for node in ast.walk(tree)
              if isinstance(node, ast.Call) and id(node) not in inside
              for name in _callees(node.func) if name in SKELETON_ROUTES]
    assert inside and others == []


def test_every_varadhan_sweep_tilts_with_its_own_rate_point():
    # a sweep compares with -I(y) of the model it samples, so it tilts with
    # h_star=<r>.h_star of a rate_function result <r> of the same function,
    # never with a control read from a file or passed in
    inside, others = [], []
    for path in sorted(SRC.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text())):
            if not isinstance(func, ast.FunctionDef):
                continue
            solved = {target.id for node in ast.walk(func)
                      if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
                      and "rate_function" in _callees(node.value.func)
                      for target in node.targets if isinstance(target, ast.Name)}
            for node in ast.walk(func):
                if isinstance(node, ast.Call) and "varadhan_sweep" in _callees(node.func):
                    tilt = {k.arg: k.value for k in node.keywords}.get("h_star")
                    own = (isinstance(tilt, ast.Attribute) and tilt.attr == "h_star"
                           and getattr(tilt.value, "id", None) in solved)
                    where = f"{path.name}:{node.lineno} {func.name}"
                    (inside if own else others).append(where)
    assert inside and others == []


def _callees(func) -> list[str]:
    """The names a call may reach: f(...) and x.f(...) reach f; both branches
    of (f if c else g)(...) count."""
    if isinstance(func, ast.IfExp):
        return _callees(func.body) + _callees(func.orelse)
    if isinstance(func, ast.Name):
        return [func.id]
    if isinstance(func, ast.Attribute):
        return [func.attr]
    return []


def _is_dict(node) -> bool:
    return isinstance(node, ast.Call) and _callees(node.func) == ["dict"]


def _passed(trees) -> dict[str, tuple[int, set[str]]]:
    """Per callee name: the most positional arguments any call passes it, and
    every keyword, those of a dict(...) the call unpacks with ** included."""
    passed = {}
    for tree in trees:
        dicts = {t.id: node.value for node in ast.walk(tree)
                 if isinstance(node, ast.Assign) and _is_dict(node.value)
                 for t in node.targets if isinstance(t, ast.Name)}
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            npos = next((i for i, a in enumerate(call.args) if isinstance(a, ast.Starred)),
                        len(call.args))
            names = set()
            for kw in call.keywords:
                value = kw.value
                if kw.arg is None and isinstance(value, ast.Name):
                    value = dicts.get(value.id)
                if kw.arg is None and _is_dict(value):
                    names |= {k.arg for k in value.keywords}
                names.add(kw.arg)
            for name in _callees(call.func):
                pos, seen = passed.get(name, (0, set()))
                passed[name] = (max(pos, npos), seen | names)
    return passed


def _is_dataclass(cls: ast.ClassDef) -> bool:
    return any("dataclass" in _callees(d.func if isinstance(d, ast.Call) else d)
               for d in cls.decorator_list)


def unused_options(library, callers=(), test_callers=(), oracles=()) -> set[str]:
    """The options and stored attributes of the library modules that nothing uses.

    library, callers and test_callers are module sources.  An option is a
    parameter with a default.  It is used when a call in the library or the
    callers (test_callers too, for a function named in oracles) passes it by
    keyword or by position.  Calls match definitions by name: f(...) and
    x.f(...) reach every f, C(...) reaches C.__init__, and a method's
    positions skip self.  An attribute is a self.x assignment in a method or
    a dataclass field.  It is used when the library reads .x anywhere, or
    when its class reaches dataclasses.asdict as r in asdict(r) for r in
    t.rows, with the field rows annotated list[C].  Exception classes are
    exempt: what they store is the payload of the fault they report.

    Returns "function.parameter" and "Class.attribute" names.
    """
    lib = [ast.parse(text) for text in library]
    passed = _passed(lib + [ast.parse(text) for text in callers])
    by_tests = _passed([ast.parse(text) for text in test_callers])
    classes = {c.name: c for t in lib for c in ast.walk(t) if isinstance(c, ast.ClassDef)}
    owner = {id(f): c.name for c in classes.values() for f in c.body
             if isinstance(f, ast.FunctionDef)}
    found = set()
    for fn in (f for t in lib for f in ast.walk(t) if isinstance(f, ast.FunctionDef)):
        cls = owner.get(id(fn))
        key = cls if fn.name == "__init__" else fn.name
        pos, names = passed.get(key, (0, set()))
        if key in oracles:
            tpos, tnames = by_tests.get(key, (0, set()))
            pos, names = max(pos, tpos), names | tnames
        label = fn.name if cls is None else f"{cls}.{fn.name}"
        args = fn.args.posonlyargs + fn.args.args
        skip = 0 if cls is None else 1
        first = len(args) - len(fn.args.defaults)
        found |= {f"{label}.{a.arg}" for i, a in enumerate(args[first:], first)
                  if not (pos > i - skip or a.arg in names)}
        found |= {f"{label}.{a.arg}" for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                  if d is not None and a.arg not in names}

    def is_exception(cls):
        return any(isinstance(b, ast.Name) and (b.id in ("Exception", "BaseException") or (
            b.id in classes and is_exception(classes[b.id]))) for b in cls.bases)

    reads = {n.attr for t in lib for n in ast.walk(t)
             if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    annotations = {s.target.id: s.annotation for c in classes.values() if _is_dataclass(c)
                   for s in c.body if isinstance(s, ast.AnnAssign)}
    exported = set()
    for scope in (s for t in lib for s in ast.walk(t)):
        loops = getattr(scope, "generators", [scope] if isinstance(scope, ast.For) else [])
        loops = {g.target.id: g.iter for g in loops if isinstance(g.target, ast.Name)}
        for call in ast.walk(scope) if loops else ():
            if isinstance(call, ast.Call) and _callees(call.func) == ["asdict"]:
                rows = loops.get(getattr(call.args[0], "id", None))
                ann = annotations.get(getattr(rows, "attr", None))
                if isinstance(ann, ast.Subscript) and isinstance(ann.slice, ast.Name):
                    exported.add(ann.slice.id)
    for cls in classes.values():
        if is_exception(cls) or cls.name in exported:
            continue
        stored = {s.target.id for s in cls.body
                  if _is_dataclass(cls) and isinstance(s, ast.AnnAssign)}
        stored |= {n.attr for f in cls.body if isinstance(f, ast.FunctionDef)
                   for n in ast.walk(f) if isinstance(n, ast.Attribute)
                   and isinstance(n.ctx, ast.Store)
                   and isinstance(n.value, ast.Name) and n.value.id == "self"}
        found |= {f"{cls.name}.{a}" for a in stored - reads}
    return found


def _texts(paths):
    return [p.read_text() for p in sorted(paths)]


def test_every_src_option_and_attribute_is_used():
    # the pipeline is the library and the benchmark that drives it
    library = _texts(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    found = unused_options(library, _texts((ROOT / "benchmarks").glob("*.py")),
                           _texts((ROOT / "tests").glob("*.py")), ORACLES)
    assert found == set(UNPASSED_OPTIONS)


_SYNTHETIC = '''
from dataclasses import asdict, dataclass


@dataclass
class Row:
    value: float
    note: str = ""


@dataclass
class Table:
    rows: list[Row]


class Fault(Exception):
    def __init__(self, message, gap=None):
        super().__init__(message)
        self.gap = gap


class Probe:
    def __init__(self, n, scale=1.0):
        self.n = n
        self.scale = scale

    def run(self, k=1):
        return self.n * self.scale * k


def draw(n, stream0=0, executor=None, spare=None):
    return n


def tiny_grid(seed=7):
    return seed


def mc_grid(seed=7):
    return seed


def pipeline(tiny, table):
    kwargs = dict(stream0=1, executor=None)
    draw((tiny_grid if tiny else mc_grid)(3), **kwargs)
    if not Probe(2, 0.5).run(5):
        raise Fault("empty", gap=1.0)
    return [asdict(r) for r in table.rows]
'''


def test_the_scan_flags_only_the_option_nothing_passes():
    # stream0 and executor travel in a dict, seed through a conditional
    # callee, scale and k by position after self, Row's fields only reach
    # asdict, and Fault.gap is an exception payload; spare is never passed
    assert unused_options([_SYNTHETIC]) == {"draw.spare"}
    # an oracle's option set only in the tests counts; a callee's does not
    tests = "draw(1, spare=2)\n"
    assert unused_options([_SYNTHETIC], test_callers=[tests]) == {"draw.spare"}
    assert unused_options([_SYNTHETIC], test_callers=[tests], oracles={"draw"}) == set()
    # without the caller, every option it alone passed is flagged
    bare = _SYNTHETIC[: _SYNTHETIC.index("def pipeline")]
    assert unused_options([bare]) == {
        "draw.stream0", "draw.executor", "draw.spare", "tiny_grid.seed",
        "mc_grid.seed", "Fault.__init__.gap", "Probe.__init__.scale", "Probe.run.k",
        "Row.value", "Row.note", "Table.rows"}
