"""Guards on the package source itself, not on what it computes."""

import ast
import importlib
import importlib.util
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "primeavg"


class _References(ast.NodeVisitor):
    """Functions defined by def, and the names read outside their own def.

    A method is referenced by an Attribute, a function by a Name or an
    Attribute (a call through its module).
    """

    def __init__(self):
        self.methods: dict[str, str] = {}  # name -> file:line of a def
        self.functions: dict[str, str] = {}
        self.names: set[str] = set()
        self.attributes: set[str] = set()
        self.scopes: list[ast.AST] = []
        self.file = ""

    def visit_ClassDef(self, node):
        self.scopes.append(node)
        self.generic_visit(node)
        self.scopes.pop()

    def visit_FunctionDef(self, node):
        in_class = bool(self.scopes) and isinstance(self.scopes[-1], ast.ClassDef)
        (self.methods if in_class else self.functions).setdefault(node.name, f"{self.file}:{node.lineno}")
        self.scopes.append(node)
        self.generic_visit(node)
        self.scopes.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def _outside_own_def(self, name: str) -> bool:
        return all(getattr(scope, "name", None) != name for scope in self.scopes)

    def visit_Name(self, node):
        if self._outside_own_def(node.id):
            self.names.add(node.id)

    def visit_Attribute(self, node):
        if self._outside_own_def(node.attr):
            self.attributes.add(node.attr)
        self.generic_visit(node)


def test_every_function_in_src_is_used_in_src():
    # src/ holds what the commands run: a function that only tests call
    # belongs in tests/ (the oracles in tests/oracles.py).  Dunders and the
    # console-script entry point main are called from outside.
    refs = _References()
    for path in sorted(PACKAGE.glob("*.py")):
        refs.file = path.name
        refs.visit(ast.parse(path.read_text(), str(path)))
    unused = {
        name: where for name, where in refs.methods.items() if name not in refs.attributes
    } | {
        name: where for name, where in refs.functions.items() if name not in refs.names | refs.attributes
    }
    unused = {name: where for name, where in unused.items() if not name.startswith("__") and name != "main"}
    assert not unused, f"defined in src/ but referenced nowhere else there: {unused}"


def _sources() -> dict[str, str]:
    """The text of each module of the package, by file name."""
    return {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}


def test_grid_rule_is_written_once():
    # multiplier.check_grid alone decides whether a grid Z_M is usable, and
    # no grid check passes itself off as an out-of-memory error
    source = "".join(_sources().values())
    assert len(re.findall(r"([\w.]+) & \(\1 - 1\)", source)) == 1
    assert "MemoryError" not in source


def test_major_arc_window_is_written_once():
    # multiplier.major_arc_window alone evaluates a major-arc term: the l_hat
    # windows and highlow's Phi spectrum (the window at 0/1) both call it
    source = "".join(_sources().values())
    assert len(re.findall(r"m_hat\([^()]*\) \* cutoff\(", source)) == 1


def test_arc_exponent_is_written_once():
    # the paper's exponent J, of the arc near 0 and of the Siegel-Walfisz
    # range, is tables.ARC_J alone: no other module sets it or takes it
    sources = _sources()
    assert [name for name, text in sources.items() for _ in re.findall(r"\bARC_J = ", text)] == ["tables.py"]
    assert not re.search(r"\bJ: int\b|[\"']J[\"'], \d", "".join(sources.values()))


def test_progression_closed_form_is_written_once():
    # expsums.progression_ramanujan_closed alone evaluates the three-case
    # closed form: the tuple suites check it and farey_points builds every
    # Upsilon from it, through one degenerate-gcd rule and one Upsilon helper
    source = "".join(_sources().values())
    assert source.count("gcd(g, q // g)") == 1
    assert len(re.findall(r"(?<!def )\b_cofactor_shift\(", source)) == 1
    assert source.count("totient[y] / tables.totient[") == 1
    assert not re.search(r"\bgauss_upsilon_closed\b|FareyPoint\.build\b|\b_upsilon_from_progression\b", source)


def test_least_member_rule_is_written_once():
    # the least member of b mod y, b or y at b = 0, is tables.Progression.start alone
    source = "".join(_sources().values())
    assert len(re.findall(r"\bb or (?:self\.|prog\.)?y\b|\bb >= 1 else\b", source)) == 1


def test_table_floor_is_written_once():
    # tables._cached floors every bound at 2; no caller pads its own bound
    source = "".join(_sources().values())
    assert re.findall(r"max\(2, [^()]*\)|max\([^()]*, 2\)", source) == ["max(bound, 2)"]


def test_lambda_is_never_gathered_along_a_progression():
    # Lambda along a progression is read as the strided view
    # von_mangoldt(stop)[prog.start : stop : prog.y], never through an index array
    gathers = [
        f"{name}:{node.lineno}"
        for name, text in _sources().items()
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.Subscript)
        and isinstance(node.value, ast.Call)
        and _dotted(node.value.func).endswith("von_mangoldt")
        and not isinstance(node.slice, ast.Slice)
    ]
    assert not gathers, f"Lambda gathered at {gathers}"
    # the average weights only the prime powers: multiplier reads tables.prime_powers, never the dense table
    assert not re.search(r"\bvon_mangoldt\b", _sources()["multiplier.py"])


def test_average_scale_is_written_once_in_multiplier():
    # _weighted_support returns the average's weights phi(y)/N Lambda(n);
    # the kernel, the chirp sweep and the residual classes take them as they are
    assert _sources()["multiplier.py"].count("phi(prog.y) / N") == 1


def test_scan_verdicts_live_in_scans():
    # both scans own their verdicts: cli reads summary["stable"] or summary["pass"]
    sources = _sources()
    assert [name for name, text in sources.items() if "VARIATION_CAP" in text] == ["scans.py"]
    assert not re.search(r"max_weak_ratio|b_variation|get\(\"weak_ceiling\"", sources["cli.py"])


def test_no_module_imports_another_modules_private_name():
    # a _private name is its module's own: another module that needs it
    # calls the public function built on it instead
    imported = [
        f"{name}: {alias.name}"
        for name, text in _sources().items()
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("primeavg"))
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.startswith("__")
    ]
    assert not imported


# numpy names whose calls reach BLAS or LAPACK: the products and the statistics
# built on them through BLAS; np.linalg and np.polyfit through LAPACK, as do the
# fits and root finders of np.polynomial
BLAS_NAMES = {"dot", "vdot", "inner", "matmul", "tensordot", "cov", "corrcoef", "polyfit", "linalg", "polynomial"}


def _dotted(node) -> str:
    """a.b.c of an attribute chain over a name, else ''."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else ""


def _numpy_blas(name: str) -> bool:
    """Whether the dotted name is np.<one of BLAS_NAMES>..., or the same under numpy."""
    parts = name.split(".")
    return parts[0] in ("np", "numpy") and len(parts) > 1 and parts[1] in BLAS_NAMES


def blas_calls(tree: ast.AST) -> set[int]:
    """Lines of tree that call BLAS or LAPACK, or import a numpy name that does."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            bad = True  # @ and @=
        elif isinstance(node, ast.Attribute):
            # any .dot( or polynomial .fit(, whatever it is called on
            bad = node.attr in ("dot", "fit") or _numpy_blas(_dotted(node))
        elif isinstance(node, ast.Call) and _dotted(node.func).endswith("einsum"):
            # einsum calls BLAS only when asked to optimize its contraction path
            bad = any(kw.arg == "optimize" for kw in node.keywords)
        elif isinstance(node, ast.ImportFrom):
            bad = any(_numpy_blas(f"{node.module}.{alias.name}") for alias in node.names)
        elif isinstance(node, ast.Import):
            bad = any(_numpy_blas(alias.name) for alias in node.names)
        else:
            bad = False
        if bad:
            lines.add(node.lineno)
    return lines


def test_src_makes_no_blas_or_lapack_call():
    # OpenBLAS sums in an order set by its thread count, so a BLAS call made a
    # result depend on OPENBLAS_NUM_THREADS, and the threads each call woke
    # competed with the pool workers; src/ reduces with numpy's own loops
    # (the tests may call BLAS)
    found = [f"{name}:{line}" for name, text in _sources().items() for line in sorted(blas_calls(ast.parse(text)))]
    assert not found, f"BLAS or LAPACK calls in src/: {found}"


@pytest.mark.parametrize(
    "code",
    ["a @ b", "a @= b", "a.dot(b)", "np.dot(a, b)", "numpy.vdot(a, b)", "np.inner(a, b)", "np.matmul(a, b)",
     "np.tensordot(a, b)", "np.cov(a)", "np.corrcoef(a)", "np.linalg.norm(a)", "np.polyfit(x, y, 1)",
     "np.polynomial.Polynomial.fit(x, y, 1)", "Polynomial.fit(x, y, 1)", "np.einsum('i,i->', a, b, optimize=True)",
     "from numpy.linalg import norm", "from numpy import dot", "import numpy.linalg"],
)
def test_blas_guard_catches(code):
    assert blas_calls(ast.parse(code)) == {1}


@pytest.mark.parametrize("code", ["np.einsum('i,i->', a, b)", "np.sum(a * b)", "a * b", "from numpy import fft"])
def test_blas_guard_passes(code):
    assert blas_calls(ast.parse(code)) == set()


def test_scan_floor_rule_is_written_once():
    # both scans admit their progressions through one rule with one message
    assert "".join(_sources().values()).count("desk-scale floor") == 1


def test_recipe_sweeps_are_fixtures_functions_with_hashable_keys():
    # the benchmark tracer rebinds library names in the fixtures module's
    # globals, so a sweep defined elsewhere would run untraced; recipe_groups
    # keys its tasks on (sweep, args).  A fixture a command prints is measured
    # by that command, on one worker where it takes them, so fixtures.py
    # calls none of the entry points the commands own
    from primeavg import cli, fixtures
    from primeavg.fixtures import RECIPES

    text = _sources()["fixtures.py"]
    argvs = [args for sweep, args, _ in RECIPES.values() if sweep is fixtures._command]
    argvs += [(command,) for command in re.findall(r'_command\("([^"]+)"', text)]
    assert len(argvs) > 10
    for name, (sweep, args, _) in RECIPES.items():
        assert sweep.__module__ == "primeavg.fixtures", name
        hash((sweep, args))
    for argv in argvs:
        assert argv[0] in cli.COMMANDS, argv
        if "workers" in cli.COMMANDS[argv[0]][2].split():
            assert argv[argv.index("--workers") + 1] == "1", argv
    named = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.ImportFrom):
            named |= {alias.name for alias in node.names}
        named |= {getattr(node, "id", None), getattr(node, "attr", None)}
    owned = {"approx_residual", "near_zero_error", "improving_scan", "maximal_scan", "bourgain_average",
             "sw_error_report"}
    assert not owned & named


def _tracer():
    """perfbench/tracer.py, loaded by path without installing it."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_names_resolve_in_their_layers():
    # a renamed or removed function would silently zero the tracer's
    # per-layer counters, so every name it binds must exist where it looks
    tracer = _tracer()
    names = [f"{layer}.{name}" for layer, funcs in tracer.COUNTED.items() for name in funcs]
    names += list(tracer.NOTES)
    for group in ("PROFILE_FUNCS", "HIGHLOW_PROFILES", "CELLS", "SCANS", "VERIFY_SUITES"):
        names += list(getattr(tracer, group))
    assert len(names) > 20
    for qualified in names:
        layer, name = qualified.split(".")
        assert layer in tracer.LAYERS, qualified
        assert callable(getattr(importlib.import_module(f"primeavg.{layer}"), name, None)), qualified
