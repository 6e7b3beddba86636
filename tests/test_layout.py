"""Source layout checks: no import hides inside a function body; no private
name crosses a module boundary; one fit driver (only `estimate.py` uses
`scipy.optimize`, only `estimate._fit` calls `minimize`, and no module runs a
Nelder-Mead search); and importing the
package loads no scipy subpackage beyond those of `scipy.optimize` and
`scipy.special`."""

import ast
import functools
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "spingarch"


class _FunctionImports(ast.NodeVisitor):
    """(function, line, relative) for every import inside a function body."""

    def __init__(self):
        self.stack = []
        self.found = []

    def visit_FunctionDef(self, node):
        self.stack.append(node.name)
        self.generic_visit(node)
        self.stack.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Import(self, node):
        if self.stack:
            self.found.append((self.stack[-1], node.lineno, bool(getattr(node, "level", 0))))

    visit_ImportFrom = visit_Import


def _function_imports(source, filename="<source>"):
    finder = _FunctionImports()
    finder.visit(ast.parse(source, filename=filename))
    return finder.found


def _offenders(relative):
    paths = sorted(SRC.glob("*.py"))
    assert paths, f"no modules under {SRC}"
    return [f"{path.name}:{line} in {func}()"
            for path in paths
            for func, line, rel in _function_imports(path.read_text(encoding="utf-8"), str(path))
            if rel == relative]


def test_no_function_level_relative_imports():
    offenders = _offenders(relative=True)
    assert not offenders, "relative imports inside functions: " + ", ".join(offenders)


def test_no_function_level_absolute_imports():
    offenders = _offenders(relative=False)
    assert not offenders, "absolute imports inside functions: " + ", ".join(offenders)


def test_function_import_check_has_teeth():
    source = (
        "import math\n"
        "def f():\n"
        "    from datetime import datetime\n"
        "    import os\n"
        "    from . import data\n"
    )
    assert _function_imports(source) == [("f", 3, False), ("f", 4, False), ("f", 5, True)]


def _private_imports(tree):
    """(line, name) for every `from .<module> import _<name>`; dunder names
    such as `__version__` are public, and imports from outside the package
    (`from scipy import special as _sps`) are not package names at all."""
    return [(node.lineno, alias.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level
            for alias in node.names
            if alias.name.startswith("_") and not alias.name.endswith("__")]


def test_no_private_names_across_modules():
    offenders = [f"{path.name}:{line} imports {name}"
                 for path in sorted(SRC.glob("*.py"))
                 for line, name in _private_imports(ast.parse(path.read_text(encoding="utf-8"), str(path)))]
    assert not offenders, "private names imported from another module: " + ", ".join(offenders)


def test_private_import_check_has_teeth():
    source = (
        "from scipy import special as _sps\n"
        "from . import __version__\n"
        "from .model import ModelSpec as _Spec\n"
        "from .model import _pre_sample\n"
        "from .estimate import OptimizerOptions, _fit\n"
        "def f():\n"
        "    from ..model import _lag_matrix\n"
    )
    assert _private_imports(ast.parse(source)) == [(4, "_pre_sample"), (5, "_fit"), (7, "_lag_matrix")]


def _optimizer_uses(tree):
    """(line, what) for every import from scipy.optimize and every call
    passing method="Nelder-Mead"."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("scipy.optimize"):
            found.append((node.lineno, "imports scipy.optimize"))
        elif isinstance(node, ast.Import) and any(a.name.startswith("scipy.optimize") for a in node.names):
            found.append((node.lineno, "imports scipy.optimize"))
        elif isinstance(node, ast.Call) and any(
            kw.arg == "method" and isinstance(kw.value, ast.Constant) and kw.value.value == "Nelder-Mead"
            for kw in node.keywords
        ):
            found.append((node.lineno, "calls Nelder-Mead"))
    return found


def test_one_fit_driver():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for line, what in _optimizer_uses(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if what == "calls Nelder-Mead" or path.name != "estimate.py":
                offenders.append(f"{path.name}:{line} {what}")
    assert not offenders, "outside the one fit driver: " + ", ".join(offenders)


def test_one_fit_driver_check_has_teeth():
    source = (
        "from scipy.optimize import minimize\n"
        "import scipy.optimize\n"
        "minimize(f, x0, method='Nelder-Mead')\n"
    )
    assert [what for _, what in _optimizer_uses(ast.parse(source))] == [
        "imports scipy.optimize", "imports scipy.optimize", "calls Nelder-Mead"]


def _minimize_calls(tree):
    """(line, enclosing function) for every call of `minimize` or
    `<module>.minimize`, None at module level."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call) and (
                    (isinstance(child.func, ast.Name) and child.func.id == "minimize")
                    or (isinstance(child.func, ast.Attribute) and child.func.attr == "minimize")):
                found.append((child.lineno, func))
            visit(child, func)

    visit(tree, None)
    return found


def test_one_minimize_call_site():
    # every fit, linear or neural, scaled or not, runs through `estimate._fit`
    sites = [f"{path.name} in {func or 'module scope'}"
             for path in sorted(SRC.glob("*.py"))
             for _, func in _minimize_calls(ast.parse(path.read_text(encoding="utf-8"), str(path)))]
    assert sites == ["estimate.py in _fit"], f"minimize call sites: {sites}"


def test_minimize_call_check_has_teeth():
    source = (
        "import scipy.optimize as opt\n"
        "from scipy.optimize import minimize\n"
        "res = minimize(f, x0)\n"
        "def _fit(f, x0):\n"
        "    return minimize(f, x0, method='L-BFGS-B')\n"
        "def polish(f, x0):\n"
        "    best = min(x0)\n"
        "    return opt.minimize(f, best)\n"
    )
    assert _minimize_calls(ast.parse(source)) == [(3, None), (5, "_fit"), (8, "polish")]


def _scipy_subpackages(code):
    """The scipy subpackages (`scipy.<name>`) in sys.modules after running
    `code` in a fresh interpreter that finds this checkout's package first."""
    probe = code + "\nimport sys\nprint(' '.join(sorted({'.'.join(m.split('.')[:2]) "
    probe += "for m in sys.modules if m.startswith('scipy.')})))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    return set(out.stdout.split())


@functools.lru_cache(maxsize=None)
def _scipy_floor():
    return _scipy_subpackages("import scipy.optimize, scipy.special")


def test_package_import_loads_no_extra_scipy():
    # scipy.stats alone adds about 0.4 s to every command's start-up
    loaded = _scipy_subpackages("import spingarch.cli")
    assert "scipy.stats" not in loaded
    assert loaded <= _scipy_floor(), f"scipy subpackages beyond optimize and special: {sorted(loaded - _scipy_floor())}"


def test_scipy_import_check_has_teeth():
    assert "scipy.stats" in _scipy_subpackages("import spingarch.cli, scipy.stats") - _scipy_floor()


def _dtbtrs_uses(tree):
    """(line, where) for every reference to the name `dtbtrs`: "import" for
    an import of it, else the enclosing function, None at module level."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.ImportFrom) and any(a.name == "dtbtrs" for a in child.names):
                found.append((child.lineno, "import"))
            elif (isinstance(child, ast.Name) and child.id == "dtbtrs") or (
                    isinstance(child, ast.Attribute) and child.attr == "dtbtrs"):
                found.append((child.lineno, func))
            visit(child, func)

    visit(tree, None)
    return found


def test_one_home_for_the_band_solve():
    # the lambda-lag band of both passes, reverse and forward, is solved by
    # one helper: `model._lag_adjoint`
    offenders = [f"{path.name}:{line} in {where or 'module scope'}"
                 for path in sorted(SRC.glob("*.py"))
                 for line, where in _dtbtrs_uses(ast.parse(path.read_text(encoding="utf-8"), str(path)))
                 if path.name != "model.py" or where not in ("import", "_lag_adjoint")]
    assert not offenders, "dtbtrs outside model._lag_adjoint: " + ", ".join(offenders)


def test_band_solve_check_has_teeth():
    source = (
        "from scipy.linalg.lapack import dtbtrs\n"
        "import scipy.linalg.lapack as lapack\n"
        "solve = dtbtrs\n"
        "def _lag_adjoint(ab, r):\n"
        "    return dtbtrs(ab, r)\n"
        "def forward(ab, r):\n"
        "    return lapack.dtbtrs(ab, r, uplo='L')\n"
    )
    assert _dtbtrs_uses(ast.parse(source)) == [(1, "import"), (3, None), (5, "_lag_adjoint"), (7, "forward")]
