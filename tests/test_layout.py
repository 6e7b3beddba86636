"""Source layout checks: no import hides inside a function body; no private
name crosses a module boundary; one fit driver (only `estimate.py` uses
`scipy.optimize`, and no module runs a Nelder-Mead search); and importing the
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
