"""Source layout checks: no import hides inside a function body; no private
name crosses a module boundary; no module imports scipy (the runtime is numpy
alone, and the fit driver is `estimate`'s own trust-region Newton) or runs a
Nelder-Mead search; importing the CLI loads no scipy module; one home each
for the lambda-lag solve, the asymptotic series of the count terms, log x!
and the logistic `expit`; `model.py` draws nothing at random and writes the
scalar softplus step once per scalar loop; both response types define the one
interface the README lists; and each module's `__all__` lists only names the
module defines."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

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


def _is_scipy(module):
    return module == "scipy" or module.startswith("scipy.")


def _scipy_uses(tree):
    """(line, what) for every import of or from scipy or a scipy submodule and
    every call passing method="Nelder-Mead"."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and not node.level and _is_scipy(node.module or ""):
            found.append((node.lineno, "imports scipy"))
        elif isinstance(node, ast.Import) and any(_is_scipy(a.name) for a in node.names):
            found.append((node.lineno, "imports scipy"))
        elif isinstance(node, ast.Call) and any(
            kw.arg == "method" and isinstance(kw.value, ast.Constant) and kw.value.value == "Nelder-Mead"
            for kw in node.keywords
        ):
            found.append((node.lineno, "calls Nelder-Mead"))
    return sorted(found)


def test_numpy_only_runtime():
    # numpy is the one runtime dependency, and every fit, linear or neural,
    # runs `estimate._newton` on the exact Hessian
    offenders = [f"{path.name}:{line} {what}"
                 for path in sorted(SRC.glob("*.py"))
                 for line, what in _scipy_uses(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))]
    assert not offenders, "scipy or Nelder-Mead: " + ", ".join(offenders)


def test_numpy_only_check_has_teeth():
    source = (
        "from scipy.optimize import minimize\n"
        "import scipy.optimize\n"
        "from scipy import optimize, special\n"
        "import scipy.linalg.lapack as lapack\n"
        "from scipy.special import expit\n"
        "minimize(f, x0, method='Nelder-Mead')\n"
        "import scipy, numpy\n"
        "import scipyish\n"
        "from .scipy import special\n"
    )
    assert _scipy_uses(ast.parse(source)) == [
        (1, "imports scipy"), (2, "imports scipy"), (3, "imports scipy"), (4, "imports scipy"),
        (5, "imports scipy"), (6, "calls Nelder-Mead"), (7, "imports scipy")]


def _scipy_modules(code):
    """The scipy modules in sys.modules after running `code` in a fresh
    interpreter that finds this checkout's package first."""
    probe = code + "\nimport sys\nprint(' '.join(sorted(m for m in sys.modules if m.startswith('scipy'))))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    return set(out.stdout.split())


def test_cli_import_loads_no_scipy():
    # importing scipy.special and scipy.linalg took about 0.3 s of every
    # command's start-up and about 26 MB
    loaded = _scipy_modules("import spingarch.cli")
    assert not loaded, f"scipy modules loaded by the CLI: {sorted(loaded)}"


def test_scipy_module_check_has_teeth():
    assert {"scipy", "scipy.special"} <= _scipy_modules("import spingarch.cli, scipy.special")


def _name_uses(tree, name):
    """(line, where) for every reference to `name`: "import" for an import of
    it, "bind" for an assignment to it, else the enclosing function, None at
    module level."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.ImportFrom) and any(a.name == name for a in child.names):
                found.append((child.lineno, "import"))
            elif isinstance(child, ast.Name) and child.id == name and isinstance(child.ctx, ast.Store):
                found.append((child.lineno, "bind"))
            elif (isinstance(child, ast.Name) and child.id == name) or (
                    isinstance(child, ast.Attribute) and child.attr == name):
                found.append((child.lineno, func))
            visit(child, func)

    visit(tree, None)
    return found


@pytest.mark.parametrize("name, module, home", [
    ("_lag_adjoint", "model.py", "hessian_parts"),  # the lambda-lag band of both derivative passes
    ("_LOG_GAMMA_SERIES", "distributions.py", "_log_nb_coef"),  # the NB coefficient past its sums
    ("_DIGAMMA_SERIES", "distributions.py", "_gamma_gaps"),  # the gaps of every dispersion derivative
    ("_TRIGAMMA_SERIES", "distributions.py", "_gamma_gaps"),
    ("lgamma", "distributions.py", "_log_factorial"),  # log x! of the Poisson terms
])
def test_one_home_for_a_special_routine(name, module, home):
    # each routine is used by one helper (or the methods of one name), the
    # one place to change it
    offenders = [f"{path.name}:{line} in {where or 'module scope'}"
                 for path in sorted(SRC.glob("*.py"))
                 for line, where in _name_uses(ast.parse(path.read_text(encoding="utf-8"), str(path)), name)
                 if path.name != module or where not in ("import", "bind", home)]
    assert not offenders, f"{name} outside {module[:-3]}.{home}: " + ", ".join(offenders)


def test_one_home_check_has_teeth():
    source = (
        "import math\n"
        "from .model import _lag_adjoint\n"
        "solve = _lag_adjoint\n"
        "def hessian_parts(r, partials):\n"
        "    return _lag_adjoint(r, partials)\n"
        "def forward(v):\n"
        "    return math.lgamma(v + 1.0)\n"
        "_SERIES = (1 / 12,)\n"
        "def _gaps(z):\n"
        "    return _SERIES[0] / z\n"
    )
    assert _name_uses(ast.parse(source), "_lag_adjoint") == [(2, "import"), (3, None), (5, "hessian_parts")]
    assert _name_uses(ast.parse(source), "lgamma") == [(7, "forward")]
    assert _name_uses(ast.parse(source), "_SERIES") == [(8, "bind"), (10, "_gaps")]
    assert _name_uses(ast.parse(source), "_DIGAMMA_SERIES") == []


def _expit_sources(tree):
    """(line, module) for every import of `expit`, and (line, "def") for every
    function so named."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and any(a.name == "expit" for a in node.names):
            found.append((node.lineno, "." * node.level + (node.module or "")))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "expit":
            found.append((node.lineno, "def"))
    return found


def test_one_home_for_expit():
    # the overflow-free logistic is written once, in special.py, and imported from there
    offenders = [f"{path.name}:{line} {what}"
                 for path in sorted(SRC.glob("*.py"))
                 for line, what in _expit_sources(ast.parse(path.read_text(encoding="utf-8"), str(path)))
                 if what != (".special" if path.name != "special.py" else "def")]
    assert not offenders, "expit defined or imported outside special.py: " + ", ".join(offenders)


def test_expit_check_has_teeth():
    source = (
        "from .special import expit\n"
        "from scipy.special import expit\n"
        "def expit(x):\n"
        "    return x\n"
    )
    assert _expit_sources(ast.parse(source)) == [(1, ".special"), (2, "scipy.special"), (3, "def")]


_DRAW_NAMES = ("poisson", "standard_gamma")


def _random_draws(tree):
    """(line, what) for every use of `numpy.random` (an import of it, from it,
    or an attribute `random` of numpy) and every reference to an attribute
    named `poisson` or `standard_gamma`."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy.random"):
            found.append((node.lineno, "numpy.random"))
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy" and any(
                a.name == "random" for a in node.names):
            found.append((node.lineno, "numpy.random"))
        elif isinstance(node, ast.Import) and any(a.name.startswith("numpy.random") for a in node.names):
            found.append((node.lineno, "numpy.random"))
        elif isinstance(node, ast.Attribute) and node.attr == "random" and isinstance(node.value, ast.Name) \
                and node.value.id in ("np", "numpy"):
            found.append((node.lineno, "numpy.random"))
        elif isinstance(node, ast.Attribute) and node.attr in _DRAW_NAMES:
            found.append((node.lineno, f".{node.attr}"))
    return sorted(found)


def test_model_draws_nothing():
    # the response types run the recursion; the draw is passed in by
    # `simulate.simulate_path`, which owns the generator
    path = SRC / "model.py"
    found = _random_draws(ast.parse(path.read_text(encoding="utf-8"), str(path)))
    assert not found, "random draws in model.py: " + ", ".join(f"line {line} {what}" for line, what in found)


def test_model_draw_check_has_teeth():
    source = (
        "import numpy as np\n"
        "import numpy.random\n"
        "from numpy.random import default_rng\n"
        "from numpy import random\n"
        "gen = np.random.default_rng(1)\n"
        "x = gen.poisson(3.0)\n"
        "draw = gen.standard_gamma\n"
        "def f(draw, lam):\n"
        "    return draw(lam)\n"
    )
    assert _random_draws(ast.parse(source)) == [
        (2, "numpy.random"), (3, "numpy.random"), (4, "numpy.random"), (5, "numpy.random"),
        (6, ".poisson"), (7, ".standard_gamma")]


def _public_methods(tree, name):
    """The public methods, properties aside, that class `name` of a parsed
    module defines in its own body."""
    cls = next(node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == name)
    return {node.name for node in cls.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_")
            and not any(isinstance(d, ast.Name) and d.id == "property" for d in node.decorator_list)}


def test_response_types_share_the_readme_interface():
    # the link is decided by the parameter type alone, so every caller can
    # treat LinearParams and NeuralWeights alike
    path = SRC / "model.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    linear, neural = _public_methods(tree, "LinearParams"), _public_methods(tree, "NeuralWeights")
    assert linear == neural, f"only LinearParams: {sorted(linear - neural)}; only NeuralWeights: {sorted(neural - linear)}"
    readme = (SRC.parents[1] / "README.md").read_text(encoding="utf-8")
    listed = re.search(r"share\s+one\s+small\s+interface\s+\(([^)]*)\)", readme)
    assert listed, "README no longer lists the shared interface"
    assert linear == set(re.findall(r"`(\w+)`", listed.group(1)))


def test_interface_check_has_teeth():
    source = (
        "class A:\n"
        "    @property\n"
        "    def p(self):\n"
        "        return 1\n"
        "    def k(self):\n"
        "        return 1\n"
        "    @classmethod\n"
        "    def from_flat(cls, flat):\n"
        "        return cls()\n"
        "    def vjp(self, r):\n"
        "        return r\n"
        "    def _helper(self):\n"
        "        def inner():\n"
        "            pass\n"
        "class B(A):\n"
        "    def check(self):\n"
        "        pass\n"
    )
    tree = ast.parse(source)
    assert _public_methods(tree, "A") == {"k", "from_flat", "vjp"}
    assert _public_methods(tree, "B") == {"check"}


def _called(node):
    """The name a call node calls: `f` for f(...) and for m.f(...)."""
    func = node.func if isinstance(node, ast.Call) else None
    return getattr(func, "id", None) or getattr(func, "attr", None)


def _softplus_steps(tree):
    """(function, line) for every conditional expression with a branch that
    calls log1p(exp(...)), the scalar softplus step, under the innermost
    function that encloses it (None at module level)."""
    def step(node):
        return any(_called(n) == "log1p" and n.args and _called(n.args[0]) == "exp" for n in ast.walk(node))

    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                visit(child, getattr(child, "name", "<lambda>"))
                continue
            if isinstance(child, ast.IfExp) and (step(child.body) or step(child.orelse)):
                found.append((func, child.lineno))
            visit(child, func)

    visit(tree, None)
    return found


def test_one_scalar_softplus_step_per_loop():
    # the scalar loops of model.py (the linear mean path, the linear draw loop
    # and the scalar network) each write the sign-split softplus step once
    path = SRC / "model.py"
    found = _softplus_steps(ast.parse(path.read_text(encoding="utf-8"), str(path)))
    per_function = {}
    for func, line in found:
        per_function.setdefault(func, []).append(line)
    repeated = {func: lines for func, lines in per_function.items() if len(lines) > 1}
    assert not repeated, f"scalar softplus step written more than once in: {repeated}"
    assert len(found) <= 3, f"{len(found)} scalar softplus steps in model.py: {found}"


def test_softplus_step_check_has_teeth():
    source = (
        "import math\n"
        "from math import exp, log1p\n"
        "y = log1p(exp(1.0)) if True else 0.0\n"
        "def draw(e, c):\n"
        "    a = e + c * log1p(exp(-e / c)) if e > 0.0 else c * log1p(exp(e / c))\n"
        "    b = math.log1p(math.exp(e)) if e < 30.0 else e\n"
        "    d = log1p(e) if e > 0.0 else exp(e)\n"
        "    def step(z):\n"
        "        return z + log1p(exp(-z)) if z > 0.0 else log1p(exp(z))\n"
        "    return a, b, d, step, lambda z: 0.0 if z else log1p(exp(z))\n"
    )
    assert _softplus_steps(ast.parse(source)) == [(None, 3), ("draw", 5), ("draw", 6), ("step", 9),
                                                  ("<lambda>", 10)]


def _foreign_exports(tree):
    """The names of a module's `__all__` that no module-level `def`, `class`
    or assignment binds: re-exports of an imported name, or names bound only
    inside a function."""
    own, listed = set(), []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            own.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
            own |= names
            if "__all__" in names:
                listed = ast.literal_eval(node.value)
    return [name for name in listed if name not in own]


def test_all_lists_only_own_names():
    # a public name has one home: the module that defines it exports it
    offenders = [f"{path.name} exports {name}"
                 for path in sorted(SRC.glob("*.py"))
                 for name in _foreign_exports(ast.parse(path.read_text(encoding="utf-8"), str(path)))]
    assert not offenders, "names in __all__ that the module only imports: " + ", ".join(offenders)


def test_own_names_check_has_teeth():
    source = (
        "from .data import sample_acf\n"
        "import numpy as np\n"
        "__all__ = ['f', 'C', 'X', 'Y', 'Z', 'sample_acf', 'np']\n"
        "def f():\n"
        "    Z = 1\n"
        "class C:\n"
        "    pass\n"
        "X = Y0 = 1\n"
        "Y: int = 2\n"
    )
    assert _foreign_exports(ast.parse(source)) == ["Z", "sample_acf", "np"]
