"""Source layout rules, as one table read by one walker.

`_facts` parses each module of `src/spingarch` once and yields its facts:
imports, references to and bindings of names and attributes, definitions,
string constants, comparisons with the count bound, loops and
comprehensions, scalar softplus steps and calls, each with its module, its
scope (the dotted path of the enclosing classes and functions, "" at module
level) and its line.  Each row of `RULES` names the facts it reads and where
they may appear: no import hides inside a function body; no private name
crosses a module boundary; no module imports scipy or runs a Nelder-Mead
search; one home each for the lambda-lag solve, the asymptotic series of the
count terms, log x!, the logistic `expit`, float text and the count bound;
one CLI function opens and reads every input file; `model.py` draws nothing
at random; the scalar softplus step is written once in each of model.py's
three scalar loops; the network's draw, mean path, chain start and
`slfn_forward` run its one loop; and no module reads a clock or the
environment.  `test_source_keeps_rule` runs each row over `src/`,
`test_rule_has_teeth` runs each row over a planted violation, and
`test_every_rule_has_one_plant` keeps the two lists of rows the same.

Three checks cannot be stated as a row and stay bespoke: importing the CLI
loads no scipy module, both response types define the interface the README
lists, and each module's `__all__` lists only names the module defines."""

import ast
import math
import os
import re
import subprocess
import sys
from collections import Counter, namedtuple
from fnmatch import fnmatchcase
from functools import cache
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "spingarch"

Fact = namedtuple("Fact", "module scope line kind name")

_LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _dotted(node):
    """a.b.c for a name or an attribute chain; a chain on any other value
    (a call, a subscript) starts with "."."""
    if isinstance(node, ast.Name):
        return node.id
    return f"{_dotted(node.value)}.{node.attr}" if isinstance(node, ast.Attribute) else ""


def _last(dotted):
    return dotted.rsplit(".", 1)[-1]


def _is_step(node):
    """Whether `node` holds log1p(exp(...)), the scalar softplus step."""
    return any(isinstance(n, ast.Call) and _last(_dotted(n.func)) == "log1p" and n.args
               and isinstance(n.args[0], ast.Call) and _last(_dotted(n.args[0].func)) == "exp"
               for n in ast.walk(node))


def _is_bound(node):
    """Whether `node` is the count bound: `COUNT_LIMIT`, an attribute so
    named, or the literal 2**53."""
    return _last(_dotted(node)) == "COUNT_LIMIT" or isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow) \
        and [getattr(node.left, "value", None), getattr(node.right, "value", None)] == [2, 53]


def _kinds(node, prefix):
    """The (kind, name) facts that `node` itself states."""
    if isinstance(node, ast.Import):
        return [("import", alias.name) for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        base = "." * node.level + (f"{node.module}." if node.module else "")
        return [("import", base + alias.name) for alias in node.names]
    if isinstance(node, ast.Name):
        return [("bind" if isinstance(node.ctx, ast.Store) else "ref", node.id)]
    if isinstance(node, ast.Attribute):
        return [("ref", _dotted(node))]
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [("def", prefix + node.name)]
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [("str", node.value)]
    if isinstance(node, ast.Compare):
        return [("bound", ast.unparse(n)) for n in [node.left, *node.comparators] if _is_bound(n)][:1]
    if isinstance(node, _LOOPS):
        return [("loop", type(node).__name__)]
    if isinstance(node, ast.IfExp) and (_is_step(node.body) or _is_step(node.orelse)):
        return [("softplus", "log1p(exp)")]
    if isinstance(node, ast.Call):
        return [("call", _dotted(node.func))]
    return []


def _facts(module, source):
    """Every fact of one module, in source order."""
    found = []

    def visit(node, scope, prefix):
        for child in ast.iter_child_nodes(node):
            found.extend(Fact(module, scope, child.lineno, kind, name) for kind, name in _kinds(child, prefix))
            if isinstance(child, ast.ClassDef):
                visit(child, scope, f"{prefix}{child.name}.")
            elif isinstance(child, _FUNCTIONS):
                inner = prefix + getattr(child, "name", "<lambda>")
                visit(child, inner, inner + ".")
            else:
                visit(child, scope, prefix)

    visit(ast.parse(source, filename=module), "", "")
    return found


def _hits(row, facts):
    """The facts that break `row` as "module:line scope: kind name", then
    "no <need>" for each fact it needs and no module states."""
    hits, seen = [], Counter()
    for f in facts:
        if f.kind in row.reads.split() and re.fullmatch(row.name, f.name, re.S):
            place = f"{f.kind} {f.module}:{f.scope}"
            seen[place] += 1
            if (seen[place] > row.most or not any(fnmatchcase(place, p) for p in row.allow)
                    or any(fnmatchcase(place, p) for p in row.deny)):
                hits.append(f"{f.module}:{f.line} {f.scope or '<module>'}: {f.kind} {f.name}")
    return hits + [f"no {need}" for need in row.needs
                   if not any(fnmatchcase(f"{f.kind} {f.module}:{f.scope} {f.name}", need) for f in facts)]


# A row reads the facts of the kinds in `reads` whose name fully matches the
# regex `name`.  Such a fact breaks the row unless its place, "kind
# module:scope", matches a pattern of `allow` and none of `deny`; it also
# breaks it as the (most + 1)-th at one place.  Each pattern of `needs`,
# matched against "kind module:scope name", must match some fact.
Row = namedtuple("Row", "reads name allow deny most needs", defaults=((), (), math.inf, ()))


def _home(module, scope):
    """Imported or bound only in `module`, referenced only in `scope` there."""
    return [f"import {module}:*", f"bind {module}:*", f"ref {module}:{scope}"]


_LOOP_SCOPES = ("LinearParams.mean_path", "LinearParams.draw_path", "NeuralWeights._run")
_ENTRIES = ("NeuralWeights.draw_path", "NeuralWeights.mean_path", "NeuralWeights.chain_start", "slfn_forward")

RULES = {
    # every import runs at module level, so no import cycle hides in a body
    "function_relative_import": Row("import", r"\..*", allow=["import *:"]),
    "function_absolute_import": Row("import", r"[^.].*", allow=["import *:"]),
    # a private name stays in its module; dunder names such as __version__ are public
    "private_name_import": Row("import", r"\.(.*\.)?_\w*(?<!__)"),
    # numpy is the one runtime dependency, and every fit runs `estimate._newton`
    "scipy_import": Row("import", r"scipy(\..*)?"),
    "nelder_mead_search": Row("str", "Nelder-Mead"),
    # each special routine is used by one helper, the one place to change it
    "lag_adjoint_home": Row("import bind ref", r"(.*\.)?_lag_adjoint", _home("model.py", "*.hessian_parts")),
    "log_gamma_series_home": Row("import bind ref", r"(.*\.)?_LOG_GAMMA_SERIES",
                                 _home("distributions.py", "_log_nb_coef")),
    "gamma_gap_series_home": Row("import bind ref", r"(.*\.)?_(DI|TRI)GAMMA_SERIES",
                                 _home("distributions.py", "_gamma_gaps")),
    "lgamma_home": Row("import bind ref", r"(.*\.)?lgamma", _home("distributions.py", "_log_factorial")),
    # the overflow-free logistic is written once and imported from special.py
    "expit_home": Row("import def", r"(?!\.special\.)(.*\.)?expit", allow=["def special.py:"]),
    # the 17-digit bytes of the determinism contract have one definition
    "float_text_home": Row("def str", r"(.*\.)?format_floats?|.*\.17g.*", allow=["* textdoc.py:*"],
                           needs=["def textdoc.py: format_float", "def textdoc.py: format_floats"]),
    # `CountSeries` states the count rule; `cli._count_error` repeats the
    # bound only to name the offending record of a refused file
    "count_bound_home": Row("bound", ".*", allow=["* data.py:*", "* cli.py:_count_error"]),
    # one reader opens every input file, so the counts file and the grid share its rules
    "one_csv_reader": Row("import ref", r"(.*\.)?open|csv\.reader|(.*\.)?read_(text|bytes)",
                          allow=["ref cli.py:_read_csv"],
                          needs=["ref cli.py:_read_csv open", "ref cli.py:_read_csv csv.reader"]),
    # the draw is passed in by `simulate.simulate_path`, which owns the generator
    "model_draws_nothing": Row("import ref", r"(numpy|np)\.random(\..*)?|(.*\.)?(poisson|standard_gamma)",
                               allow=["*"], deny=["* model.py:*"]),
    # the scalar loops of model.py each write the sign-split softplus step once
    "scalar_softplus_steps": Row("softplus", ".*", allow=[f"* model.py:{s}" for s in _LOOP_SCOPES], most=1),
    # the network recursion is written once, in `NeuralWeights._run`
    "network_entries_run": Row("loop softplus", ".*", allow=["*"],
                               deny=[f"* model.py:{e}{tail}" for e in _ENTRIES for tail in ("", ".*")],
                               needs=[f"call model.py:{e} *_run" for e in _ENTRIES]),
    # the CLI's bytes depend on its inputs alone
    "clock_or_environment": Row("import ref", r"time(\..*)?|os\.(environ|getenv)(\..*)?"
                                r"|(.*\.)?(datetime\.(now|today|utcnow)|date\.today)"),
}


@cache
def _source_facts():
    """The facts of every module of `src/spingarch`, parsed once per run."""
    paths = sorted(SRC.glob("*.py"))
    return tuple(f for path in paths for f in _facts(path.name, path.read_text(encoding="utf-8")))


def test_source_is_walked():
    assert _source_facts(), f"no modules under {SRC}"


@pytest.mark.parametrize("name", list(RULES))
def test_source_keeps_rule(name):
    hits = _hits(RULES[name], _source_facts())
    assert not hits, f"layout rule {name} broken: " + ", ".join(hits)


_IMPORTS = "import math\ndef f():\n    from datetime import datetime\n    import os\n    from . import data\n"
_SCIPY = (
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

# (row, module, planted source, the hits it gives)
PLANTS = [
    ("function_relative_import", "cli.py", _IMPORTS, ["cli.py:5 f: import .data"]),
    ("function_absolute_import", "cli.py", _IMPORTS, ["cli.py:3 f: import datetime.datetime", "cli.py:4 f: import os"]),
    ("private_name_import", "cli.py",
     "from scipy import special as _sps\nfrom . import __version__\nfrom .model import ModelSpec as _Spec\n"
     "from .model import _pre_sample\nfrom .estimate import OptimizerOptions, _fit\n"
     "def f():\n    from ..model import _lag_matrix\n",
     ["cli.py:4 <module>: import .model._pre_sample", "cli.py:5 <module>: import .estimate._fit",
      "cli.py:7 f: import ..model._lag_matrix"]),
    ("scipy_import", "estimate.py", _SCIPY,
     [f"estimate.py:{line} <module>: import {name}" for line, name in [
         (1, "scipy.optimize.minimize"), (2, "scipy.optimize"), (3, "scipy.optimize"), (3, "scipy.special"),
         (4, "scipy.linalg.lapack"), (5, "scipy.special.expit"), (7, "scipy")]]),
    ("nelder_mead_search", "estimate.py", _SCIPY, ["estimate.py:6 <module>: str Nelder-Mead"]),
    ("lag_adjoint_home", "model.py",
     "from .model import _lag_adjoint\nsolve = _lag_adjoint\nclass LinearParams:\n"
     "    def hessian_parts(self, r, partials):\n        return _lag_adjoint(r, partials)\n"
     "    def mean_path(self, r, partials):\n        return model._lag_adjoint(r, partials)\n",
     ["model.py:2 <module>: ref _lag_adjoint", "model.py:7 LinearParams.mean_path: ref model._lag_adjoint"]),
    ("log_gamma_series_home", "distributions.py",
     "_LOG_GAMMA_SERIES = (1 / 12,)\nBIAS = _LOG_GAMMA_SERIES[0]\ndef _log_nb_coef(z):\n"
     "    return _LOG_GAMMA_SERIES[0] / z\ndef _gamma_gaps(z):\n    return _LOG_GAMMA_SERIES[0] / z\n",
     ["distributions.py:2 <module>: ref _LOG_GAMMA_SERIES", "distributions.py:6 _gamma_gaps: ref _LOG_GAMMA_SERIES"]),
    ("gamma_gap_series_home", "model.py",
     "from .distributions import _DIGAMMA_SERIES\n_TRIGAMMA_SERIES = (1 / 6,)\ndef _gamma_gaps(z):\n"
     "    return distributions._TRIGAMMA_SERIES[0] / z\n",
     ["model.py:1 <module>: import .distributions._DIGAMMA_SERIES", "model.py:2 <module>: bind _TRIGAMMA_SERIES",
      "model.py:4 _gamma_gaps: ref distributions._TRIGAMMA_SERIES"]),
    ("lgamma_home", "distributions.py",
     "import math\ndef _log_factorial(v):\n    return [math.lgamma(c + 1.0) for c in v]\n"
     "def forward(v):\n    return math.lgamma(v + 1.0)\n",
     ["distributions.py:5 forward: ref math.lgamma"]),
    ("expit_home", "model.py",
     "from .special import expit\nfrom scipy.special import expit\ndef expit(x):\n    return x\n",
     ["model.py:2 <module>: import scipy.special.expit", "model.py:3 <module>: def expit"]),
    ("float_text_home", "cli.py",
     "from .textdoc import format_float, format_floats\ndef format_floats(values):\n"
     "    return ','.join('%.17g' % v for v in values)\ndef f(v):\n"
     "    return format(v, '.17g') + f'{v:.17g}' + '{:.17g}'.format(v) + format(v, '.16g')\n"
     "class C:\n    def format_float(self, v):\n        return format_float(v)\n",
     ["cli.py:2 <module>: def format_floats", "cli.py:3 format_floats: str %.17g", "cli.py:5 f: str .17g",
      "cli.py:5 f: str .17g", "cli.py:5 f: str {:.17g}", "cli.py:7 <module>: def C.format_float",
      "no def textdoc.py: format_float", "no def textdoc.py: format_floats"]),
    ("count_bound_home", "cli.py",
     "from .data import COUNT_LIMIT\nLIMIT = COUNT_LIMIT\nok = 1 < data.COUNT_LIMIT\ndef parse(values):\n"
     "    if not np.all((values >= 0) & (values < COUNT_LIMIT)):\n        raise ValueError\n"
     "    return np.any(values >= 2.0**53) or values[0] == 2 ** 53 or values[0] < 2 ** 52\n"
     "def _count_error(value):\n    return value >= COUNT_LIMIT\n",
     ["cli.py:3 <module>: bound data.COUNT_LIMIT", "cli.py:5 parse: bound COUNT_LIMIT",
      "cli.py:7 parse: bound 2.0 ** 53", "cli.py:7 parse: bound 2 ** 53"]),
    ("one_csv_reader", "cli.py",
     "import csv\nfrom csv import reader\nfrom io import open\ndef _read_csv(path):\n"
     "    with open(path) as fh:\n        return list(csv.reader(fh))\ndef parse(path):\n"
     "    with path.open() as fh:\n        rows = list(csv.reader(fh))\n"
     "    return Path(path).read_text() + open(path).read()\n",
     ["cli.py:2 <module>: import csv.reader", "cli.py:3 <module>: import io.open", "cli.py:8 parse: ref path.open",
      "cli.py:9 parse: ref csv.reader", "cli.py:10 parse: ref .read_text", "cli.py:10 parse: ref open"]),
    ("model_draws_nothing", "model.py",
     "import numpy as np\nimport numpy.random\nfrom numpy.random import default_rng\nfrom numpy import random\n"
     "gen = np.random.default_rng(1)\nx = gen.poisson(3.0)\ndraw = gen.standard_gamma\n"
     "def f(draw, lam):\n    return draw(lam)\n",
     [f"model.py:{line} <module>: {fact}" for line, fact in [
         (2, "import numpy.random"), (3, "import numpy.random.default_rng"), (4, "import numpy.random"),
         (5, "ref np.random.default_rng"), (5, "ref np.random"), (6, "ref gen.poisson"),
         (7, "ref gen.standard_gamma")]]),
    ("scalar_softplus_steps", "model.py",
     "from math import exp, log1p\ny = log1p(exp(1.0)) if True else 0.0\ndef draw(e, c):\n"
     "    a = e + c * log1p(exp(-e / c)) if e > 0.0 else c * log1p(exp(e / c))\n"
     "    b = math.log1p(math.exp(e)) if e < 30.0 else e\n    d = log1p(e) if e > 0.0 else exp(e)\n"
     "    def step(z):\n        return z + log1p(exp(-z)) if z > 0.0 else log1p(exp(z))\n"
     "    return a, b, d, step, lambda z: 0.0 if z else log1p(exp(z))\n"
     "class NeuralWeights:\n    def _run(self, z):\n"
     "        a = z + log1p(exp(-z)) if z > 0.0 else log1p(exp(z))\n        return log1p(exp(a)) if a else a\n",
     ["model.py:2 <module>: softplus log1p(exp)", "model.py:4 draw: softplus log1p(exp)",
      "model.py:5 draw: softplus log1p(exp)", "model.py:8 draw.step: softplus log1p(exp)",
      "model.py:9 draw.<lambda>: softplus log1p(exp)", "model.py:13 NeuralWeights._run: softplus log1p(exp)"]),
    ("network_entries_run", "model.py",
     "class NeuralWeights:\n    def draw_path(self, spec, draw, mixing):\n"
     "        return self._run([], [], draw, mixing, 1.0)\n    def mean_path(self, spec, x, presample):\n"
     "        lams = [self._run([v], [], float, (1.0,), 1.0)[0] for v in x]\n"
     "        while lams:\n            lams.pop()\n    def chain_start(self, spec):\n"
     "        for u in self.u1:\n            z = u + log1p(exp(-u)) if u > 0.0 else log1p(exp(u))\n"
     "        return z\ndef draw_path(draw):\n    for g in range(3):\n        draw(g)\n",
     ["model.py:5 NeuralWeights.mean_path: loop ListComp", "model.py:6 NeuralWeights.mean_path: loop While",
      "model.py:9 NeuralWeights.chain_start: loop For", "model.py:10 NeuralWeights.chain_start: softplus log1p(exp)",
      "no call model.py:NeuralWeights.chain_start *_run", "no call model.py:slfn_forward *_run"]),
    ("clock_or_environment", "cli.py",
     "import os, time\nfrom time import perf_counter\nfrom datetime import date, datetime\nimport datetime as dt\n"
     "stamp = datetime.fromisoformat('2024-03-10T00:00')\n"
     "now = datetime.now() or dt.datetime.utcnow() or date.today() or datetime.today()\n"
     "home = os.environ.get('HOME') or os.getenv('HOME')\nfrom os import environ\n",
     [f"cli.py:{line} <module>: {fact}" for line, fact in [
         (1, "import time"), (2, "import time.perf_counter"), (6, "ref datetime.now"),
         (6, "ref dt.datetime.utcnow"), (6, "ref date.today"), (6, "ref datetime.today"),
         (7, "ref os.environ.get"), (7, "ref os.environ"), (7, "ref os.getenv"), (8, "import os.environ")]]),
]


def test_every_rule_has_one_plant():
    assert list(RULES) == [name for name, *_ in PLANTS], "every row has one planted violation"


@pytest.mark.parametrize("name, module, source, expected", PLANTS, ids=[p[0] for p in PLANTS])
def test_rule_has_teeth(name, module, source, expected):
    assert _hits(RULES[name], _facts(module, source)) == expected


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
