"""Per-layer tracing from outside the program.

`Tracer.install()` wraps the public functions of each `spingarch` layer and
rebinds every module attribute that refers to them, because the modules
import each other's names (`cli.fit_cml`, `neural.standard_errors`, ...).
It also wraps scipy's `minimize` where `estimate` and `neural` call it, and
the objective handed to it, so evaluation counts and the optimizer's own
time are taken at that boundary.  Each call becomes a span (name, parent,
start, end) kept in memory; `layer_metrics()` reduces the spans to the
per-layer metrics and `write()` saves them.

A function that a later refactor removes is reported as absent, and the
metrics built on it read 0.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from typing import Callable, Dict, List, Optional

import numpy as np

# (module, function, span name, work units per call or None)
TARGETS = [
    ("spingarch.cli", "parse_counts_csv", "cli.parse", None),
    ("spingarch.textdoc", "dumps", "textdoc.dumps", None),
    ("spingarch.data", "as_counts", "data.as_counts", None),
    ("spingarch.special", "softplus", "special.softplus", None),
    ("spingarch.model", "conditional_mean_path", "model.mean_path", lambda spec, params, series, *a, **k: len(series)),
    ("spingarch.estimate", "fit_cml", "estimate.fit", None),
    ("spingarch.estimate", "negloglik", "estimate.negloglik", None),
    ("spingarch.estimate", "standard_errors", "estimate.se", None),
    ("spingarch.neural", "fit_neural", "neural.fit", None),
    ("spingarch.neural", "neural_negloglik", "neural.negloglik", None),
    ("spingarch.neural", "neural_gradient", "neural.gradient", None),
    ("spingarch.neural", "slfn_forward", "neural.forward", None),
    ("spingarch.simulate", "simulate_path", "simulate.path", lambda config: config.burn_in + config.length),
    ("spingarch.diagnostics", "pearson_residuals", "diagnostics", None),
    ("spingarch.diagnostics", "sample_acf", "diagnostics", None),
    ("spingarch.diagnostics", "sample_pacf", "diagnostics", None),
    ("spingarch.diagnostics", "cumulative_periodogram", "diagnostics", None),
    ("spingarch.diagnostics", "one_step_forecasts", "diagnostics", None),
    ("spingarch.diagnostics", "rmse", "diagnostics", None),
]

# modules whose calls to scipy.optimize.minimize are wrapped
OPTIMIZER_CALLERS = ("estimate", "neural")

# every per-layer metric, with its unit
METRICS = {
    "estimate.objective_evals": "count",
    "estimate.evals_per_fit": "count",
    "estimate.fit_s": "s",
    "estimate.negloglik_self_s": "s",
    "model.mean_path_self_s": "s",
    "model.ns_per_step": "ns",
    "estimate.se_s": "s",
    "estimate.se_evals": "count",
    "estimate.optimizer_self_s": "s",
    "data.as_counts_calls": "count",
    "data.as_counts_s": "s",
    "simulate.path_s": "s",
    "simulate.ns_per_step": "ns",
    "neural.fit_s": "s",
    "neural.negloglik_self_s": "s",
    "neural.gradient_self_s": "s",
    "neural.se_s": "s",
    "neural.objective_evals": "count",
    "neural.forward_calls": "count",
    "special.softplus_calls": "count",
    "special.softplus_s": "s",
    "diagnostics.s": "s",
    "cli.parse_s": "s",
    "textdoc.dumps_s": "s",
    "trace.op_s": "s",
}


def _numpy(values: array, dtype) -> np.ndarray:
    return np.frombuffer(values, dtype=dtype) if len(values) else np.zeros(0, dtype)


class Tracer:
    """Spans of wrapped calls, kept in flat arrays so long runs stay small."""

    def __init__(self):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.kind = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")
        self._stack = [-1]
        self.absent: List[str] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn: Callable, work: Optional[Callable] = None) -> Callable:
        kind = self._name_id(name)
        clock, stack = time.perf_counter, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.kind)
            self.kind.append(kind)
            self.parent.append(stack[-1])
            self.work.append(work(*args, **kwargs) if work else 0.0)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()

        return traced

    def install(self):
        """Rebind every `spingarch` module attribute that names a target."""
        modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "spingarch"]
        wrapped = {}
        for module_name, attr, span, work in TARGETS:
            try:
                original = getattr(importlib.import_module(module_name), attr, None)
            except ImportError:
                original = None
            if not callable(original):
                self.absent.append(f"{module_name}.{attr}")
                continue
            if id(original) not in wrapped:
                wrapped[id(original)] = self.wrap(span, original, work)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped[id(original)])
        for caller in OPTIMIZER_CALLERS:
            module = sys.modules.get(f"spingarch.{caller}")
            minimize = getattr(module, "minimize", None)
            if minimize is None:
                self.absent.append(f"spingarch.{caller}.minimize")
                continue
            setattr(module, "minimize", self._wrap_minimize(caller, minimize))

    def _wrap_minimize(self, caller: str, minimize: Callable) -> Callable:
        traced_minimize = self.wrap(f"{caller}.minimize", minimize)
        objective_span = f"{caller}.objective"

        @functools.wraps(minimize)
        def call(fun, *args, **kwargs):
            return traced_minimize(self.wrap(objective_span, fun), *args, **kwargs)

        return call

    # -- reduction ---------------------------------------------------------

    def _arrays(self):
        kind, parent = _numpy(self.kind, np.int32), _numpy(self.parent, np.int32)
        dur = _numpy(self.end, float) - _numpy(self.start, float)
        child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0], minlength=dur.size)
        return kind, parent, dur, dur - child

    def _has_ancestor(self, idx: int, name: str, parent) -> bool:
        target = self._ids.get(name)
        idx = parent[idx]
        while idx >= 0:
            if self.kind[idx] == target:
                return True
            idx = parent[idx]
        return False

    def layer_metrics(self, op_s: float) -> Dict[str, float]:
        kind, parent, dur, self_time = self._arrays()
        work = _numpy(self.work, float)

        def mask(name):
            return kind == self._ids[name] if name in self._ids else np.zeros(kind.size, bool)

        def count(name):
            return int(mask(name).sum())

        def total(name, values=dur):
            return float(values[mask(name)].sum())

        def per_step_ns(name):
            steps = float(work[mask(name)].sum())
            return total(name) / steps * 1e9 if steps else 0.0

        se = np.flatnonzero(mask("estimate.se"))
        under_neural = np.array([self._has_ancestor(i, "neural.fit", parent) for i in se], dtype=bool)
        neural_se, linear_se = se[under_neural], se[~under_neural]
        se_evals = sum(1 for i in np.flatnonzero(mask("estimate.negloglik"))
                       if self._has_ancestor(i, "estimate.se", parent))
        fits = count("estimate.fit")
        return {
            "estimate.objective_evals": count("estimate.objective"),
            "estimate.evals_per_fit": count("estimate.objective") / fits if fits else 0.0,
            "estimate.fit_s": total("estimate.fit"),
            "estimate.negloglik_self_s": total("estimate.negloglik", self_time),
            "model.mean_path_self_s": total("model.mean_path", self_time),
            "model.ns_per_step": per_step_ns("model.mean_path"),
            "estimate.se_s": float(dur[linear_se].sum()),
            "estimate.se_evals": se_evals,
            "estimate.optimizer_self_s": total("estimate.minimize", self_time),
            "data.as_counts_calls": count("data.as_counts"),
            "data.as_counts_s": total("data.as_counts"),
            "simulate.path_s": total("simulate.path"),
            "simulate.ns_per_step": per_step_ns("simulate.path"),
            "neural.fit_s": total("neural.fit"),
            "neural.negloglik_self_s": total("neural.negloglik", self_time),
            "neural.gradient_self_s": total("neural.gradient", self_time),
            "neural.se_s": float(dur[neural_se].sum()),
            "neural.objective_evals": count("neural.objective"),
            "neural.forward_calls": count("neural.forward"),
            "special.softplus_calls": count("special.softplus"),
            "special.softplus_s": total("special.softplus"),
            "diagnostics.s": total("diagnostics", self_time),
            "cli.parse_s": total("cli.parse"),
            "textdoc.dumps_s": total("textdoc.dumps"),
            "trace.op_s": op_s,
        }

    def write(self, path):
        """Save the spans: name table, then per span its name id, parent, start and end."""
        kind, parent, _, _ = self._arrays()
        np.savez_compressed(path, names=np.asarray(self.names), kind=kind, parent=parent,
                            start=_numpy(self.start, float), end=_numpy(self.end, float))
