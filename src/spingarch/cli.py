"""Command-line front end: CSV ingestion, the five workflows, serialization.

Subcommands: `simulate`, `fit`, `moments`, `study`, `diagnose`, `forecast`;
each accepts only the options it reads, rejects a value out of range as it
parses, and records the options it read, given or defaulted, in every output,
so that passing the record back replays the run.  Every run is fully
determined by its flags and input file -- no clocks, no hidden state -- so
rerunning a command reproduces its outputs byte for byte.
Exit codes: 0 ok, 1 usage, 2 parse, 3 numeric, 4 non-convergence, of every
candidate with a --model list (the fit document is still written).
"""

from __future__ import annotations

import argparse
import csv
import locale  # noqa: F401 -- argparse's gettext imports it at the first parser; load it with the CLI
import math
import re
import shlex
import sys
import warnings
from dataclasses import asdict, dataclass, field, fields, replace
from datetime import datetime
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .data import CountSeries, dispersion_ratio, sample_acf
from .diagnostics import cumulative_periodogram, one_step_forecasts, pearson_residuals, rmse, sample_pacf
from .distributions import RngStream
from .estimate import FitResult, OptimizerOptions, fit_cml, fit_neural, select_fit
from .exceptions import DataError, NumericError, ParameterError
from .model import NEGBIN, NEURAL, POISSON, SOFTPLUS_LINEAR, LinearParams, ModelSpec, NeuralWeights
from .simulate import SimConfig, moment_study, simulate_path, simulation_study
from .textdoc import dumps, format_float

__all__ = ["RunConfig", "parse_counts_csv", "run", "main", "entry", "fit_to_tree", "fit_from_tree"]

_ARTIFACT = f"spingarch {__version__}"


class UsageError(Exception):
    """Invalid invocation; maps to exit code 1."""


class _Numbers:
    """An argparse type: a `kind` value >= `low`, or with `many` a comma-separated list of them."""

    def __init__(self, kind, low=None, many=False):
        self.kind, self.low, self.many = kind, low, many

    def __call__(self, text: str):
        try:
            values = tuple(map(self.kind, text.split(","))) if text.strip() or not self.many else ()
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {self.kind.__name__} values, got {text!r}") from None
        if self.low is not None and (not values or min(values) < self.low):
            raise argparse.ArgumentTypeError(f"expected values >= {self.low}, got {text!r}")
        return values if self.many else values[0]


_NONNEGATIVE, _POSITIVE, _FLOATS = _Numbers(int, 0), _Numbers(int, 1), _Numbers(float, many=True)


def _option(default=None, flag=None, **settings):
    """A RunConfig field set by one option: its default and argparse settings; the
    flag is `--` and the field name with `-` for `_`, unless `flag` names it."""
    return field(default=default, metadata={"flag": flag, "settings": settings})


@dataclass
class RunConfig:
    """Everything that determines a run, gathered from the command line; each
    field but `command` declares its option once, through `_option`."""

    command: str
    input: Optional[str] = _option(flag="input", help="counts CSV")
    out: Optional[str] = _option()
    family: str = _option(NEGBIN, choices=[POISSON, NEGBIN])
    link: str = _option(SOFTPLUS_LINEAR, choices=[SOFTPLUS_LINEAR, NEURAL])
    p: int = _option(1, type=int)
    q: int = _option(0, type=int)
    c: float = _option(1.0, type=float)
    hidden: Optional[int] = _option(type=_POSITIVE)
    seed: int = _option(0, type=_NONNEGATIVE)
    restarts: Optional[int] = _option(type=_NONNEGATIVE)
    split: Optional[int] = _option(type=_POSITIVE)
    max_lag: int = _option(10, type=_POSITIVE)
    length: Optional[int] = _option(type=_POSITIVE)
    burn_in: int = _option(500, type=_NONNEGATIVE)
    alpha0: Optional[float] = _option(type=float)
    alpha: Tuple[float, ...] = _option((), type=_FLOATS)
    beta: Tuple[float, ...] = _option((), type=_FLOATS)
    n: Optional[float] = _option(type=float)
    weights: Optional[Tuple[float, ...]] = _option(type=_FLOATS)
    sizes: Tuple[int, ...] = _option((), type=_Numbers(int, 1, many=True))
    replications: int = _option(100, type=_POSITIVE)
    models: Tuple[str, ...] = _option((), "--model", action="append", dest="models", type=str.strip)
    criterion: str = _option("aic", choices=["aic", "bic"])
    grid: Optional[str] = _option()

    def provenance(self) -> Dict[str, object]:
        """The command and the options it reads, given or defaulted, in the command's
        order, less None and empty tuples; `main` replays the record to the same run."""
        names = ["command", *_read_options(self.command, bool(self.models))]
        values = ((name, getattr(self, name)) for name in names)
        return {k: list(v) if isinstance(v, tuple) else v for k, v in values if v is not None and v != ()}


# ---------------------------------------------------------------------------
# CSV ingestion


def parse_counts_csv(path) -> CountSeries:
    """Read a counts CSV: a `count` column, or `timestamp,count` with header.

    Lines starting with '#' are provenance comments and are skipped.  Counts
    must be non-negative integers; violations raise a DataError citing the
    file line number.  Timestamps are not kept; uneven spacing only produces
    a warning.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"input file not found: {path}")
    header: Optional[List[str]] = None
    counts: List[int] = []
    stamps: List[str] = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or (row[0].lstrip().startswith("#")):
                continue
            cells = [cell.strip() for cell in row]
            if header is None:
                header = [c.lower() for c in cells]
                if header not in (["count"], ["timestamp", "count"]):
                    raise DataError(f"line {lineno}: header must be 'count' or 'timestamp,count', got {row!r}")
                continue
            if len(cells) != len(header):
                raise DataError(f"line {lineno}: expected {len(header)} columns, got {len(cells)}")
            raw = cells[-1]
            try:
                value = float(raw)
            except ValueError:
                raise DataError(f"line {lineno}: non-numeric count {raw!r}") from None
            if not math.isfinite(value) or value != int(value):
                raise DataError(f"line {lineno}: counts must be integers, got {raw!r}")
            if value < 0:
                raise DataError(f"line {lineno}: counts must be non-negative, got {raw!r}")
            counts.append(int(value))
            if len(header) == 2:
                stamps.append(cells[0])
    if header is None or not counts:
        raise DataError(f"{path}: no count rows found")
    if stamps:
        _warn_on_gaps(stamps)
    return CountSeries(np.asarray(counts))


def _warn_on_gaps(stamps: Sequence[str]):
    values: List[float] = []
    for stamp in stamps:
        try:
            values.append(float(stamp))
        except ValueError:
            try:
                values.append(datetime.fromisoformat(stamp).timestamp())
            except ValueError:
                return
    diffs = np.diff(values)
    if diffs.size and (diffs.max() - diffs.min()) > 1e-9 * max(1.0, abs(diffs.max())):
        warnings.warn("timestamps are not equally spaced; continuing", UserWarning)


# ---------------------------------------------------------------------------
# FitResult serialization


def fit_to_tree(fit: FitResult) -> Dict[str, object]:
    """Serialize a FitResult to a plain tree of scalars and lists."""
    spec = fit.spec
    tree: Dict[str, object] = {"family": spec.family, "link": spec.link, "p": spec.p, "q": spec.q,
                               "c": float(spec.c)}
    if spec.hidden is not None:
        tree["hidden"] = spec.hidden
    tree.update(
        converged=bool(fit.converged),
        iterations=int(fit.iterations),
        restarts_used=int(fit.restarts_used),
        loglik=float(fit.loglik),
        aic=float(fit.aic),
        bic=float(fit.bic),
        s=int(len(fit.lambda_path)),
    )
    est = fit.estimates
    if isinstance(est, LinearParams):
        sub: Dict[str, object] = {
            "kind": "linear",
            "alpha0": float(est.alpha0),
            "alpha": [float(a) for a in est.alpha],
            "beta": [float(b) for b in est.beta],
        }
    else:
        sub = {
            "kind": "neural",
            "K": est.input_width,
            "L": est.hidden,
            "weights": [float(w) for w in np.concatenate([est.u0.ravel(), est.u1])],
        }
    if est.n is not None:
        sub["n"] = float(est.n)
    tree["k"] = est.k()
    tree["estimates"] = sub
    tree["std_errors"] = [float(v) for v in np.asarray(fit.std_errors, dtype=float)]
    tree["lambda_path"] = [float(v) for v in np.asarray(fit.lambda_path, dtype=float)]
    return tree


def fit_from_tree(tree: Dict[str, object]) -> FitResult:
    """Rebuild a FitResult from its serialized tree; inverse of `fit_to_tree`."""
    spec = ModelSpec(str(tree["family"]), str(tree["link"]), int(tree["p"]), int(tree["q"]),
                     float(tree["c"]), int(tree["hidden"]) if "hidden" in tree else None)
    sub = tree["estimates"]
    if sub["kind"] == "linear":
        kind, flat = LinearParams, [sub["alpha0"], *sub["alpha"], *sub["beta"]]
    else:
        kind, flat = NeuralWeights, list(sub["weights"])
    if "n" in sub:
        flat.append(sub["n"])
    estimates = kind.from_flat(np.asarray(flat, dtype=float), spec, log_n=False)
    return FitResult(
        spec=spec,
        estimates=estimates,
        std_errors=np.asarray([float(v) for v in tree["std_errors"]], dtype=float),
        loglik=float(tree["loglik"]),
        aic=float(tree["aic"]),
        bic=float(tree["bic"]),
        lambda_path=np.asarray([float(v) for v in tree["lambda_path"]], dtype=float),
        converged=bool(tree["converged"]),
        iterations=int(tree["iterations"]),
        restarts_used=int(tree["restarts_used"]),
    )


# ---------------------------------------------------------------------------
# Helpers


_MODEL_RE = re.compile(r"(neu-)?(pois|poisson|nb|negbin)\((\d+),(\d+)\)")


def _spec(config: RunConfig, token: Optional[str] = None) -> ModelSpec:
    """The spec of the run's model, or of one `--model` token: the one place
    that gives neural models their default of 1 hidden unit.  One --hidden
    serves a --model list's networks; a single linear model rejects it."""
    if token is None:
        family, link, p, q = config.family, config.link, config.p, config.q
    else:
        m = _MODEL_RE.fullmatch(token)
        if not m:
            raise UsageError(
                f"bad --model {token!r}; expected e.g. 'nb(1,1)', 'pois(2,0)' or 'neu-nb(1,1)'"
            )
        link = NEURAL if m.group(1) else SOFTPLUS_LINEAR
        family = POISSON if m.group(2) in ("pois", "poisson") else NEGBIN
        p, q = int(m.group(3)), int(m.group(4))
    hidden = None if token and link != NEURAL else config.hidden  # ModelSpec rejects it on a linear link
    hidden = 1 if hidden is None and link == NEURAL else hidden
    try:
        return ModelSpec(family, link, p, q, config.c, hidden)
    except ParameterError as exc:
        raise UsageError(str(exc)) from exc


def _params_from_config(config: RunConfig, spec: ModelSpec):
    """`spec`'s parameters; a parameter option its link or family never reads is a usage error."""
    if spec.link == SOFTPLUS_LINEAR:
        if config.weights is not None:
            raise UsageError("--weights applies to the neural link only")
        if config.alpha0 is None:
            raise UsageError("simulate/study with a linear link needs --alpha0")
        # from_flat checks only the total length, not the split between alpha and beta
        if len(config.alpha) != spec.p or len(config.beta) != spec.q:
            raise UsageError(f"need {spec.p} --alpha and {spec.q} --beta coefficients")
        kind, flat = LinearParams, [config.alpha0, *config.alpha, *config.beta]
    else:
        if config.alpha0 is not None or config.alpha or config.beta:
            raise UsageError("--alpha0, --alpha and --beta apply to the linear link only")
        if config.weights is None:
            raise UsageError("simulate with a neural link needs --weights")
        kind, flat = NeuralWeights, list(config.weights)
    if spec.family == NEGBIN:
        if config.n is None:
            raise UsageError("negbin family needs --n")
        flat.append(config.n)
    elif config.n is not None:
        raise UsageError("--n applies to the negbin family only")
    try:
        return kind.from_flat(flat, spec, log_n=False)
    except ParameterError as exc:
        raise UsageError(str(exc)) from exc


def _opts_from_config(config: RunConfig, default_restarts: int) -> OptimizerOptions:
    restarts = config.restarts if config.restarts is not None else default_restarts
    return OptimizerOptions(restarts=restarts, seed=config.seed)


def _fit_one(spec: ModelSpec, series, config: RunConfig) -> FitResult:
    """Fit with the link's driver; --restarts defaults to 10 for neural and 2 for linear fits."""
    if spec.link == NEURAL:
        return fit_neural(spec, series, _opts_from_config(config, default_restarts=10))
    return fit_cml(spec, series, _opts_from_config(config, default_restarts=2))


def _write_text(path, text: str):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8", newline="\n")


def _document(config: RunConfig, body: Dict[str, object]) -> str:
    tree: Dict[str, object] = {"artifact": _ARTIFACT, "config": config.provenance()}
    tree.update(body)
    return dumps(tree)


def _write_csv(path, config: RunConfig, lines: List[str]):
    """Write `lines` under two header lines; the config is one shell-quoted
    `key=value` word per option, lists comma-joined."""
    pairs = " ".join(shlex.quote(f"{k}={','.join(map(str, v)) if isinstance(v, list) else v}")
                     for k, v in config.provenance().items())
    _write_text(path, "\n".join([f"# artifact: {_ARTIFACT}", f"# config: {pairs}", *lines]) + "\n")


def _series_summary(series: CountSeries) -> Dict[str, object]:
    values = np.asarray(series.values, dtype=float)
    summary: Dict[str, object] = {"s": int(values.size), "mean": float(values.mean())}
    if values.mean() > 0 and values.size > 1:
        summary["dispersion"] = dispersion_ratio(series)
    return summary


# ---------------------------------------------------------------------------
# Commands


def _cmd_simulate(config: RunConfig) -> int:
    spec = _spec(config)
    params = _params_from_config(config, spec)
    sim = SimConfig(spec=spec, params=params, length=config.length, burn_in=config.burn_in,
                    rng=RngStream(config.seed))
    path = simulate_path(sim)
    _write_csv(config.out, config, ["count"] + [str(int(v)) for v in path])
    return 0


def _cmd_fit(config: RunConfig) -> int:
    series = parse_counts_csv(config.input)
    body: Dict[str, object] = {"series": _series_summary(series)}
    if config.models:  # exit 4 only when no candidate converged
        fits = {token: _fit_one(_spec(config, token), series, config) for token in config.models}
        best_label = select_fit(fits, config.criterion)
        body["fits"] = {label: fit_to_tree(fit) for label, fit in fits.items()}
        body["selection"] = {"criterion": config.criterion, "best": best_label}
        fit = fits[best_label]
    else:
        fit = _fit_one(_spec(config), series, config)
        body["fit"] = fit_to_tree(fit)
    _write_text(config.out, _document(config, body))
    return 0 if fit.converged else 4


def _cmd_moments(config: RunConfig) -> int:
    if config.length <= config.max_lag:
        raise UsageError("moments needs --length > --max-lag")
    spec = _spec(replace(config, link=SOFTPLUS_LINEAR, p=1, q=1))  # the grid's (1,1) model
    grid_path = Path(config.grid)
    if not grid_path.exists():
        raise DataError(f"grid file not found: {grid_path}")
    entries: List[SimConfig] = []
    with open(grid_path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(row for row in fh if not row.startswith("#"))
        for idx, row in enumerate(reader):
            try:
                alpha0 = float(row["alpha0"])
                alpha1 = float(row["alpha1"])
                beta1 = float(row["beta1"])
                n = float(row["n"]) if config.family == NEGBIN else None
            except (KeyError, TypeError, ValueError) as exc:
                raise DataError(f"grid row {idx + 1}: need alpha0,alpha1,beta1[,n] columns") from exc
            params = LinearParams(alpha0, (alpha1,), (beta1,), n)
            entries.append(
                SimConfig(spec=spec, params=params, length=config.length, burn_in=config.burn_in,
                          rng=RngStream(config.seed, idx))
            )
    lags = config.max_lag
    rows = moment_study(entries, max_lag=lags)
    header = ["model", "alpha0", "alpha1", "beta1", "n", "c", "flagged",
              "sp_mean", "sp_dispersion"]
    header += [f"sp_acf{h}" for h in range(1, lags + 1)]
    header += ["lin_mean", "lin_dispersion"] + [f"lin_acf{h}" for h in range(1, lags + 1)]
    lines = [",".join(header)]
    for idx, row in enumerate(rows):
        params = row.config.params
        cells = [
            str(idx + 1),
            format_float(params.alpha0),
            format_float(params.alpha[0]),
            format_float(params.beta[0]),
            format_float(params.n) if params.n is not None else "",
            format_float(row.config.spec.c),
            "true" if row.flagged else "false",
        ]
        if row.empirical is not None:
            cells += [format_float(row.empirical.mean), format_float(row.empirical.dispersion)]
            cells += [format_float(v) for v in row.empirical.acf]
        else:
            cells += [""] * (2 + lags)
        if row.linear is not None:
            cells += [format_float(row.linear.mu), format_float(row.linear.dispersion)]
            cells += [format_float(v) for v in row.linear.acf]
        else:
            cells += [""] * (2 + lags)
        lines.append(",".join(cells))
    _write_csv(config.out, config, lines)
    return 0


def _cmd_study(config: RunConfig) -> int:
    spec = _spec(config)
    truth = _params_from_config(config, spec)
    opts = _opts_from_config(config, default_restarts=0)
    table = simulation_study(spec, truth, config.sizes, config.replications,
                             seed=config.seed, opts=opts, burn_in=config.burn_in)
    body: Dict[str, object] = {"study": {
        "sizes": list(table.sizes),
        "replications": table.replications,
        "parameters": list(table.param_names),
    }}
    for size in table.sizes:
        size_tree: Dict[str, object] = {"excluded": table.excluded[size]}
        if table.exclusions[size]:  # only the reasons that occurred
            size_tree["exclusions"] = dict(sorted(table.exclusions[size].items()))
        for name in table.param_names:
            cell = table.cells[size].get(name)
            if cell is not None:
                size_tree[name] = asdict(cell)
        body["study"][f"size_{size}"] = size_tree
    _write_text(config.out, _document(config, body))
    return 0


def _cmd_diagnose(config: RunConfig) -> int:
    series = parse_counts_csv(config.input)
    spec = _spec(config)
    fit = _fit_one(spec, series, config)
    # every diagnostic is computed before the first file is written, so a
    # failing one leaves no partial output directory
    z = pearson_residuals(fit, series)
    max_lag = min(config.max_lag, len(series) - 1)
    acf, pacf = sample_acf(z, max_lag), sample_pacf(z, max_lag)
    freqs, fractions, band = cumulative_periodogram(z)

    outdir = Path(config.out)  # _write_text makes it
    body = {"series": _series_summary(series), "fit": fit_to_tree(fit)}
    _write_text(outdir / "fit.txt", _document(config, body))
    _write_csv(outdir / "residuals.csv", config, ["z"] + [format_float(v) for v in z])
    _write_csv(outdir / "correlogram.csv", config, ["lag,acf,pacf"] + [
        f"{h + 1},{format_float(acf[h])},{format_float(pacf[h])}" for h in range(max_lag)])
    _write_csv(outdir / "periodogram.csv", config, [
        f"# band_half_width: {format_float(band)}", "frequency,cumulative_fraction",
        *(f"{format_float(f)},{format_float(c)}" for f, c in zip(freqs, fractions))])
    return 0 if fit.converged else 4


def _cmd_forecast(config: RunConfig) -> int:
    series = parse_counts_csv(config.input)
    s = len(series)
    if config.split >= s:
        raise UsageError(f"--split must lie in [1, {s - 1}]")
    spec = _spec(config)
    train = CountSeries(series.values[: config.split])
    fit = _fit_one(spec, train, config)
    horizon = s - config.split
    preds = one_step_forecasts(fit, series, horizon)
    actuals = series.values[config.split :]
    body = {
        "forecast": {
            "split": config.split,
            "horizon": horizon,
            "rmse": rmse(preds, actuals),
            "forecasts": [float(v) for v in preds],
            "actuals": [int(v) for v in actuals],
        },
        "fit": fit_to_tree(fit),
    }
    _write_text(config.out, _document(config, body))
    return 0 if fit.converged else 4


_COMMANDS = {
    "simulate": _cmd_simulate,
    "fit": _cmd_fit,
    "moments": _cmd_moments,
    "study": _cmd_study,
    "diagnose": _cmd_diagnose,
    "forecast": _cmd_forecast,
}


def run(config: RunConfig) -> int:
    """Execute one workflow; returns the process exit code.  Each option must lie
    in the range `main`'s parser enforces; `run` checks only what depends on
    several options or on the data."""
    handler = _COMMANDS.get(config.command)
    if handler is None:
        raise UsageError(f"unknown command {config.command!r}")
    return handler(config)


# ---------------------------------------------------------------------------
# Argument parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


_FIELDS = {f.name: f for f in fields(RunConfig) if f.metadata}  # the options: every field but `command`


def _flag(name: str) -> str:
    """The flag of the option that sets RunConfig field `name`."""
    return _FIELDS[name].metadata["flag"] or "--" + name.replace("_", "-")


# The options that each --model token names for its own model.
_MODEL_OPTIONS = ("family", "link", "p", "q")

# Every command: its help line and the options it reads, "!" marking those it
# requires; it accepts no others.
_FIT = "input family link p q c hidden seed restarts out!"  # what every fitting command reads
_SUBCOMMANDS = {
    "simulate": ("generate a count series CSV",
                 "family link p q c hidden seed out! length! burn_in alpha0 alpha beta n weights"),
    "fit": ("fit one model or select among several", f"{_FIT} models criterion"),
    "moments": ("moment comparison over a parameter grid", "family c seed out! grid! length burn_in max_lag"),
    "study": ("simulate-and-refit bias/MSE study",
              "family p q c seed restarts out! alpha0 alpha beta n sizes! replications burn_in"),
    "diagnose": ("fit and write residual diagnostics", f"{_FIT} max_lag"),
    "forecast": ("one-step forecasts after a train/test split", f"{_FIT} split!"),
}


def _read_options(command: str, model_list: bool) -> List[str]:
    """The options `command` reads: all it accepts, less the model options
    with a --model list and --criterion, which ranks that list, without one."""
    unread = _MODEL_OPTIONS if model_list else ("criterion",)
    return [o.rstrip("!") for o in _SUBCOMMANDS[command][1].split() if o.rstrip("!") not in unread]


def _build_parser() -> _Parser:
    """One subparser per command.  An option left out stays out of the
    namespace, so RunConfig supplies every default but two: `moments`
    defaults to --max-lag 3 and --length 100000."""
    parser = _Parser(prog="spingarch", description=__doc__)
    sub = parser.add_subparsers(dest="command")
    for name, (help_text, options) in _SUBCOMMANDS.items():
        sp = sub.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS)
        for option in options.split():
            dest = option.rstrip("!")
            sp.add_argument(_flag(dest), **_FIELDS[dest].metadata["settings"],
                            **({"required": True} if option.endswith("!") else {}))
    sub.choices["moments"].set_defaults(max_lag=3, length=100000)
    return parser


# argparse reads a word such as "-0.3,0.1" as an option, not as the value of
# the option before it; list options take their value as one word.
_LIST_FLAGS = tuple(_flag(name) for name, f in _FIELDS.items()
                    if getattr(f.metadata["settings"].get("type"), "many", False))
_NEGATIVE_NUMBER_RE = re.compile(r"-\.?\d")


def _attach_negative_lists(argv: Sequence[str]) -> List[str]:
    """Rewrite `--alpha -0.3,0.1` as `--alpha=-0.3,0.1`."""
    out: List[str] = []
    for word in argv:
        if out and out[-1] in _LIST_FLAGS and _NEGATIVE_NUMBER_RE.match(word):
            out[-1] = f"{out[-1]}={word}"
        else:
            out.append(word)
    return out


def _parse(argv: Sequence[str]) -> RunConfig:
    """The run that an argument list names."""
    given = vars(_build_parser().parse_args(_attach_negative_lists(argv)))
    if not given.get("command"):
        raise UsageError("a command is required (simulate, fit, moments, study, diagnose, forecast)")
    model_list = "models" in given
    read = ["command", *_read_options(given["command"], model_list)]
    unread = [_flag(name) for name in given if name not in read]
    if unread:
        raise UsageError(f"{', '.join(unread)} {'conflicts with' if model_list else 'needs'} --model")
    return RunConfig(**{k: tuple(v) if isinstance(v, list) else v for k, v in given.items()})


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Parse arguments and run; returns the exit code."""
    try:
        return run(_parse(sys.argv[1:] if argv is None else argv))
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (ParameterError, NumericError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3


def entry():  # pragma: no cover - console-script shim
    sys.exit(main())
