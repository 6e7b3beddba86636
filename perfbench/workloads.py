"""The benchmark's workloads: inputs made from the seed, CLI operations, checks.

Each workload is a function `(seed, workdir) -> Workload`.  It draws every
input (series, parameter grid, network weights) with its own numpy code from
the seed, writes the input files into `workdir`, and returns the CLI
invocations to time plus a function that checks their outputs.  Inputs are
not made with `spingarch.simulate`, so a change in how the program consumes
random draws cannot change another workload's inputs.

Parameters are drawn from narrow boxes: the inputs differ from seed to seed,
but the optimizer's work per seed stays close to the same, which keeps the
spread of the timings between seeds small.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Sequence

import numpy as np

import checkers

WORKLOAD_IDS = {"linear-analysis": 1, "simulate-refit": 2, "neural": 3}


@dataclass
class Op:
    """One CLI invocation and the files or directories it writes."""

    name: str
    argv: List[str]
    outputs: List[Path]


@dataclass
class Workload:
    ops: List[Op]
    # per op name, a check of its outputs that returns the problems found
    checks: Dict[str, Callable[[], List[str]]]


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([WORKLOAD_IDS[workload], seed]))


def _nb(rng: np.random.Generator, n: float, lam: float) -> int:
    return int(rng.negative_binomial(n, n / (n + lam)))


def _write_counts(path: Path, counts: Sequence[int]):
    path.write_text("count\n" + "".join(f"{int(v)}\n" for v in counts), encoding="utf-8")


def _flags(values: Sequence[float]) -> str:
    return ",".join(repr(float(v)) for v in values)


def simulate_linear(rng, alpha0, alpha1, beta1, n, length, burn_in=300) -> np.ndarray:
    """An NB softplus INGARCH(1,1) path, drawn with numpy's own NB sampler."""
    lam = max(alpha0 / (1.0 - alpha1 - beta1), 1.0)
    x, out = lam, np.empty(burn_in + length, dtype=np.int64)
    for t in range(out.size):
        lam = float(checkers.softplus(alpha0 + alpha1 * x + beta1 * lam))
        x = out[t] = _nb(rng, n, lam)
    return out[burn_in:]


def simulate_network(rng, u0, u1, n, length, burn_in=300) -> np.ndarray:
    """An NB path from a (1,1) network with inputs (1, x_{t-1}, lambda_{t-1})."""
    lam = x = 1.0
    out = np.empty(burn_in + length, dtype=np.int64)
    for t in range(out.size):
        lam = float(checkers.network(u0, u1, np.array([[1.0, x, lam]]))[0])
        x = out[t] = _nb(rng, n, lam)
    return out[burn_in:]


# ---------------------------------------------------------------------------


LINEAR_LENGTH = 2000
LINEAR_SPLIT = 1900
CANDIDATES = ("nb(1,0)", "nb(2,0)", "nb(1,1)", "pois(1,0)", "pois(2,0)", "pois(1,1)")


def linear_analysis(seed: int, work: Path) -> Workload:
    """The paper's data analysis on one long NB softplus (1,1) series with alpha1 < 0."""
    rng = _rng("linear-analysis", seed)
    truth = (rng.uniform(2.8, 3.2), rng.uniform(-0.35, -0.25), rng.uniform(0.45, 0.55), rng.uniform(3.5, 4.5))
    x = simulate_linear(rng, *truth, LINEAR_LENGTH)
    series = work / "series.csv"
    _write_counts(series, x)
    models = [arg for label in CANDIDATES for arg in ("--model", label)]
    order = ["--p", "1", "--q", "1"]
    ops = [
        Op("fit", ["fit", str(series), *models, "--out", str(work / "selection.txt")],
           [work / "selection.txt"]),
        Op("diagnose", ["diagnose", str(series), *order, "--max-lag", "12", "--out", str(work / "diag")],
           [work / "diag"]),
        Op("forecast", ["forecast", str(series), *order, "--split", str(LINEAR_SPLIT),
                        "--out", str(work / "forecast.txt")], [work / "forecast.txt"]),
    ]

    def check_fit():
        selection = checkers.parse_doc((work / "selection.txt").read_text())
        return checkers.check_selection(selection, x) + \
            checkers.check_recovery(selection["fits"]["nb(1,1)"], truth)

    def check_diagnose():
        diag = work / "diag"
        return checkers.check_diagnostics(
            checkers.parse_doc((diag / "fit.txt").read_text())["fit"], x,
            (diag / "residuals.csv").read_text(), (diag / "correlogram.csv").read_text(),
            (diag / "periodogram.csv").read_text())

    def check_forecast():
        return checkers.check_forecast(checkers.parse_doc((work / "forecast.txt").read_text()), x)

    return Workload(ops, {"fit": check_fit, "diagnose": check_diagnose, "forecast": check_forecast})


MOMENTS_LENGTH = 30000
STUDY_SIZES = (100, 1000)
STUDY_REPLICATIONS = 10


def simulate_refit(seed: int, work: Path) -> Workload:
    """`moments` over a small (1,1) grid of long paths plus a `study` of short series."""
    rng = _rng("simulate-refit", seed)
    # rows with a large intercept keep eta far above 0, where softplus is the
    # identity and the linear moments are exact; rows with alpha1 < 0 give a
    # negative lag-1 ACF
    rows, near_identity = [], []
    for _ in range(2):
        rows.append((rng.uniform(9.0, 11.0), rng.uniform(0.25, 0.35), rng.uniform(0.15, 0.25), rng.uniform(4.0, 6.0)))
        near_identity.append(True)
    for _ in range(2):
        rows.append((rng.uniform(4.5, 5.5), rng.uniform(-0.45, -0.35), rng.uniform(0.35, 0.45), rng.uniform(4.0, 6.0)))
        near_identity.append(False)
    grid = work / "grid.csv"
    grid.write_text("alpha0,alpha1,beta1,n\n" + "".join(_flags(r) + "\n" for r in rows), encoding="utf-8")
    # an NB(1,0) study: without a feedback term alpha0 is well identified, so
    # ten replications per size show the MSE falling with size on any seed
    truth = {"alpha0": rng.uniform(2.8, 3.2), "alpha1": rng.uniform(-0.45, -0.35), "n": rng.uniform(2.5, 3.5)}
    ops = [
        Op("moments", ["moments", "--grid", str(grid), "--length", str(MOMENTS_LENGTH), "--seed", str(seed),
                       "--out", str(work / "moments.csv")], [work / "moments.csv"]),
        Op("study", ["study", "--p", "1", "--q", "0", f"--alpha0={truth['alpha0']!r}",
                     f"--alpha={truth['alpha1']!r}", f"--n={truth['n']!r}",
                     "--sizes", ",".join(map(str, STUDY_SIZES)), "--replications", str(STUDY_REPLICATIONS),
                     "--seed", str(seed), "--out", str(work / "study.txt")], [work / "study.txt"]),
    ]

    def check_moments():
        return checkers.check_moments(checkers.read_csv_rows((work / "moments.csv").read_text()),
                                      "negbin", near_identity, MOMENTS_LENGTH)

    def check_study():
        return checkers.check_study(checkers.parse_doc((work / "study.txt").read_text()), truth,
                                    STUDY_SIZES, STUDY_REPLICATIONS)

    return Workload(ops, {"moments": check_moments, "study": check_study})


NEURAL_SIM_LENGTH = 20000
NEURAL_FIT_LENGTH = 500
NEURAL_FORECAST_LENGTH = 1500
NEURAL_SPLIT = 1400


def neural(seed: int, work: Path) -> Workload:
    """Neural simulate, a recursive neu-nb(1,1) fit and a vectorised neu-nb(2,0) forecast."""
    rng = _rng("neural", seed)
    # one hidden unit whose logistic input spans its non-linear range keeps
    # the network identified, so the fit converges in a steady number of steps;
    # the small lambda-lag weight makes the recursion contract
    u0 = np.array([[rng.uniform(-2.2, -1.8)], [rng.uniform(0.35, 0.45)], [rng.uniform(0.07, 0.13)]])
    u1 = np.array([rng.uniform(7.0, 8.0)])
    n = rng.uniform(3.5, 4.5)
    fit_series, forecast_series = work / "fit.csv", work / "forecast.csv"
    _write_counts(fit_series, simulate_network(rng, u0, u1, n, NEURAL_FIT_LENGTH))
    _write_counts(forecast_series, simulate_network(rng, u0, u1, n, NEURAL_FORECAST_LENGTH))
    neural_flags = ["--link", "neural", "--hidden", "1"]
    ops = [
        Op("simulate", ["simulate", *neural_flags, "--p", "1", "--q", "1",
                        f"--weights={_flags(np.concatenate([u0.ravel(), u1]))}", f"--n={n!r}",
                        "--length", str(NEURAL_SIM_LENGTH), "--seed", str(seed),
                        "--out", str(work / "simulated.csv")], [work / "simulated.csv"]),
        Op("fit", ["fit", str(fit_series), *neural_flags, "--p", "1", "--q", "1", "--restarts", "0",
                   "--out", str(work / "fit.txt")], [work / "fit.txt"]),
        Op("forecast", ["forecast", str(forecast_series), *neural_flags, "--p", "2", "--q", "0",
                        "--restarts", "3", "--split", str(NEURAL_SPLIT), "--out", str(work / "forecast.txt")],
           [work / "forecast.txt"]),
    ]

    def check_simulate():
        return checkers.check_simulated(checkers.read_counts((work / "simulated.csv").read_text()),
                                        NEURAL_SIM_LENGTH, u0, u1, n, 1, 1)

    def check_fit():
        return checkers.check_fit(checkers.parse_doc((work / "fit.txt").read_text())["fit"],
                                  checkers.read_counts(fit_series.read_text()))

    def check_forecast():
        return checkers.check_forecast(checkers.parse_doc((work / "forecast.txt").read_text()),
                                       checkers.read_counts(forecast_series.read_text()))

    return Workload(ops, {"simulate": check_simulate, "fit": check_fit, "forecast": check_forecast})


WORKLOADS = {"linear-analysis": linear_analysis, "simulate-refit": simulate_refit, "neural": neural}
