"""Path simulation for all model variants, the moment-comparison study, and
the estimator recovery study.

A simulated path iterates the conditional-mean recursion, draws each count
from the conditional distribution at that mean, discards a burn-in prefix,
and returns the requested number of observations.  Everything is driven by a
single RngStream, so identical configurations reproduce identical series.

`moment_study` packages the comparison between empirical moments of softplus
(1,1) paths and the closed-form linear-model approximations: one row per
configuration with mean, dispersion ratio, and ACF at the first few lags.
`simulation_study` simulates paths from a known truth and refits them,
reporting the bias and MSE of the estimates per sample size.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .data import as_counts, dispersion_ratio, sample_acf
from .distributions import RngStream
from .estimate import OptimizerOptions, fit_cml
from .exceptions import DataError, NumericError, ParameterError
from .model import (
    NEGBIN,
    SOFTPLUS_LINEAR,
    LinearMoments,
    LinearParams,
    ModelSpec,
    NeuralWeights,
    check_stationarity,
    linear_moments_11,
)

__all__ = [
    "SimConfig",
    "simulate_path",
    "EmpiricalMoments",
    "empirical_moments",
    "MomentRow",
    "moment_study",
    "simulation_study",
    "StudyCell",
    "StudyTable",
]


@dataclass(frozen=True)
class SimConfig:
    """One simulation task: model, parameters (checked against it), length, burn-in, and stream."""

    spec: ModelSpec
    params: Union[LinearParams, NeuralWeights]
    length: int
    rng: RngStream
    burn_in: int = 500

    def __post_init__(self):
        self.params.check(self.spec)
        for name, low in (("length", 1), ("burn_in", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ParameterError(f"{name} must be an integer, got {value!r}")
            if value < low:
                raise ParameterError(f"{name} must be >= {low}")


def simulate_path(config: SimConfig) -> np.ndarray:
    """Generate one count series; deterministic given the config's RngStream.

    `params.draw_path(spec, gen.poisson, mixing)` runs the chain from
    `params.chain_start(spec)` and makes one Poisson draw per step.  For the
    NB family every gamma mixing variable is drawn first, in one
    `standard_gamma(n, size=burn_in + length)` call, so that each step draws
    at (lambda_t / n) * g_t: the draw order of `nb_sample`.  The Poisson
    family makes only the Poisson draws, every g_t being 1.
    """
    params = config.params
    gen = config.rng.generator()
    total = config.burn_in + config.length
    if params.n is None:
        mixing = repeat(1.0, total)
    else:  # Python floats, converted a block at a time so no whole-path list is held
        draws = gen.standard_gamma(params.n, size=total)
        mixing = chain.from_iterable(draws[i : i + 4096].tolist() for i in range(0, total, 4096))
    counts = params.draw_path(config.spec, gen.poisson, mixing)
    del counts[: config.burn_in]  # in place, so no second path-sized list
    return np.array(counts, dtype=np.int64)


@dataclass(frozen=True)
class EmpiricalMoments:
    """Sample mean, variance/mean ratio, and ACF at lags 1..max_lag."""

    mean: float
    dispersion: float
    acf: np.ndarray


def empirical_moments(series, max_lag: int) -> EmpiricalMoments:
    """Sample moments of a count series; errors on constant input."""
    x = as_counts(series)
    if max_lag < 1 or x.size <= max_lag:
        raise ParameterError("need series length > max_lag >= 1")
    mean = float(x.mean())
    dispersion = dispersion_ratio(x) if mean > 0.0 else 0.0
    if dispersion <= 0.0:
        raise DataError("degenerate series: sample variance is zero")
    return EmpiricalMoments(mean=mean, dispersion=dispersion, acf=sample_acf(x, max_lag))


@dataclass
class MomentRow:
    """One study row: empirical softplus moments next to the linear formulas.

    `linear` is None when the configuration violates the preconditions of the
    closed-form approximation; `empirical` is None when the simulated path
    itself diverges.  Either case flags the row.
    """

    config: SimConfig
    empirical: Optional[EmpiricalMoments]
    linear: Optional[LinearMoments]
    flagged: bool


def moment_study(grid: Sequence[SimConfig], max_lag: int = 3) -> List[MomentRow]:
    """Simulate every (1,1) softplus configuration and tabulate both moment sets."""
    rows: List[MomentRow] = []
    for config in grid:
        if config.spec.link != SOFTPLUS_LINEAR or (config.spec.p, config.spec.q) != (1, 1):
            raise ParameterError("moment_study requires (1,1) softplus-linear configurations")
        flagged = False
        try:
            path = simulate_path(config)
            emp = empirical_moments(path, max_lag)
        except (NumericError, DataError):
            emp = None
            flagged = True
        try:
            lin = linear_moments_11(config.params, max_lag)
        except ParameterError:
            lin = None
            flagged = True
        rows.append(MomentRow(config=config, empirical=emp, linear=lin, flagged=flagged))
    return rows


@dataclass(frozen=True)
class StudyCell:
    """Per-parameter summary over the converged replications of one size."""

    mean: float
    abs_bias: float
    mse: float


@dataclass
class StudyTable:
    """Bias/MSE recovery study over a grid of sample sizes.

    `exclusions[size]` counts the excluded replications of one size by
    reason: the name of the exception that stopped the simulation or the fit,
    or "not converged"; it holds only the reasons that occurred.
    """

    spec: ModelSpec
    truth: LinearParams
    sizes: Tuple[int, ...]
    replications: int
    param_names: Tuple[str, ...]
    cells: Dict[int, Dict[str, StudyCell]]
    exclusions: Dict[int, Dict[str, int]]

    @property
    def excluded(self) -> Dict[int, int]:
        """Excluded replications per size, every reason together."""
        return {size: sum(reasons.values()) for size, reasons in self.exclusions.items()}

    def exclusion_rate(self, size: int) -> float:
        return self.excluded[size] / self.replications


def _param_names(spec: ModelSpec) -> Tuple[str, ...]:
    names = ["alpha0"]
    names += [f"alpha{i}" for i in range(1, spec.p + 1)]
    names += [f"beta{j}" for j in range(1, spec.q + 1)]
    if spec.family == NEGBIN:
        names.append("n")
    return tuple(names)


def simulation_study(
    spec: ModelSpec,
    truth: LinearParams,
    sizes: Sequence[int],
    replications: int,
    seed: int,
    opts: Optional[OptimizerOptions] = None,
    burn_in: int = 500,
) -> StudyTable:
    """Simulate-and-refit study reporting mean, absolute bias and MSE.

    For each sample size, `replications` independent paths are generated (one
    RngStream per replication, keyed by the study seed and a global
    replication index) and refitted.  Replications whose simulation or fit
    fails, or whose fit does not converge, are excluded from the summaries;
    the exclusions are counted by reason so the rate can be reported
    alongside.  `fit_cml` fits the softplus-linear link only, so the spec
    must be softplus-linear.
    """
    if spec.link != SOFTPLUS_LINEAR:
        raise ParameterError("simulation_study fits the softplus-linear link only")
    truth.check(spec)
    if replications < 1:
        raise ParameterError("need at least one replication")
    report = check_stationarity(truth)
    if report.applicable and not report.first_order_ok:
        warnings.warn("study truth violates the first-order stationarity condition", UserWarning)
    opts = opts if opts is not None else OptimizerOptions()
    truth_vec = truth.to_flat(log_n=False)
    names = _param_names(spec)
    cells: Dict[int, Dict[str, StudyCell]] = {}
    exclusions: Dict[int, Dict[str, int]] = {}
    for size_idx, size in enumerate(sizes):
        draws: List[np.ndarray] = []
        reasons: Dict[str, int] = {}
        for rep in range(replications):
            stream = RngStream(seed, size_idx * replications + rep)
            config = SimConfig(spec=spec, params=truth, length=int(size), burn_in=burn_in, rng=stream)
            try:
                path = simulate_path(config)
                fit = fit_cml(spec, path, opts)
            except (ParameterError, NumericError) as exc:
                reason = type(exc).__name__
            else:
                if fit.converged:
                    draws.append(fit.estimates.to_flat(log_n=False))
                    continue
                reason = "not converged"
            reasons[reason] = reasons.get(reason, 0) + 1
        exclusions[int(size)] = reasons
        table: Dict[str, StudyCell] = {}
        if draws:
            mat = np.vstack(draws)
            for idx, name in enumerate(names):
                err = mat[:, idx] - truth_vec[idx]
                table[name] = StudyCell(
                    mean=float(mat[:, idx].mean()),
                    abs_bias=float(np.abs(err).mean()),
                    mse=float((err**2).mean()),
                )
        cells[int(size)] = table
    return StudyTable(
        spec=spec,
        truth=truth,
        sizes=tuple(int(s) for s in sizes),
        replications=replications,
        param_names=names,
        cells=cells,
        exclusions=exclusions,
    )
