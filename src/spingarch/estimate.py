"""Conditional maximum likelihood estimation for softplus-link count models.

The conditional log-likelihood of a series x_1..x_s is the sum of one-step
log pmfs at the conditional means lambda_t produced by the model recursion
(with pre-sample values initialized from the sample mean).  For the negative
binomial family each term is

    x_t ln(lambda_t/n) - (n + x_t) ln(1 + lambda_t/n)
        + sum_{v=1..x_t} ln(v + n - 1) - ln(x_t!),

and for Poisson it is x_t ln(lambda_t) - lambda_t - ln(x_t!).  The count
terms are evaluated once per distinct count of the series (`CountSeries.table`,
built once per series).  The gradient is exact for both links:
`negloglik_and_grad` runs the score recursion backward (reverse mode,
backpropagation through time), vectorised over the series except for the
feedback through lagged means, which is one LAPACK banded triangular solve;
for a linear (1,1) model the gradient costs less than the forward recursion.
One driver fits both links with L-BFGS-B on that gradient.  Standard errors
come from the exact Hessian, forward over reverse: the parameter type's
`hessian_parts` solves the same band forward for d lambda / d theta and
weights the second derivatives of lambda with the gradient's adjoints, and
the family adds the dispersion row.  The dispersion n is optimized on the
log scale so it stays positive, while the regression coefficients are
unconstrained (negative values are a feature, not an error).

The links differ only in their starts: method of moments plus jittered
restarts for a linear fit; random starts, run to completion, plus warm starts
for a network.  `select_hidden_units` warm-starts each larger network from the
previous winner with an idle extra unit.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Dict, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import minimize
from scipy.special import expit

from .data import CountSeries, as_counts, sample_acf
from .distributions import RngStream, loglik_curvatures, loglik_scores, loglik_terms
from .exceptions import ConvergenceWarning, DataError, NumericError, ParameterError
from .model import NEGBIN, LinearParams, ModelSpec, NeuralWeights, conditional_mean_path
from .special import softplus_inverse

__all__ = [
    "OptimizerOptions",
    "FitResult",
    "negloglik",
    "negloglik_and_grad",
    "neural_gradient",
    "init_params",
    "fit_cml",
    "fit_neural",
    "extend_with_idle_unit",
    "select_hidden_units",
    "standard_errors",
    "information_criteria",
]

_PENALTY = 1e15
_N_BOUNDS = (0.1, 1e4)
# L-BFGS-B limits of every start
_MAX_ITERATIONS = 400
_F_TOL = 1e-9


@dataclass(frozen=True)
class OptimizerOptions:
    """Restarts of a fit and the seed of their starts."""

    restarts: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 0 or self.seed < 0:
            raise ParameterError(f"restarts >= 0 and seed >= 0 required, got {self.restarts} and {self.seed}")


@dataclass
class FitResult:
    """Estimates plus the bookkeeping needed to reuse or audit a fit."""

    spec: ModelSpec
    estimates: object
    std_errors: np.ndarray
    loglik: float
    aic: float
    bic: float
    lambda_path: np.ndarray
    converged: bool
    iterations: int
    restarts_used: int


def information_criteria(loglik: float, k: int, s: int) -> Tuple[float, float]:
    """AIC and BIC from a maximized log-likelihood with k parameters, s points."""
    if s <= 0 or k < 1:
        raise ParameterError("need s > 0 and k >= 1")
    aic = -2.0 * loglik + 2.0 * k
    bic = -2.0 * loglik + k * math.log(s)
    return aic, bic


def _negloglik_at(spec: ModelSpec, params, series):
    """The count table of `series`, the conditional means, the dispersion
    (None for Poisson) and the negated log-likelihood of params on it."""
    series = series if isinstance(series, CountSeries) else CountSeries(series)
    lam = conditional_mean_path(spec, params, series)  # checks params against spec
    ll = np.sum(loglik_terms(series.table, lam, params.n))
    if not np.isfinite(ll):
        raise NumericError("non-finite log-likelihood")
    return series.table, lam, params.n, float(-ll)


def negloglik(spec: ModelSpec, params, series) -> float:
    """Negated conditional log-likelihood; `params` is LinearParams or NeuralWeights."""
    return _negloglik_at(spec, params, series)[3]


def negloglik_and_grad(spec: ModelSpec, params, series, log_n: bool = True) -> Tuple[float, np.ndarray]:
    """`negloglik` and its exact gradient in the layout of `params.to_flat(log_n)`.

    Reverse mode: the family's score d l_t / d lambda_t weights the
    conditional means in one vector-Jacobian product of the parameter type
    (`vjp`), vectorised over the series but for one banded solve when q > 0;
    the dispersion enters the likelihood directly, not through lambda.  An
    array-like `series` is validated and tabulated on every call; wrap it in
    a `CountSeries` once to evaluate it many times.
    """
    counts, lam, n, value = _negloglik_at(spec, params, series)
    d_lam, d_n = loglik_scores(counts, lam, n)
    grad = -params.vjp(spec, counts.x, lam, d_lam)
    if n is not None:
        grad = np.append(grad, -(n * d_n if log_n else d_n))
    return value, grad


def neural_gradient(weights: NeuralWeights, spec: ModelSpec, series) -> np.ndarray:
    """Exact gradient of `negloglik` in the flat layout of
    `NeuralWeights.to_flat` (u0 row-major, u1, then ln n for the NB family):
    the gradient half of `negloglik_and_grad`.  For q > 0 it is the total
    derivative, through the lagged conditional means included."""
    return negloglik_and_grad(spec, weights, series)[1]


def _dispersion_n(xbar: float, disp: float) -> float:
    """Clamp-rule dispersion start: n = mean / (dispersion - 1)."""
    lo, hi = _N_BOUNDS
    if disp <= 1.0 + 1e-9:
        return hi
    return min(max(xbar / (disp - 1.0), lo), hi)


def init_params(spec: ModelSpec, series) -> LinearParams:
    """Method-of-moments starting values.

    For (1,1) models the sample mean, lag-1 ACF and dispersion ratio are
    matched against the linear-model approximation formulas; the geometric
    ACF decay rate rho(2)/rho(1) pins alpha1 + beta1.  Other orders fall back
    to a conservative generic rule.  The dispersion start is clamped to
    [0.1, 1e4].
    """
    x = as_counts(series)
    s = x.size
    if s < 10 * (spec.p + spec.q + 2):
        raise ParameterError(f"series too short for initialization: need >= {10 * (spec.p + spec.q + 2)} points")
    xbar = float(x.mean())
    var = float(x.var(ddof=1))
    disp = var / xbar if xbar > 0 else 1.0
    try:
        rho = sample_acf(x, max(spec.p, 2))
    except DataError:  # constant series: no autocorrelation to match
        rho = np.zeros(max(spec.p, 2))

    if (spec.p, spec.q) == (1, 1):
        r1, r2 = float(rho[0]), float(rho[1])
        decay = r2 / r1 if abs(r1) > 0.05 else 0.0
        decay = min(max(decay, -0.9), 0.9)
        a1 = r1
        for _ in range(8):
            b1 = decay - a1
            acf_den = 1.0 - 2.0 * a1 * b1 - b1 * b1
            num = 1.0 - a1 * b1 - b1 * b1
            if abs(num) < 1e-8 or not math.isfinite(acf_den):
                break
            a1 = r1 * acf_den / num
            a1 = min(max(a1, -0.9), 0.9)
        b1 = min(max(decay - a1, -0.9), 0.9)
        tot = a1 + b1
        if tot >= 0.95:
            a1 *= 0.95 / tot
            b1 *= 0.95 / tot
        alpha0 = xbar * (1.0 - a1 - b1)
        n = None
        if spec.family == NEGBIN:
            n = _dispersion_n(xbar, disp)
            # refine against the (1,1) variance formula, keeping the clamp
            for _ in range(3):
                omega0 = 1.0 + 1.0 / n
                var_den = 1.0 - omega0 * a1 * a1 - 2.0 * a1 * b1 - b1 * b1
                acf_den = 1.0 - 2.0 * a1 * b1 - b1 * b1
                if var_den <= 1e-6 or acf_den <= 1e-6:
                    break
                factor = acf_den / var_den
                if disp <= factor + 1e-9 or xbar <= 0:
                    n = _N_BOUNDS[1]
                    break
                n = min(max(xbar * factor / (disp - factor), _N_BOUNDS[0]), _N_BOUNDS[1])
        return LinearParams(alpha0=alpha0, alpha=(a1,), beta=(b1,), n=n)

    alpha = tuple(0.1 * float(rho[i]) for i in range(spec.p))
    beta = tuple(0.1 for _ in range(spec.q))
    alpha0 = xbar * (1.0 - 0.1 * (spec.p + spec.q))
    n = _dispersion_n(xbar, disp) if spec.family == NEGBIN else None
    return LinearParams(alpha0=alpha0, alpha=alpha, beta=beta, n=n)


def _initial_weights(spec: ModelSpec, series, gen: np.random.Generator) -> NeuralWeights:
    """Random input weights scaled by 1/sqrt(K); output weights chosen so the
    first forward pass lands near the sample mean."""
    x = as_counts(series)
    K, L = spec.input_width, spec.hidden
    xbar = float(x.mean())
    u0 = gen.uniform(-0.5, 0.5, size=(K, L)) / math.sqrt(K)
    mean_input = np.array([1.0] + [xbar] * (K - 1))
    levels = expit(u0.T @ mean_input)
    target = softplus_inverse(max(xbar, 0.1), 1.0)
    common = target / max(float(levels.sum()), 1e-6)
    u1 = np.full(L, common)
    n = None
    if spec.family == NEGBIN:
        var = float(x.var(ddof=1))
        disp = var / xbar if xbar > 0 else 1.0
        n = _dispersion_n(xbar, disp)
    return NeuralWeights(u0=u0, u1=u1, n=n)


def _objective(spec: ModelSpec, series, kind):
    """The optimizer's view of the likelihood: value and gradient at a flat
    point of the parameter type `kind`, or (_PENALTY, zeros) off the valid region."""

    def fun(flat):
        try:
            value, grad = negloglik_and_grad(spec, kind.from_flat(flat, spec), series)
        except (NumericError, ParameterError, OverflowError):
            return _PENALTY, np.zeros(flat.size)
        if not np.all(np.isfinite(grad)):
            return _PENALTY, np.zeros(flat.size)
        return value, grad

    return fun


def _fit(spec: ModelSpec, series, kind, starts, stage: str, until_converged: bool = False) -> FitResult:
    """The one fit driver: L-BFGS-B on the exact gradient from each start in turn.

    The lowest objective wins, ties broken by the earliest start.  With
    `until_converged` the remaining starts are skipped once the best point
    comes from a converged run.  Warns when the fit did not converge, and adds
    the lambda path, the information criteria and the standard errors.
    """
    fun = _objective(spec, series, kind)
    best = None  # (objective, flat point, success, iterations)
    for restarts_used, start in enumerate(starts):
        res = minimize(fun, start, jac=True, method="L-BFGS-B",
                       options={"maxiter": _MAX_ITERATIONS, "ftol": _F_TOL})
        if best is None or res.fun < best[0]:
            best = (float(res.fun), res.x.copy(), bool(res.success and res.fun < _PENALTY), int(res.nit))
        if until_converged and best[2]:
            break

    fun_val, flat, success, iterations = best
    estimates = kind.from_flat(flat, spec)
    loglik = -fun_val
    converged = success and math.isfinite(loglik)
    if not converged:
        warnings.warn(f"{stage} did not meet its tolerances", ConvergenceWarning)
    lambda_path = conditional_mean_path(spec, estimates, series)
    k = estimates.k()
    aic, bic = information_criteria(loglik, k, len(series))
    se = standard_errors(spec, estimates, series) if converged else np.full(k, np.nan)
    return FitResult(
        spec=spec,
        estimates=estimates,
        std_errors=se,
        loglik=loglik,
        aic=aic,
        bic=bic,
        lambda_path=lambda_path,
        converged=converged,
        iterations=iterations,
        restarts_used=restarts_used,
    )


def fit_cml(spec: ModelSpec, series, opts: Optional[OptimizerOptions] = None) -> FitResult:
    """Fit a softplus-linear model by conditional maximum likelihood.

    Runs L-BFGS-B on the exact gradient from the method-of-moments start; if
    that attempt does not converge, up to `opts.restarts` jittered restarts
    (multiplicative 1 +/- 0.2 on the start) are tried.  The best
    log-likelihood wins, ties broken by the earliest attempt.  The result is
    deterministic given `opts.seed` and never raises on non-convergence:
    `converged=False` carries the best point found.
    """
    opts = opts if opts is not None else OptimizerOptions()
    # validated once here; every later as_counts on a CountSeries skips the checks
    series = series if isinstance(series, CountSeries) else CountSeries(series)
    theta0 = init_params(spec, series).to_flat()
    starts = [theta0] + [
        theta0 * RngStream(opts.seed, attempt).generator().uniform(0.8, 1.2, size=theta0.size)
        for attempt in range(1, opts.restarts + 1)
    ]
    return _fit(spec, series, LinearParams, starts, "CML optimization", until_converged=True)


def fit_neural(spec: ModelSpec, series, opts: Optional[OptimizerOptions] = None,
               extra_starts: Sequence[NeuralWeights] = ()) -> FitResult:
    """Train the network by maximum likelihood with multi-start L-BFGS.

    Every start (fresh random initializations plus any `extra_starts`, e.g.
    warm starts from a smaller network) is run to completion and the best
    log-likelihood wins, ties broken by the earliest start.  Deterministic
    given `opts.seed`.
    """
    opts = opts if opts is not None else OptimizerOptions(restarts=10)
    # validated once here; every later as_counts on a CountSeries skips the checks
    series = series if isinstance(series, CountSeries) else CountSeries(series)
    s = len(series)
    K, L = spec.input_width, spec.hidden
    floor = 20 * (K * L + L) / (spec.p + spec.q + 1)
    if s < floor:
        warnings.warn(
            f"series length {s} is below the identifiability floor {floor:.0f} for this network",
            UserWarning,
        )

    starts = [
        _initial_weights(spec, series, RngStream(opts.seed, k).generator()).to_flat()
        for k in range(opts.restarts + 1)
    ]
    starts.extend(w.to_flat() for w in extra_starts)
    return _fit(spec, series, NeuralWeights, starts, "neural training")


def extend_with_idle_unit(weights: NeuralWeights) -> NeuralWeights:
    """Append one hidden unit wired to contribute nothing: the response (and
    hence the likelihood) is unchanged, giving a warm start for L+1 units."""
    u0 = np.hstack([weights.u0, np.zeros((weights.input_width, 1))])
    u1 = np.append(weights.u1, 0.0)
    return NeuralWeights(u0=u0, u1=u1, n=weights.n)


def select_hidden_units(spec: ModelSpec, series, L_range: Sequence[int],
                        opts: Optional[OptimizerOptions] = None,
                        criterion: str = "aic") -> Tuple[int, Dict[int, FitResult]]:
    """Fit each hidden-unit count and pick the information-criterion winner.

    Larger networks are additionally warm-started from the previous winner
    with an idle extra unit, so the in-sample fit is monotone in L up to
    optimizer tolerance.  Only converged fits are ranked; when none converged,
    every fit is, with a ConvergenceWarning.  Ties go to the smaller network.
    """
    if criterion not in ("aic", "bic"):
        raise ParameterError("criterion must be 'aic' or 'bic'")
    Ls = sorted(set(int(L) for L in L_range))
    if not Ls:
        raise ParameterError("L_range must be non-empty")
    fits: Dict[int, FitResult] = {}
    prev: Optional[NeuralWeights] = None
    for L in Ls:
        spec_L = replace(spec, hidden=L)
        extra = []
        if prev is not None and prev.hidden == L - 1:
            extra.append(extend_with_idle_unit(prev))
        fits[L] = fit_neural(spec_L, series, opts, extra_starts=extra)
        prev = fits[L].estimates
    ranked = [L for L in Ls if fits[L].converged]
    if not ranked:
        warnings.warn("no hidden-unit count converged; ranking every fit", ConvergenceWarning)
    return min(ranked or Ls, key=lambda L: getattr(fits[L], criterion)), fits


def _negloglik_hessian(spec: ModelSpec, params, series: CountSeries) -> np.ndarray:
    """Exact Hessian of `negloglik` in the layout of `params.to_flat(log_n=False)`.

    Forward over reverse: one mean path, then the parameter type's
    `hessian_parts` (the sensitivities S = d lambda / d theta from one banded
    forward solve with k right-hand sides, and the adjoint-weighted second
    derivatives of lambda from the adjoint solve `vjp` does) give the
    coefficient block S^T diag(l'') S + C; the family adds the dispersion row.
    This is the observed information of Fokianos, Rahbek & Tjostheim (2009)
    for the INGARCH recursion.
    """
    counts = series.table
    lam = conditional_mean_path(spec, params, series)
    n = params.n
    d_lam, _ = loglik_scores(counts, lam, n)
    d_lam2, d_lam_n, d_nn = loglik_curvatures(counts, lam, n)
    S, C = params.hessian_parts(spec, counts.x, lam, d_lam)
    H = S.T @ (d_lam2[:, None] * S) + C
    if n is not None:
        cross = S.T @ d_lam_n
        H = np.block([[H, cross[:, None]], [cross[None, :], d_nn]])
    return -H


def standard_errors(spec: ModelSpec, estimates, series) -> np.ndarray:
    """Asymptotic standard errors from the inverse of the exact Hessian of the
    negated log-likelihood (the observed information).

    Computed in the natural parameter space at the estimates.  Every entry is
    NaN when the mean path is invalid there or the Hessian is not finite,
    singular or not positive definite; single entries whose inverse-Hessian
    diagonal is not positive are NaN as well.  Estimates that do not match
    `spec` raise ParameterError.

    `FitResult.converged` stays the optimizer's verdict and does not consult
    the Hessian: all-NaN standard errors at a converged fit mean the optimizer
    stopped at a saddle point or along a flat direction.
    """
    estimates.check(spec)
    series = series if isinstance(series, CountSeries) else CountSeries(series)
    nan = np.full(estimates.k(), np.nan)
    try:
        H = _negloglik_hessian(spec, estimates, series)
    except NumericError:
        return nan
    H = (H + H.T) / 2.0
    if not np.all(np.isfinite(H)):
        return nan
    # a flat or collinear direction makes the Hessian (numerically) singular;
    # flag every entry rather than report garbage magnitudes
    eigvals = np.linalg.eigvalsh(H)
    if eigvals[0] <= 0 or eigvals[0] < 1e-12 * max(eigvals[-1], 1.0):
        return nan
    diag = np.diag(np.linalg.inv(H))
    return np.where(diag > 0, np.sqrt(np.abs(diag)), np.nan)
