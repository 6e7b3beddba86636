"""Conditional maximum likelihood estimation for softplus-link count models.

The conditional log-likelihood of a series x_1..x_s is the sum of one-step
log pmfs at the conditional means lambda_t produced by the model recursion
(with pre-sample values initialized from the sample mean).  For the negative
binomial family each term is

    x_t ln(lambda_t/n) - (n + x_t) ln(1 + lambda_t/n)
        + sum_{v=1..x_t} ln(v + n - 1) - ln(x_t!),

and for Poisson it is x_t ln(lambda_t) - lambda_t - ln(x_t!).  Optimization
runs a derivative-free simplex search into the right basin followed by a
quasi-Newton polish; the dispersion n is optimized on the log scale so it
stays positive, while the regression coefficients are unconstrained (negative
values are a feature, not an error).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from scipy.optimize import minimize

from .data import CountSeries, as_counts, sample_acf
from .distributions import RngStream, loglik_terms
from .exceptions import ConvergenceWarning, DataError, NumericError, ParameterError
from .model import NEGBIN, LinearParams, ModelSpec, _family_n, conditional_mean_path

__all__ = [
    "OptimizerOptions",
    "FitResult",
    "negloglik",
    "init_params",
    "fit_cml",
    "standard_errors",
    "information_criteria",
]

_PENALTY = 1e15
_N_BOUNDS = (0.1, 1e4)


@dataclass(frozen=True)
class OptimizerOptions:
    """Knobs for the CML optimizer; defaults suit desk-scale series."""

    max_iterations: int = 400
    f_tol: float = 1e-9
    x_tol: float = 1e-7
    restarts: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.f_tol <= 0 or self.x_tol <= 0:
            raise ParameterError("tolerances must be > 0")
        if self.max_iterations < 1 or self.restarts < 0:
            raise ParameterError("max_iterations >= 1 and restarts >= 0 required")


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


def negloglik(spec: ModelSpec, params, series) -> float:
    """Negated conditional log-likelihood; `params` is LinearParams or NeuralWeights."""
    x = as_counts(series)
    lam = conditional_mean_path(spec, params, series)
    ll = np.sum(loglik_terms(x, lam, _family_n(spec.family, params.n)))
    if not np.isfinite(ll):
        raise NumericError("non-finite log-likelihood")
    return float(-ll)


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


def _objective(spec: ModelSpec, series):
    def fobj(theta):
        try:
            value = negloglik(spec, LinearParams.from_flat(theta, spec), series)
        except (NumericError, ParameterError, OverflowError):
            return _PENALTY
        return value if math.isfinite(value) else _PENALTY

    return fobj


def fit_cml(spec: ModelSpec, series, opts: Optional[OptimizerOptions] = None) -> FitResult:
    """Fit a softplus-linear model by conditional maximum likelihood.

    Runs a Nelder-Mead stage followed by L-BFGS-B refinement from the
    method-of-moments start; if that attempt does not converge, up to
    `opts.restarts` jittered restarts (multiplicative 1 +/- 0.2 on the start)
    are tried.  The best log-likelihood wins, ties broken by the earliest
    attempt.  The result is deterministic given `opts.seed` and never raises
    on non-convergence: `converged=False` carries the best point found.
    """
    opts = opts if opts is not None else OptimizerOptions()
    # validated once here; every later as_counts on a CountSeries skips the checks
    series = series if isinstance(series, CountSeries) else CountSeries(series)
    start = init_params(spec, series)
    theta0 = start.to_flat()
    fobj = _objective(spec, series)

    best = None  # (fun, order, theta, success, iterations)
    attempts = 0
    for attempt in range(opts.restarts + 1):
        if attempt == 0:
            theta_start = theta0
        else:
            gen = RngStream(opts.seed, attempt).generator()
            theta_start = theta0 * gen.uniform(0.8, 1.2, size=theta0.size)
        res_nm = minimize(
            fobj,
            theta_start,
            method="Nelder-Mead",
            options={
                "maxiter": opts.max_iterations * theta0.size,
                "fatol": opts.f_tol,
                "xatol": opts.x_tol,
            },
        )
        res = minimize(
            fobj,
            res_nm.x,
            method="L-BFGS-B",
            options={"maxiter": opts.max_iterations, "ftol": opts.f_tol},
        )
        iterations = int(res_nm.nit) + int(res.nit)
        # The polish stage may abort its line search when the simplex already
        # met both tolerances; either stage meeting its criteria counts.
        if res.fun <= res_nm.fun:
            fun_val, x_val = float(res.fun), res.x.copy()
        else:
            fun_val, x_val = float(res_nm.fun), res_nm.x.copy()
        success = bool((res.success or res_nm.success) and fun_val < _PENALTY)
        attempts = attempt + 1
        cand = (fun_val, attempt, x_val, success, iterations)
        if best is None or cand[0] < best[0]:
            best = cand
        if best[3]:  # stop restarting once the best point comes from a converged run
            break

    return _fit_result(spec, series, LinearParams, best, attempts - 1, "CML optimization")


def _fit_result(spec: ModelSpec, series, kind, best, restarts_used: int, stage: str) -> FitResult:
    """The end every fit driver shares.

    `best` is the winning (objective, order, flat point, success, iterations)
    of the driver's starts; `kind` is the parameter type that decodes the
    point.  Warns when the fit did not converge, and adds the lambda path,
    the information criteria and the standard errors.
    """
    fun, _, flat, success, iterations = best
    estimates = kind.from_flat(flat, spec)
    loglik = -fun
    converged = success and math.isfinite(loglik)
    if not converged:
        warnings.warn(f"{stage} did not meet its tolerances", ConvergenceWarning)
    lambda_path = conditional_mean_path(spec, estimates, series)
    k = estimates.k(spec.family)
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


def _numeric_hessian(f, theta: np.ndarray) -> np.ndarray:
    """Central-difference Hessian with per-coordinate steps max(1e-5, 1e-4 |theta_i|)."""
    k = theta.size
    h = np.maximum(1e-5, 1e-4 * np.abs(theta))
    H = np.empty((k, k))
    f0 = f(theta)
    for i in range(k):
        ei = np.zeros(k)
        ei[i] = h[i]
        H[i, i] = (f(theta + ei) - 2.0 * f0 + f(theta - ei)) / h[i] ** 2
        for j in range(i + 1, k):
            ej = np.zeros(k)
            ej[j] = h[j]
            H[i, j] = H[j, i] = (
                f(theta + ei + ej) - f(theta + ei - ej) - f(theta - ei + ej) + f(theta - ei - ej)
            ) / (4.0 * h[i] * h[j])
    return H


def standard_errors(spec: ModelSpec, estimates, series) -> np.ndarray:
    """Asymptotic standard errors from the inverse numerical Hessian.

    Computed in the natural parameter space at the estimates; entries whose
    inverse-Hessian diagonal is not positive (or the whole vector when the
    Hessian is singular) are reported as NaN rather than complex numbers.
    """
    series = series if isinstance(series, CountSeries) else CountSeries(series)
    theta = estimates.to_flat(log_n=False)

    def f(t):
        try:
            return negloglik(spec, estimates.from_flat(t, spec, log_n=False), series)
        except (NumericError, ParameterError):
            return _PENALTY

    H = _numeric_hessian(f, theta)
    if not np.all(np.isfinite(H)):
        return np.full(theta.size, np.nan)
    # a flat or collinear direction makes the Hessian (numerically) singular;
    # flag every entry rather than report garbage magnitudes
    eigvals = np.linalg.eigvalsh((H + H.T) / 2.0)
    if eigvals[0] <= 0 or eigvals[0] < 1e-12 * max(eigvals[-1], 1.0):
        return np.full(theta.size, np.nan)
    cov = np.linalg.inv(H)
    diag = np.diag(cov)
    return np.where(diag > 0, np.sqrt(np.abs(diag)), np.nan)
