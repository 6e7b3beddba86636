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

The links differ in their starts and in the metric.  A linear fit starts at
the method of moments, with jittered restarts, and when the exact Hessian
there is positive definite L-BFGS-B runs in its metric (Nocedal & Wright
2006, sec. 6.1): on z = R (theta - theta0), R its upper Cholesky factor, the
start's Hessian is the identity, which cuts the evaluations of a (1,1) fit
about fourfold.  A network starts from random weights, each run to
completion, plus warm starts, in its own coordinates: the Hessian at a
random start is not positive definite.  `select_hidden_units` warm-starts
each larger network from the previous winner with an idle extra unit.
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


class _Point:
    """One parameter point on one series: its conditional means, the negated
    log-likelihood there and, on demand, its exact gradient.  Raises
    NumericError or ParameterError where the mean path or the likelihood is
    invalid."""

    def __init__(self, spec: ModelSpec, params, series):
        series = series if isinstance(series, CountSeries) else CountSeries(series)
        self.spec, self.params, self.counts = spec, params, series.table
        self.lam = conditional_mean_path(spec, params, series)  # checks params against spec
        ll = np.sum(loglik_terms(self.counts, self.lam, params.n))
        if not np.isfinite(ll):
            raise NumericError("non-finite log-likelihood")
        self.value = float(-ll)

    def gradient(self, log_n: bool = True) -> np.ndarray:
        """The gradient half of `negloglik_and_grad`, in the layout of
        `params.to_flat(log_n)`."""
        counts, lam, n = self.counts, self.lam, self.params.n
        d_lam, d_n = loglik_scores(counts, lam, n)
        grad = -self.params.vjp(self.spec, counts.x, lam, d_lam)
        if n is not None:
            grad = np.append(grad, -(n * d_n if log_n else d_n))
        return grad


def negloglik(spec: ModelSpec, params, series) -> float:
    """Negated conditional log-likelihood; `params` is LinearParams or NeuralWeights."""
    return _Point(spec, params, series).value


def negloglik_and_grad(spec: ModelSpec, params, series, log_n: bool = True) -> Tuple[float, np.ndarray]:
    """`negloglik` and its exact gradient in the layout of `params.to_flat(log_n)`.

    Reverse mode: the family's score d l_t / d lambda_t weights the
    conditional means in one vector-Jacobian product of the parameter type
    (`vjp`), vectorised over the series but for one banded solve when q > 0;
    the dispersion enters the likelihood directly, not through lambda.  An
    array-like `series` is validated and tabulated on every call; wrap it in
    a `CountSeries` once to evaluate it many times.
    """
    point = _Point(spec, params, series)
    return point.value, point.gradient(log_n)


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


class _Objective:
    """The optimizer's view of one fit's likelihood.

    Called at a point z, it returns the negated log-likelihood and its exact
    gradient there, or (_PENALTY, zeros) off the valid region.  Without a
    metric, z is the flat layout of the parameter type `kind`; once `scale`
    has set the metric R, theta = theta0 + R^-1 z and the gradient is R^-T g.
    The last valid evaluation is kept with its mean path, so the start's
    Hessian, a repeated call and the fit's result reuse it.
    """

    def __init__(self, spec: ModelSpec, series, kind):
        self.spec, self.kind = spec, kind
        # validated once here; every later as_counts on a CountSeries skips the checks
        self.series = series if isinstance(series, CountSeries) else CountSeries(series)
        self._metric = None  # (theta0, R, R^-1) once `scale` has set one
        self._last = None  # (z, point, gradient in z) of the last valid evaluation

    def to_z(self, theta: np.ndarray) -> np.ndarray:
        """A flat parameter point in the optimizer's coordinates."""
        if self._metric is None:
            return theta
        theta0, R, _ = self._metric
        return R @ (theta - theta0)

    def cached(self, z: np.ndarray) -> Optional[_Point]:
        """The point at z when z was the last valid evaluation, else None."""
        last = self._last
        return last[1] if last is not None and np.array_equal(z, last[0]) else None

    def point(self, z: np.ndarray) -> _Point:
        """The point at z, evaluated unless it is the cached one."""
        cached = self.cached(z)
        if cached is not None:
            return cached
        theta = z if self._metric is None else self._metric[0] + self._metric[2] @ z
        return _Point(self.spec, self.kind.from_flat(theta, self.spec), self.series)

    def __call__(self, z: np.ndarray):
        if self.cached(z) is not None:
            return self._last[1].value, self._last[2].copy()
        try:
            point = self.point(z)
            grad = point.gradient()
        except (NumericError, ParameterError, OverflowError):
            return _PENALTY, np.zeros(z.size)
        if not np.all(np.isfinite(grad)):
            return _PENALTY, np.zeros(z.size)
        if self._metric is not None:
            grad = self._metric[2].T @ grad
        self._last = (z.copy(), point, grad)
        return point.value, grad.copy()

    def scale(self, theta0: np.ndarray):
        """Evaluate theta0 and, when the exact Hessian there in the optimizer's
        coordinates (ln n for the dispersion) is positive definite under the
        rule of `standard_errors`, make its upper Cholesky factor R the metric:
        in z the Hessian at the start is the identity.  Otherwise the points
        stay flat parameter vectors."""
        self(theta0)
        if self.cached(theta0) is None:  # off the valid region
            return
        _, point, grad = self._last
        H = _negloglik_hessian(self.spec, point.params, self.series, point.lam)
        n = point.params.n
        if n is not None:  # d/d ln n: H_ll = n^2 H_nn + n g_n and H_tl = n H_tn
            H[-1] *= n
            H[:, -1] *= n
            H[-1, -1] += grad[-1]
        if not _positive_definite(H):
            return
        R = np.linalg.cholesky(H).T
        inverse = np.linalg.inv(R)
        self._metric = (theta0.copy(), R, inverse)
        self._last = (np.zeros(theta0.size), point, inverse.T @ grad)


def _fit(objective: _Objective, starts, stage: str, until_converged: bool = False) -> FitResult:
    """The one fit driver: L-BFGS-B on the exact gradient from each flat start
    in turn, in the coordinates of `objective`.

    The lowest objective wins, ties broken by the earliest start.  With
    `until_converged` the remaining starts are skipped once the best point
    comes from a converged run.  Warns when the fit did not converge, and adds
    the lambda path, the information criteria and the standard errors, from
    the winning point's own mean path when it was its run's last evaluation.
    """
    spec, series = objective.spec, objective.series
    best = None  # (objective, optimizer point, success, iterations, cached point or None)
    for restarts_used, start in enumerate(starts):
        res = minimize(objective, objective.to_z(start), jac=True, method="L-BFGS-B",
                       options={"maxiter": _MAX_ITERATIONS, "ftol": _F_TOL})
        if best is None or res.fun < best[0]:
            best = (float(res.fun), res.x.copy(), bool(res.success and res.fun < _PENALTY), int(res.nit),
                    objective.cached(res.x))
        if until_converged and best[2]:
            break

    fun_val, z, success, iterations, point = best
    point = point if point is not None else objective.point(z)
    estimates = point.params
    loglik = -fun_val
    converged = success and math.isfinite(loglik)
    if not converged:
        warnings.warn(f"{stage} did not meet its tolerances", ConvergenceWarning)
    k = estimates.k()
    aic, bic = information_criteria(loglik, k, len(series))
    se = standard_errors(spec, estimates, series, point.lam) if converged else np.full(k, np.nan)
    return FitResult(
        spec=spec,
        estimates=estimates,
        std_errors=se,
        loglik=loglik,
        aic=aic,
        bic=bic,
        lambda_path=point.lam,
        converged=converged,
        iterations=iterations,
        restarts_used=restarts_used,
    )


def fit_cml(spec: ModelSpec, series, opts: Optional[OptimizerOptions] = None) -> FitResult:
    """Fit a softplus-linear model by conditional maximum likelihood.

    Runs L-BFGS-B on the exact gradient from the method-of-moments start; if
    that attempt does not converge, up to `opts.restarts` jittered restarts
    (multiplicative 1 +/- 0.2 on the start) are tried.  Every attempt runs in
    the metric of the exact Hessian at the moment start (in the optimizer's
    ln n coordinates) when that Hessian is positive definite under the rule
    of `standard_errors`, and in the flat parameters otherwise.  The best
    log-likelihood wins, ties broken by the earliest attempt.  The result is
    deterministic given `opts.seed` and never raises on non-convergence:
    `converged=False` carries the best point found.
    """
    opts = opts if opts is not None else OptimizerOptions()
    objective = _Objective(spec, series, LinearParams)
    theta0 = init_params(spec, objective.series).to_flat()
    objective.scale(theta0)
    starts = [theta0] + [
        theta0 * RngStream(opts.seed, attempt).generator().uniform(0.8, 1.2, size=theta0.size)
        for attempt in range(1, opts.restarts + 1)
    ]
    return _fit(objective, starts, "CML optimization", until_converged=True)


def fit_neural(spec: ModelSpec, series, opts: Optional[OptimizerOptions] = None,
               extra_starts: Sequence[NeuralWeights] = ()) -> FitResult:
    """Train the network by maximum likelihood with multi-start L-BFGS.

    Every start (fresh random initializations plus any `extra_starts`, e.g.
    warm starts from a smaller network) is run to completion and the best
    log-likelihood wins, ties broken by the earliest start.  Deterministic
    given `opts.seed`.
    """
    opts = opts if opts is not None else OptimizerOptions(restarts=10)
    objective = _Objective(spec, series, NeuralWeights)
    series = objective.series
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
    return _fit(objective, starts, "neural training")


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


def _negloglik_hessian(spec: ModelSpec, params, series: CountSeries, lam=None) -> np.ndarray:
    """Exact Hessian of `negloglik` in the layout of `params.to_flat(log_n=False)`,
    symmetrized; `lam` is the mean path of params when already computed.

    Forward over reverse: one mean path, then the parameter type's
    `hessian_parts` (the sensitivities S = d lambda / d theta from one banded
    forward solve with k right-hand sides, and the adjoint-weighted second
    derivatives of lambda from the adjoint solve `vjp` does) give the
    coefficient block S^T diag(l'') S + C; the family adds the dispersion row.
    This is the observed information of Fokianos, Rahbek & Tjostheim (2009)
    for the INGARCH recursion.
    """
    counts = series.table
    lam = conditional_mean_path(spec, params, series) if lam is None else lam
    n = params.n
    d_lam, _ = loglik_scores(counts, lam, n)
    d_lam2, d_lam_n, d_nn = loglik_curvatures(counts, lam, n)
    S, C = params.hessian_parts(spec, counts.x, lam, d_lam)
    H = S.T @ (d_lam2[:, None] * S) + C
    if n is not None:
        cross = S.T @ d_lam_n
        H = np.block([[H, cross[:, None]], [cross[None, :], d_nn]])
    return -(H + H.T) / 2.0


def _positive_definite(H: np.ndarray) -> bool:
    """Finite, with its smallest eigenvalue positive and above 1e-12 of the
    largest: a flat or collinear direction makes a Hessian (numerically) singular."""
    if not np.all(np.isfinite(H)):
        return False
    eigvals = np.linalg.eigvalsh(H)
    return eigvals[0] > 0 and eigvals[0] >= 1e-12 * max(eigvals[-1], 1.0)


def standard_errors(spec: ModelSpec, estimates, series, lam=None) -> np.ndarray:
    """Asymptotic standard errors from the inverse of the exact Hessian of the
    negated log-likelihood (the observed information).

    Computed in the natural parameter space at the estimates; `lam`, the
    conditional means of the estimates on `series` (a fit's `lambda_path`),
    saves recomputing them.  Every entry is NaN when the mean path is invalid
    there or the Hessian is not finite, singular or not positive definite;
    single entries whose inverse-Hessian diagonal is not positive are NaN as
    well.  Estimates that do not match `spec` raise ParameterError.

    `FitResult.converged` stays the optimizer's verdict and does not consult
    the Hessian: all-NaN standard errors at a converged fit mean the optimizer
    stopped at a saddle point or along a flat direction.
    """
    estimates.check(spec)
    series = series if isinstance(series, CountSeries) else CountSeries(series)
    try:
        H = _negloglik_hessian(spec, estimates, series, lam)
    except NumericError:
        return np.full(estimates.k(), np.nan)
    # flag every entry of a singular Hessian rather than report garbage magnitudes
    if not _positive_definite(H):
        return np.full(estimates.k(), np.nan)
    diag = np.diag(np.linalg.inv(H))
    return np.where(diag > 0, np.sqrt(np.abs(diag)), np.nan)
