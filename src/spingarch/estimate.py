"""Conditional maximum likelihood estimation for softplus-link count models.

The conditional log-likelihood of a series x_1..x_s is the sum of one-step
log pmfs at the conditional means lambda_t produced by the model recursion
(with pre-sample values initialized from the sample mean).  For the negative
binomial family each term is

    x_t ln(lambda_t/n) - (n + x_t) ln(1 + lambda_t/n)
        + sum_{v=1..x_t} ln(v + n - 1) - ln(x_t!),

and for Poisson it is x_t ln(lambda_t) - lambda_t - ln(x_t!).  The count
terms are evaluated once per distinct count of the series (`CountSeries.table`,
built once per series).  The gradient and the Hessian are exact for both
links and come from one pass, forward over reverse (`_Point.derivatives`):
the parameter type's `hessian_parts` solves the lambda-lag band forward for
the sensitivities S = d lambda / d theta and backward for the adjoints that
weight the second derivatives of lambda, each by one recursive-doubling
solve (`_lag_adjoint`), and is vectorised over the series otherwise.  The
gradient is S^T dl/dlambda, and the family adds the dispersion row; the
count terms' derivatives in lambda and n all come from `loglik_derivatives`.

One driver fits both links: trust-region Newton on that gradient and
Hessian (`_newton`), each subproblem solved exactly from the Hessian's
eigendecomposition, so an indefinite Hessian costs nothing special.  The
dispersion n is optimized on the log scale so it stays positive, with ln n
capped at ln 1e15 as a boundary of the trust region, while the regression
coefficients are unconstrained (negative values are a feature, not an
error).  A run stops on the Newton decrement (Boyd & Vandenberghe 2004,
sec. 9.5.1) or on a flat drift, and a fit is `converged` when its winning
point passes a stationarity test on the decrement and on the gradient along
non-positive curvature.  Standard errors invert the winning point's Hessian.

`fit_cml` is the one fitter of both links, which differ only in their
starts.  A linear fit starts at the method of moments, in closed form for
(1,1) models, with jittered restarts while no run has converged.  A network
starts from random weights, each run to completion, plus warm starts;
`select_hidden_units` warm-starts each larger network from the previous
winner with an idle extra unit.  Every NB start takes n from
`_dispersion_n`; `select_fit` ranks the fits of either link.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .data import CountSeries, as_counts, dispersion_ratio, sample_acf
from .distributions import RngStream, loglik_derivatives, loglik_terms
from .exceptions import ConvergenceWarning, DataError, NumericError, ParameterError
from .model import NEGBIN, NEURAL, LinearParams, ModelSpec, NeuralWeights, conditional_mean_path
from .special import expit, softplus_inverse

__all__ = [
    "OptimizerOptions",
    "FitResult",
    "negloglik",
    "negloglik_and_grad",
    "init_params",
    "fit_cml",
    "extend_with_idle_unit",
    "select_hidden_units",
    "select_fit",
    "standard_errors",
    "information_criteria",
]

_N_BOUNDS = (0.1, 1e4)  # the clamp of a start's dispersion
# The trust region's boundary on ln n.  At n = 1e15 the NB variance
# lambda (1 + lambda / n) is within a factor 1 + 1e-9 of the Poisson one for
# every mean below 1e6; without the cap an unidentified dispersion can drift
# towards overflow.
_LOG_N_CAP = math.log(1e15)
# Newton limits of every start: trial steps, the tight stopping rule on the
# decrement and the stray gradient, and the flat-drift stop
_MAX_ITERATIONS = 400
_STOP_DECREMENT = 1e-10
_STOP_STRAY = 1e-8
_STALL_STEPS = 3
# the stationarity test of `FitResult.converged`
_DECREMENT_TOL = 1e-4
_STRAY_TOL = 1e-5


@dataclass(frozen=True)
class OptimizerOptions:
    """Restarts of a fit and the seed of their starts; `restarts` of None
    means the link's default, 2 for linear and 10 for neural fits."""

    restarts: Optional[int] = None
    seed: int = 0

    def __post_init__(self):
        if (self.restarts is not None and self.restarts < 0) or self.seed < 0:
            raise ParameterError(f"restarts >= 0 and seed >= 0 required, got {self.restarts} and {self.seed}")


@dataclass
class FitResult:
    """Estimates plus the bookkeeping needed to reuse or audit a fit.

    `converged` is the stationarity test at the winning point, whatever
    stopped its run: the Newton decrement g^T H^+ g on the positive-curvature
    subspace of the exact Hessian (ln n coordinates) is at most 1e-4 and the
    gradient norm along the other directions at most 1e-5.  `iterations` is
    the winning run's number of Newton trial steps, accepted or rejected, one
    likelihood evaluation each.  `restarts_used` is the index of the last
    start tried.
    """

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
    log-likelihood there and, on demand, its exact gradient and Hessian.  Raises
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

    def derivatives(self) -> Tuple[np.ndarray, np.ndarray]:
        """The exact gradient and Hessian of `value` in the layout of
        `params.to_flat()` (ln n), from the one derivative pass of the module
        docstring: S and C from `hessian_parts`, the gradient S^T l' and the
        block S^T diag(l'') S + C, then the dispersion row.  The symmetrized
        Hessian on the n scale, the observed information of Fokianos, Rahbek
        & Tjostheim (2009), is kept as `information`."""
        n = self.params.n
        d_lam, d_lam2, d_lam_n, d_n, d_nn = loglik_derivatives(self.counts, self.lam, n)
        S, C = self.params.hessian_parts(self.spec, self.counts.x, self.lam, d_lam)
        grad = -(S.T @ d_lam)
        H = S.T @ (d_lam2[:, None] * S) + C
        if n is not None:
            cross = S.T @ d_lam_n
            H = np.block([[H, cross[:, None]], [cross[None, :], d_nn]])
        self.information = -(H + H.T) / 2.0
        if n is None:
            return grad, self.information
        # d/d ln n: g_l = n g_n, H_ll = n^2 H_nn + n g_n and H_tl = n H_tn
        grad, hess = np.append(grad, -d_n * n), self.information.copy()
        hess[-1] *= n
        hess[:, -1] *= n
        hess[-1, -1] += grad[-1]
        return grad, hess


def negloglik(spec: ModelSpec, params, series) -> float:
    """Negated conditional log-likelihood; `params` is LinearParams or NeuralWeights."""
    return _Point(spec, params, series).value


def negloglik_and_grad(spec: ModelSpec, params, series) -> Tuple[float, np.ndarray]:
    """`negloglik` and its exact gradient in the layout of `params.to_flat()`
    (ln n for the dispersion): the gradient of the one derivative pass,
    `_Point.derivatives`, whose Hessian half the fits use as well.  For q > 0
    it is the total derivative, through the lagged conditional means
    included.  An array-like `series` is validated and tabulated on every
    call; wrap it in a `CountSeries` once to evaluate it many times.
    """
    point = _Point(spec, params, series)
    return point.value, point.derivatives()[0]


def _mean_and_dispersion(series) -> Tuple[float, float]:
    """The sample mean and `dispersion_ratio`, 1 for an all-zero series or a single count."""
    x = as_counts(series)
    return float(x.mean()), dispersion_ratio(series) if x.size > 1 and x.any() else 1.0


def _dispersion_n(xbar: float, disp: float, a1: float = 0.0, b1: float = 0.0) -> float:
    """The n at which the linear (1,1) model with coefficients a1, b1 and mean
    xbar has dispersion ratio D = disp, (1 + xbar/n) A / (A - a1^2 - a1^2/n)
    with A = 1 - 2 a1 b1 - b1^2: n = (D a1^2 + xbar A) / (D (A - a1^2) - A),
    xbar / (D - 1) at a1 = b1 = 0.  A denominator <= 0 (data no more
    dispersed than Poisson) gives the upper end of the clamp [0.1, 1e4]."""
    lo, hi = _N_BOUNDS
    acf_den = 1.0 - 2.0 * a1 * b1 - b1 * b1
    den = disp * (acf_den - a1 * a1) - acf_den
    if den <= 0.0:
        return hi
    return min(max((disp * a1 * a1 + xbar * acf_den) / den, lo), hi)


def init_params(spec: ModelSpec, series) -> LinearParams:
    """Method-of-moments starting values.

    For (1,1) models alpha0, alpha1 and beta1 solve the `linear_moments_11`
    equations for the sample mean, lag-1 ACF r1 and decay rate phi = r2/r1
    (0 when |r1| <= 0.05, clamped to +/-0.9) in closed form: with
    beta1 = phi - alpha1 the lag-1 equation is the quadratic
    (phi - r1) a^2 + (1 - phi^2) a - r1 (1 - phi^2) = 0 of the ARMA(1,1)
    moment estimator (Box & Jenkins 1976, ch. 6), solved by its root that is
    r1 at phi = r1 (r1 itself when the roots are complex).  Both coefficients
    are clamped to +/-0.9, which keeps their sum at most 0.9; n is
    `_dispersion_n`'s.  Other orders fall back to a conservative generic rule.
    """
    x = as_counts(series)
    s = x.size
    if s < 10 * (spec.p + spec.q + 2):
        raise ParameterError(f"series too short for initialization: need >= {10 * (spec.p + spec.q + 2)} points")
    xbar, disp = _mean_and_dispersion(series)
    try:
        rho = sample_acf(x, max(spec.p, 2))
    except DataError:  # constant series: no autocorrelation to match
        rho = np.zeros(max(spec.p, 2))

    if (spec.p, spec.q) == (1, 1):
        r1, r2 = float(rho[0]), float(rho[1])
        decay = min(max(r2 / r1 if abs(r1) > 0.05 else 0.0, -0.9), 0.9)
        radicand = 1.0 + 4.0 * r1 * (decay - r1) / (1.0 - decay * decay)
        a1 = 2.0 * r1 / (1.0 + math.sqrt(radicand)) if radicand >= 0.0 else r1
        a1 = min(max(a1, -0.9), 0.9)
        b1 = min(max(decay - a1, -0.9), 0.9)
        alpha0 = xbar * (1.0 - a1 - b1)
        n = _dispersion_n(xbar, disp, a1, b1) if spec.family == NEGBIN else None
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
    n = _dispersion_n(*_mean_and_dispersion(series)) if spec.family == NEGBIN else None
    return NeuralWeights(u0=u0, u1=u1, n=n)


class _Objective:
    """The Newton driver's view of one fit's likelihood.

    Called at a flat point theta of the parameter type `kind` (ln n for the
    dispersion), it returns the `_Point` there, or None off the valid region.
    """

    def __init__(self, spec: ModelSpec, series, kind):
        self.spec, self.kind = spec, kind
        # validated once here; every later as_counts on a CountSeries skips the checks
        self.series = series if isinstance(series, CountSeries) else CountSeries(series)

    def __call__(self, theta: np.ndarray) -> Optional[_Point]:
        try:
            return _Point(self.spec, self.kind.from_flat(theta, self.spec), self.series)
        except (NumericError, ParameterError, OverflowError):
            return None


def _finite_derivatives(point: _Point):
    """`point.derivatives()`, or None where the gradient or Hessian is not
    finite there: such a point counts as off the valid region.  The
    derivative pass raises nothing; a bad point shows as non-finite entries."""
    g, H = point.derivatives()
    return (g, H) if np.all(np.isfinite(g)) and np.all(np.isfinite(H)) else None


def _positive_curvature(w: np.ndarray) -> np.ndarray:
    """Which of a Hessian's ascending eigenvalues w count as positive: above
    1e-12 of the largest (or of 1).  A smaller one marks a flat or collinear
    direction.  `_stationarity`, and so `FitResult.converged`, and the
    standard errors share this rule."""
    return w > 1e-12 * max(w[-1], 1.0)


def _stationarity(w: np.ndarray, a: np.ndarray) -> Tuple[float, float]:
    """(lambda^2, stray) at a point whose Hessian has eigenvalues w and whose
    gradient has coordinates a in the eigenbasis: the Newton decrement
    g^T H^+ g on the positive-curvature subspace (twice the gain one more
    Newton step predicts; Boyd & Vandenberghe 2004, sec. 9.5.1) and the
    gradient norm along the other directions."""
    positive = _positive_curvature(w)
    return float(np.sum(a[positive] ** 2 / w[positive])), float(np.linalg.norm(a[~positive]))


def _trust_step(w: np.ndarray, a: np.ndarray, radius: float) -> np.ndarray:
    """The exact minimizer c of a.c + c.diag(w).c / 2 over |c| <= radius: the
    trust-region subproblem in the Hessian's eigenbasis (Moré & Sorensen 1983;
    Conn, Gould & Toint 2000, ch. 7).

    Inside the region it is the Newton step.  On its boundary it is
    -a / (w + mu) with mu >= max(0, -w_min) chosen by Newton's method on the
    secular equation 1/|c(mu)| = 1/radius, which converges monotonically from
    the left.  In the hard case -- no gradient along the lowest eigenvector
    and a shifted step shorter than the radius -- the lowest eigenvector fills
    the step up to the boundary.  Where the eigenvalues span so many decades
    that the start is not left of the root, each Newton update at most halves
    the shift, and the search ends once c underflows."""
    if w[0] > 0.0:
        c = -a / w
        if c @ c <= radius * radius:
            return c
    d = w - w[0]  # w + mu = d + sigma with sigma = w_min + mu, exact on the lowest eigenspace
    low = d <= 1e-12 * max(abs(w[0]), 1.0)  # not w_max: on a wide spectrum that merges distant eigenvalues
    sigma = max(w[0], 0.0)
    a_low = float(np.linalg.norm(a[low]))
    if w[0] <= 0.0:
        if a_low > 1e-12 * float(np.linalg.norm(a)):
            sigma = a_low / radius  # |c(sigma)| >= a_low / sigma = radius: left of the root
        else:
            lowest, a = a[0], np.where(low, 0.0, a)
            c = -np.divide(a, d, out=np.zeros_like(a), where=~low)
            rest = radius * radius - c @ c
            if rest >= 0.0:  # the hard case
                c[0] = -math.copysign(math.sqrt(rest), lowest)
                return c
    for _ in range(100):
        D = d + sigma
        c = -np.divide(a, D, out=np.zeros_like(a), where=a != 0.0)
        norm = math.sqrt(c @ c)
        if abs(norm - radius) <= 1e-10 * radius:
            break
        slope = float(np.sum(np.divide(c * c, D, out=np.zeros_like(c), where=c != 0.0)))
        if slope == 0.0:
            break
        sigma = max(sigma + (norm / radius - 1.0) * norm * norm / slope, 0.5 * sigma)
    return c


@dataclass
class _Run:
    """The end of one Newton run: its last accepted point, its trial steps,
    and whether the point passes the test of `FitResult.converged`."""

    point: Optional[_Point]
    iterations: int
    converged: bool

    @property
    def value(self) -> float:  # +inf without a point
        return math.inf if self.point is None else self.point.value


def _newton(objective: _Objective, theta: np.ndarray) -> _Run:
    """Trust-region Newton on the exact gradient and Hessian from the flat
    start theta, in the coordinates of `objective` (Nocedal & Wright 2006,
    alg. 4.1, with `_trust_step` solving each subproblem exactly).

    A trial step is accepted when the objective falls by more than 1e-2 of
    what the quadratic model predicts; a step off the valid region, or to a
    point whose gradient or Hessian is not finite, is rejected.  ln n stays
    at or below _LOG_N_CAP: a step past it is shortened to the cap, and from
    the cap ln n is held while the rest moves.  The run stops at the first of:
    - the tight rule: decrement at most _STOP_DECREMENT and stray gradient at
      most _STOP_STRAY;
    - flat drift: the last _STALL_STEPS points all passed the test of
      `FitResult.converged` without meeting the tight rule, which Newton's
      quadratic convergence would have met (a direction of tiny curvature
      along which every step gains about as much as the last);
    - a model gain the objective cannot resolve, or _MAX_ITERATIONS trial steps.
    """
    point = objective(theta)
    derivatives = None if point is None else _finite_derivatives(point)
    if derivatives is None:
        return _Run(None, 0, False)
    capped = point.params.n is not None
    settled = 0  # points in a row that pass the converged test
    radius = None
    iterations = 0
    fresh = True
    while True:
        if fresh:  # a new point: its derivatives and the stops that read them
            g, H = derivatives
            w, Q = np.linalg.eigh(H)
            a = Q.T @ g
            decrement, stray = _stationarity(w, a)
            passes = decrement <= _DECREMENT_TOL and stray <= _STRAY_TOL
            settled = settled + 1 if passes else 0
            if decrement <= _STOP_DECREMENT and stray <= _STOP_STRAY or settled >= _STALL_STEPS:
                break
            fresh = False
        if iterations >= _MAX_ITERATIONS:
            break
        if radius is None:  # the first Newton step when it is a descent step, else the start's scale
            radius = float(np.linalg.norm(a / w)) if w[0] > 0.0 else max(float(np.linalg.norm(theta)), 1.0)
        step = Q @ _trust_step(w, a, radius)
        crossing = capped and theta[-1] + step[-1] > _LOG_N_CAP
        if crossing and theta[-1] >= _LOG_N_CAP:  # on the cap: hold ln n and step in the rest
            w_free, Q_free = np.linalg.eigh(H[:-1, :-1])
            step = np.append(Q_free @ _trust_step(w_free, Q_free.T @ g[:-1], radius), 0.0)
            crossing = False
        elif crossing:
            step *= (_LOG_N_CAP - theta[-1]) / step[-1]
        gain_model = -(g @ step + 0.5 * step @ H @ step)
        if gain_model <= 1e-15 * max(abs(point.value), 1.0):
            break
        trial = theta + step
        if crossing:
            trial[-1] = _LOG_N_CAP
        iterations += 1
        trial_point = objective(trial)
        ratio = -math.inf if trial_point is None else (point.value - trial_point.value) / gain_model
        if ratio > 1e-2:
            derivatives = _finite_derivatives(trial_point)
            if derivatives is None:
                ratio = -math.inf
        length = float(np.linalg.norm(step))
        if ratio < 0.25:
            radius = 0.25 * length
        elif ratio > 0.75 and length > 0.99 * radius:
            radius = 2.0 * radius
        if ratio > 1e-2:
            theta, point, fresh = trial, trial_point, True
    return _Run(point, iterations, passes)


def _fit(objective: _Objective, starts, stage: str, until_converged: bool = False) -> FitResult:
    """The one fit driver: `_newton` from each flat start in turn.

    The lowest objective wins, ties broken by the earliest start.  With
    `until_converged` the remaining starts are skipped once the best point
    comes from a converged run.  Warns when the fit did not converge, and adds
    the lambda path, the information criteria and the standard errors, all
    from the winning point's own mean path and last Hessian.
    """
    spec, series = objective.spec, objective.series
    best = None
    for restarts_used, start in enumerate(starts):
        run = _newton(objective, start)
        if best is None or run.value < best.value:
            best = run
        if until_converged and best.converged:
            break

    point = best.point
    if point is None:
        raise NumericError(f"{stage}: no start has a finite likelihood")
    estimates = point.params
    loglik = -best.value
    converged = best.converged
    if not converged:
        warnings.warn(f"{stage} did not meet its tolerances", ConvergenceWarning)
    k = estimates.k()
    aic, bic = information_criteria(loglik, k, len(series))
    se = _inverse_information_se(point.information) if converged else np.full(k, np.nan)
    return FitResult(
        spec=spec,
        estimates=estimates,
        std_errors=se,
        loglik=loglik,
        aic=aic,
        bic=bic,
        lambda_path=point.lam,
        converged=converged,
        iterations=best.iterations,
        restarts_used=restarts_used,
    )


def fit_cml(spec: ModelSpec, series, opts: Optional[OptimizerOptions] = None,
            extra_starts: Sequence = ()) -> FitResult:
    """Fit either link by conditional maximum likelihood: trust-region Newton
    from each start in turn, the best log-likelihood winning (ties go to the
    earliest start).

    A linear fit starts at the method of moments and, while no run has
    converged, tries up to `opts.restarts` jittered restarts (1 +/- 0.2 times
    that start).  A network runs `opts.restarts + 1` random starts to
    completion and warns below its identifiability floor.  `extra_starts`
    (e.g. warm starts from a smaller network) come last.  `opts.restarts` of
    None means 2 for a linear fit and 10 for a network.  Deterministic given
    `opts.seed`; never raises on non-convergence: `converged=False` carries
    the best point found.
    """
    opts = opts if opts is not None else OptimizerOptions()
    neural = spec.link == NEURAL
    restarts = opts.restarts if opts.restarts is not None else (10 if neural else 2)
    objective = _Objective(spec, series, NeuralWeights if neural else LinearParams)
    series = objective.series
    if neural:
        floor = 20 * (spec.input_width + 1) * spec.hidden / (spec.p + spec.q + 1)
        if len(series) < floor:
            warnings.warn(f"series length {len(series)} is below the identifiability floor {floor:.0f} "
                          "for this network", UserWarning)
        starts = [_initial_weights(spec, series, RngStream(opts.seed, k).generator()).to_flat()
                  for k in range(restarts + 1)]
    else:
        theta0 = init_params(spec, series).to_flat()
        starts = [theta0] + [theta0 * RngStream(opts.seed, k).generator().uniform(0.8, 1.2, size=theta0.size)
                             for k in range(1, restarts + 1)]
    starts.extend(w.to_flat() for w in extra_starts)
    return _fit(objective, starts, "neural training" if neural else "CML optimization", not neural)


def extend_with_idle_unit(weights: NeuralWeights) -> NeuralWeights:
    """Append one hidden unit wired to contribute nothing: the response (and
    hence the likelihood) is unchanged, giving a warm start for L+1 units."""
    u0 = np.hstack([weights.u0, np.zeros((weights.input_width, 1))])
    u1 = np.append(weights.u1, 0.0)
    return NeuralWeights(u0=u0, u1=u1, n=weights.n)


def select_fit(fits: Dict[object, FitResult], criterion: str = "aic"):
    """The label of the criterion winner among the converged `fits` (a mapping
    from labels), or among all with a ConvergenceWarning when none converged;
    ties go to fewer parameters, then the smaller p + q, then the earlier label."""
    if criterion not in ("aic", "bic"):
        raise ParameterError("criterion must be 'aic' or 'bic'")
    ranked = [label for label, fit in fits.items() if fit.converged]
    if not ranked:
        warnings.warn("no candidate fit converged; ranking every fit", ConvergenceWarning)
    return min(ranked or fits, key=lambda label: (getattr(fits[label], criterion), fits[label].estimates.k(),
                                                  fits[label].spec.p + fits[label].spec.q))


def select_hidden_units(spec: ModelSpec, series, L_range: Sequence[int],
                        opts: Optional[OptimizerOptions] = None,
                        criterion: str = "aic") -> Tuple[int, Dict[int, FitResult]]:
    """Fit each hidden-unit count and pick the information-criterion winner.

    Larger networks are additionally warm-started from the previous winner
    with an idle extra unit, so the in-sample fit is monotone in L up to
    optimizer tolerance.  `select_fit` picks the winner, so ties go to the
    smaller network.
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
        fits[L] = fit_cml(spec_L, series, opts, extra_starts=extra)
        prev = fits[L].estimates
    return select_fit(fits, criterion), fits


def standard_errors(spec: ModelSpec, estimates, series) -> np.ndarray:
    """Asymptotic standard errors from the inverse of the exact Hessian of the
    negated log-likelihood (the observed information).

    Computed in the natural parameter space at the estimates, from the
    `information` of one `_Point.derivatives` pass.  Every entry is NaN when
    the mean path or the likelihood is invalid there (the `_Point` raises
    NumericError; the derivative pass raises nothing) or the Hessian is not
    finite, singular or not positive definite; single entries whose
    inverse-Hessian diagonal is not positive are NaN as well.  Estimates that
    do not match `spec` raise ParameterError.

    A fit's own standard errors come from the Hessian of its winning point,
    computed the same way.  `FitResult.converged` tests stationarity, not
    curvature: all-NaN standard errors at a converged fit mean the fit
    stopped at a saddle point or along a flat direction with no gradient
    along it.
    """
    estimates.check(spec)
    try:
        point = _Point(spec, estimates, series)
    except NumericError:
        return np.full(estimates.k(), np.nan)
    point.derivatives()
    return _inverse_information_se(point.information)


def _inverse_information_se(H: np.ndarray) -> np.ndarray:
    """Square roots of the diagonal of H^-1, all NaN unless H is finite and
    positive definite by `_positive_curvature`."""
    # flag every entry of a singular Hessian rather than report garbage magnitudes
    if not (np.all(np.isfinite(H)) and np.all(_positive_curvature(np.linalg.eigvalsh(H)))):
        return np.full(H.shape[0], np.nan)
    diag = np.diag(np.linalg.inv(H))
    return np.where(diag > 0, np.sqrt(np.abs(diag)), np.nan)
