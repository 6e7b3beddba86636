"""Single-hidden-layer neural INGARCH: forward recursion, exact gradient,
training with restarts, and hidden-unit selection.

The conditional mean is produced by a single-hidden-layer feedforward network

    g(x) = f1( sum_l u1_l * f0( sum_k u0_{k,l} x_k ) ),

with logistic hidden activation f0 and softplus output activation f1 (c = 1),
applied to the input vector x = (1, X_{t-1}..X_{t-p}, lambda_{t-1}..lambda_{t-q})
of width K = p + q + 1.  Since f1' = f0 and f0' = f0 (1 - f0), backpropagation
needs only the forward activations.  When q > 0 the lambda lags themselves
depend on the weights, so `NeuralWeights.vjp` carries the likelihood's
sensitivity backward through the lagged means (reverse mode over the time
loop) rather than truncating at the per-step partials.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Dict, Optional, Sequence, Tuple

import numpy as np
from scipy.special import expit

from .data import CountSeries, as_counts
from .distributions import RngStream
from .estimate import FitResult, OptimizerOptions, _dispersion_n, _fit, negloglik_and_grad
from .exceptions import ParameterError
from .model import NEGBIN, NEURAL, ModelSpec, _inputs, _lag_adjoint, _lag_matrix, _pre_sample
from .special import softplus, softplus_inverse

__all__ = [
    "NeuralWeights",
    "slfn_forward",
    "neural_gradient",
    "fit_neural",
    "select_hidden_units",
]


@dataclass(frozen=True)
class NeuralWeights:
    """Network weights: input-to-hidden matrix u0 (K x L), hidden-to-output
    vector u1 (L), and the negative binomial dispersion n when applicable."""

    u0: np.ndarray
    u1: np.ndarray
    n: Optional[float] = None

    def __post_init__(self):
        u0 = np.atleast_2d(np.asarray(self.u0, dtype=float))
        u1 = np.atleast_1d(np.asarray(self.u1, dtype=float))
        if u0.ndim != 2 or u1.ndim != 1 or u0.shape[1] != u1.size:
            raise ParameterError("u0 must be K x L and u1 length L")
        if not (np.all(np.isfinite(u0)) and np.all(np.isfinite(u1))):
            raise ParameterError("weights must be finite")
        object.__setattr__(self, "u0", u0)
        object.__setattr__(self, "u1", u1)
        if self.n is not None:
            n = float(self.n)
            if not (math.isfinite(n) and n > 0):
                raise ParameterError("dispersion n must be finite and > 0")
            object.__setattr__(self, "n", n)

    @property
    def input_width(self) -> int:
        return self.u0.shape[0]

    @property
    def hidden(self) -> int:
        return self.u0.shape[1]

    def k(self, family: str) -> int:
        """Number of free parameters under the given family."""
        return self.u0.size + self.u1.size + (1 if family == NEGBIN else 0)

    def to_flat(self, log_n: bool = True) -> np.ndarray:
        """Flatten to [u0 row-major, u1, (ln) n]; the optimizer works on ln n."""
        flat = np.concatenate([self.u0.ravel(), self.u1])
        if self.n is not None:
            flat = np.append(flat, math.log(self.n) if log_n else self.n)
        return flat

    @classmethod
    def from_flat(cls, flat, spec: ModelSpec, log_n: bool = True) -> "NeuralWeights":
        """Inverse of `to_flat` for the network shape and family of `spec`."""
        K, L = spec.input_width, spec.hidden
        flat = np.asarray(flat, dtype=float)
        expected = K * L + L + (1 if spec.family == NEGBIN else 0)
        if flat.size != expected:
            raise ParameterError(f"flat weight vector must have {expected} entries, got {flat.size}")
        n = None
        if spec.family == NEGBIN:
            n = math.exp(float(flat[-1])) if log_n else float(flat[-1])
        return cls(u0=flat[: K * L].reshape(K, L), u1=flat[K * L : K * L + L], n=n)

    def _check(self, spec: ModelSpec):
        if spec.link != NEURAL:
            raise ParameterError("neural weights require the neural link")
        if self.input_width != spec.input_width or self.hidden != spec.hidden:
            raise ParameterError("weight shapes do not match the model spec")

    def _respond(self, inputs: np.ndarray) -> float:
        """Network output for one input vector (1, x lags, lambda lags)."""
        z = float(self.u1 @ expit(self.u0.T @ inputs))
        return float(np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z))))

    def mean_path(self, spec: ModelSpec, x: np.ndarray, presample: Optional[float]) -> np.ndarray:
        """The recursion behind `conditional_mean_path` on the coerced series x:
        the network, fed its own lagged outputs when q > 0.  Unchecked, and
        `presample=None` means the floored sample mean of x."""
        self._check(spec)
        init, padded = _pre_sample(x, spec.p, presample)
        lags = _lag_matrix(padded, spec.p)
        if spec.q == 0:
            return np.atleast_1d(softplus(expit(lags @ self.u0) @ self.u1, 1.0))
        lam = np.empty(x.size)
        lprev = [init] * spec.q
        for t, x_lags in enumerate(lags[:, 1:].tolist()):
            lam[t] = v = self.step(spec, x_lags, lprev)
            lprev = [v] + lprev[:-1]
        return lam

    def vjp(self, spec: ModelSpec, x: np.ndarray, lam: np.ndarray, r: np.ndarray) -> np.ndarray:
        """sum_t r_t d lambda_t / d w for w = [u0 row-major, u1], where
        lam = mean_path(spec, x, None): backpropagation through the network,
        vectorised over t, and through the lagged means by `_lag_adjoint`."""
        B = _inputs(x, lam, spec.p, spec.q)
        H = expit(B @ self.u0)
        f1p = expit(H @ self.u1)  # f1' = f0 at the output
        dz_da = H * (1.0 - H) * self.u1
        a = _lag_adjoint(r, f1p[:, None] * (dz_da @ self.u0[1 + spec.p :].T)) if spec.q else r
        w = a * f1p
        return np.concatenate([(B.T @ (dz_da * w[:, None])).ravel(), H.T @ w])

    def step(self, spec: ModelSpec, x_lags, lam_lags) -> float:
        """One conditional mean from the p latest counts and q latest means, newest first."""
        return self._respond(np.array([1.0, *x_lags, *lam_lags]))

    def chain_start(self, spec: ModelSpec) -> float:
        """Start of a simulated chain: the network output with every lag input zero."""
        self._check(spec)
        return self.step(spec, [0.0] * spec.p, [0.0] * spec.q)


def slfn_forward(weights: NeuralWeights, x) -> float:
    """Network response for one input vector; strictly positive."""
    x = np.asarray(x, dtype=float)
    if x.shape != (weights.input_width,):
        raise ParameterError(f"input must have {weights.input_width} entries, got {x.shape}")
    return weights._respond(x)


def neural_gradient(weights: NeuralWeights, spec: ModelSpec, series) -> np.ndarray:
    """Exact gradient of `negloglik` in the flat layout of
    `NeuralWeights.to_flat` (u0 row-major, u1, then ln n for the NB family):
    the gradient half of `negloglik_and_grad`.  For q > 0 it is the total
    derivative, through the lagged conditional means included."""
    return negloglik_and_grad(spec, weights, series)[1]


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


def fit_neural(
    spec: ModelSpec,
    series,
    opts: Optional[OptimizerOptions] = None,
    extra_starts: Sequence[NeuralWeights] = (),
) -> FitResult:
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


def select_hidden_units(
    spec: ModelSpec,
    series,
    L_range: Sequence[int],
    opts: Optional[OptimizerOptions] = None,
    criterion: str = "aic",
) -> Tuple[int, Dict[int, FitResult]]:
    """Fit each hidden-unit count and pick the information-criterion winner.

    Larger networks are additionally warm-started from the previous winner
    with an idle extra unit, so the in-sample fit is monotone in L up to
    optimizer tolerance.  Ties go to the smaller network.
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
    best_L = Ls[0]
    for L in Ls[1:]:
        score = getattr(fits[L], criterion)
        if score < getattr(fits[best_L], criterion):
            best_L = L
    return best_L, fits
