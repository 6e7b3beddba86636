"""Model specification, the two response types, conditional-mean recursions,
stationarity checks, and linear moment approximations.

The softplus INGARCH(p, q) model drives a count series {X_t} through

    X_t | F_{t-1}  ~  Poisson(lambda_t)  or  NB(n, n/(n+lambda_t)),
    lambda_t = sp(alpha0 + sum_i alpha_i X_{t-i} + sum_j beta_j lambda_{t-j}),

where sp is the softplus link.  Coefficients may be negative -- that is the
point of the softplus link -- so the ACF of the process can take negative
values while lambda_t stays strictly positive.

The neural response replaces the linear predictor with a single hidden layer,

    lambda_t = f1( sum_l u1_l * f0( sum_k u0_{k,l} x_k ) ),

with logistic f0 and softplus f1 (c = 1) on the input vector
x = (1, X_{t-1}..X_{t-p}, lambda_{t-1}..lambda_{t-q}) of width K = p + q + 1.
Since f1' = f0 and f0' = f0 (1 - f0), the derivatives need only the forward
activations.  One scalar loop, `NeuralWeights._run`, draws, fits, starts and
evaluates the network; only the q = 0 mean path is vectorised.

The parameters carry the family: NB parameters hold the dispersion n, Poisson
ones (the n -> inf limit) none, and every function below reads it from n.
`check(spec)` of either parameter type ties n, link and orders to a ModelSpec.

Because exact moments of the softplus model are intractable, the classical
linear INGARCH moment formulas evaluated at the same coefficients serve as
close approximations; they are implemented here both in closed form for the
(1,1) model and through a general autocovariance linear system.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import partial
from itertools import repeat
from typing import Optional, Tuple

import numpy as np

from .data import as_counts
from .exceptions import NumericError, ParameterError
from .special import expit, softplus

__all__ = [
    "POISSON",
    "NEGBIN",
    "SOFTPLUS_LINEAR",
    "NEURAL",
    "ModelSpec",
    "LinearParams",
    "NeuralWeights",
    "slfn_forward",
    "StationarityReport",
    "Moments",
    "conditional_mean_path",
    "check_stationarity",
    "linear_moments_11",
    "linear_acvf_general",
    "presample_init",
]

POISSON = "poisson"
NEGBIN = "negbin"
SOFTPLUS_LINEAR = "softplus-linear"
NEURAL = "neural"

_FAMILIES = (POISSON, NEGBIN)
_LINKS = (SOFTPLUS_LINEAR, NEURAL)

# Floor applied to the sample-mean pre-sample initialization so an all-zeros
# series still yields lambda > 0.
MEAN_FLOOR = 1e-4


@dataclass(frozen=True)
class ModelSpec:
    """Family, link and orders of a count model.

    p counts observation lags, q conditional-mean lags.  `c` is the softplus
    smoothness (softplus-linear link only, default 1); `hidden` the number of
    hidden units (neural link only).
    """

    family: str
    link: str
    p: int
    q: int
    c: float = 1.0
    hidden: Optional[int] = None

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ParameterError(f"unknown family {self.family!r}; expected one of {_FAMILIES}")
        if self.link not in _LINKS:
            raise ParameterError(f"unknown link {self.link!r}; expected one of {_LINKS}")
        if self.p < 0 or self.q < 0 or self.p + self.q < 1:
            raise ParameterError("orders must satisfy p >= 0, q >= 0, p + q >= 1")
        if self.q >= 1 and self.p < 1:
            raise ParameterError("q >= 1 requires p >= 1")
        if not (np.isfinite(self.c) and self.c > 0):
            raise ParameterError("c must be finite and > 0")
        if self.link == NEURAL:
            if self.hidden is None or self.hidden < 1:
                raise ParameterError("neural link requires hidden >= 1")
            if self.c != 1.0:
                raise ParameterError("c applies to the softplus-linear link only; the network uses c = 1")
        elif self.hidden is not None:
            raise ParameterError("hidden applies to the neural link only")

    @property
    def input_width(self) -> int:
        """Neural input width: constant plus p observation and q mean lags."""
        return self.p + self.q + 1


@dataclass(frozen=True)
class LinearParams:
    """Coefficients of a softplus-linear model.

    alpha0 is the intercept, alpha the p observation-lag coefficients, beta the
    q feedback coefficients, and n the negative binomial dispersion (None for
    Poisson).  Coefficients are unconstrained reals; only n must be positive.
    """

    alpha0: float
    alpha: Tuple[float, ...] = ()
    beta: Tuple[float, ...] = ()
    n: Optional[float] = None

    def __post_init__(self):
        object.__setattr__(self, "alpha", tuple(float(a) for a in self.alpha))
        object.__setattr__(self, "beta", tuple(float(b) for b in self.beta))
        object.__setattr__(self, "alpha0", float(self.alpha0))
        vals = (self.alpha0,) + self.alpha + self.beta
        if not all(math.isfinite(v) for v in vals):
            raise ParameterError("coefficients must be finite")
        if self.n is not None:
            object.__setattr__(self, "n", float(self.n))
            if not (math.isfinite(self.n) and self.n > 0):
                raise ParameterError("dispersion n must be finite and > 0")

    @property
    def p(self) -> int:
        return len(self.alpha)

    @property
    def q(self) -> int:
        return len(self.beta)

    def k(self) -> int:
        """Number of free parameters, n included when present."""
        return 1 + self.p + self.q + (self.n is not None)

    def to_flat(self, log_n: bool = True) -> np.ndarray:
        """Flatten to [alpha0, alpha, beta, (ln) n]; the optimizer works on ln n."""
        flat = [self.alpha0, *self.alpha, *self.beta]
        if self.n is not None:
            flat.append(math.log(self.n) if log_n else self.n)
        return np.asarray(flat, dtype=float)

    @classmethod
    def from_flat(cls, flat, spec: ModelSpec, log_n: bool = True) -> "LinearParams":
        """Inverse of `to_flat` for the orders and family of `spec`."""
        p, q, nb = spec.p, spec.q, spec.family == NEGBIN
        if len(flat) != 1 + p + q + nb:
            raise ParameterError(f"flat parameter vector must have {1 + p + q + nb} entries, got {len(flat)}")
        n = (math.exp(float(flat[-1])) if log_n else float(flat[-1])) if nb else None
        return cls(float(flat[0]), tuple(flat[1 : 1 + p]), tuple(flat[1 + p : 1 + p + q]), n)

    def check(self, spec: ModelSpec):
        """Raise ParameterError unless `spec` is softplus-linear of these orders, negbin iff n is set."""
        if spec.link != SOFTPLUS_LINEAR:
            raise ParameterError("linear parameters require the softplus-linear link")
        if self.p != spec.p or self.q != spec.q:
            raise ParameterError("parameter orders do not match the model spec")
        _check_dispersion(spec, self.n)

    def mean_path(self, spec: ModelSpec, x: np.ndarray, presample: Optional[float]) -> np.ndarray:
        """The recursion behind `conditional_mean_path` on the coerced series x,
        its output unchecked; `presample=None` means the floored sample mean of x."""
        self.check(spec)
        p, q, c = spec.p, spec.q, spec.c
        s = x.size
        v = _pre_sample(x, presample)
        padded = np.concatenate([np.full(p, v), x])
        # observation part alpha0 + sum_i alpha_i x_{t-i}, vectorised for every q
        eta = np.full(s, self.alpha0)
        for i in range(1, p + 1):
            eta += self.alpha[i - 1] * padded[p - i : p - i + s]
        if q == 0:
            return _softplus_or_nan(eta, c)

        # Feedback part: one scalar loop, beta_1 inline and beta_2..beta_q after it.
        exp, log1p = math.exp, math.log1p
        b1, taps = self.beta[0], tuple(enumerate(self.beta[1:], 2))
        lam = [v] * q  # pre-sample means, then lambda_1..lambda_s
        for e in eta.tolist():
            e += b1 * v
            if taps:
                for j, b in taps:
                    e += b * lam[-j]
            v = e + c * log1p(exp(-e / c)) if e > 0.0 else c * log1p(exp(e / c))
            lam.append(v)
        return np.array(lam[q:])

    def hessian_parts(self, spec: ModelSpec, x: np.ndarray, lam: np.ndarray, r: np.ndarray):
        """The pieces of the derivatives of sum_t l_t(lambda_t) in theta =
        [alpha0, alpha, beta] that this link owns, where
        lam = mean_path(spec, x, None) and r_t = l_t'(lambda_t): the total
        sensitivities S = d lambda / d theta (s x k) and
        C = sum_t a_t d2 lambda_t / d theta2, the lagged means' own second
        derivatives carried by the adjoints a = (I - L)^-T r of the feedback.
        The gradient is S^T r and the Hessian S^T diag(l'') S + C.

        Forward over reverse: S solves (I - L) S = d B, L[t, t-j] = d_t beta_j,
        with d = sp'(eta), and a the transposed band backward, each by one
        `_lag_adjoint` solve; G = B + sum_j beta_j S_{t-j} is the total
        d eta / d theta, and C = G^T diag(a sp''(eta)) G plus
        r_j = sum_t a_t d_t S_{t-j} in the beta_j row and column."""
        p, q = spec.p, spec.q
        B = _inputs(x, lam, p, q, _pre_sample(x))
        theta = np.array([self.alpha0, *self.alpha, *self.beta])
        d = -np.expm1(-lam / spec.c)  # sp'(eta_t) = 1 - exp(-lambda_t / c), read off lambda_t
        d2 = d * (1.0 - d) / spec.c  # sp''(eta_t)
        partials = d[:, None] * theta[1 + p :]
        S = _lag_adjoint(d[:, None] * B, partials, tangent=True)
        a = _lag_adjoint(r, partials)
        G = B.copy()
        for j, b in enumerate(self.beta, 1):
            G[j:] += b * S[:-j]
        C = (G.T * (a * d2)) @ G
        ad = a * d
        for j in range(1, q + 1):
            r_j = ad[j:] @ S[:-j]
            C[p + j] += r_j
            C[:, p + j] += r_j
        return S, C

    def draw_path(self, spec: ModelSpec, draw, mixing) -> list:
        """Counts drawn along the recursion from `chain_start(spec)`, the start
        of every pre-sample count and mean: for each g of `mixing`, the step's
        mean lambda_t by `mean_path`'s feedback arithmetic, then the count
        draw((lambda_t / n) * g).  Poisson parameters take n = 1 and every
        g = 1, so the argument is lambda_t exactly.  The first count and mean
        lags are scalars (beta_1 = 0.0 when q = 0, exact for finite means),
        further lags loops; a deque holds the means only when q >= 2.  A
        ValueError of `draw` becomes a NumericError carrying the 1-based step."""
        start = self.chain_start(spec)
        p, q, c = spec.p, spec.q, spec.c
        n = 1.0 if self.n is None else self.n
        a0, a1, b1 = self.alpha0, self.alpha[0], self.beta[0] if q else 0.0
        taps = tuple(zip(self.alpha[1:], range(-2, -p - 1, -1)))
        ltaps = tuple(zip(self.beta[1:], range(-2, -q - 1, -1)))
        lams = deque([start] * q, maxlen=q) if ltaps else None
        exp, log1p = math.exp, math.log1p
        xs = [start] * p  # pre-sample counts, then the draws
        x1 = lam = start
        try:
            for g in mixing:
                e = a0 + a1 * x1
                for a, i in taps:
                    e += a * xs[i]
                e += b1 * lam
                for b, j in ltaps:
                    e += b * lams[j]
                lam = e + c * log1p(exp(-e / c)) if e > 0.0 else c * log1p(exp(e / c))
                if ltaps:
                    lams.append(lam)
                x1 = draw((lam / n) * g)
                xs.append(x1)
        except ValueError as exc:
            raise _draw_error(lam, len(xs) - p + 1) from exc
        del xs[:p]
        return xs

    def chain_start(self, spec: ModelSpec) -> float:
        """Start of a simulated chain: the softplus of the approximate stationary
        linear mean when the first-order condition holds, else of the intercept."""
        self.check(spec)
        cbar = sum(max(0.0, a) for a in self.alpha) + sum(max(0.0, b) for b in self.beta)
        level = self.alpha0 / (1.0 - cbar) if cbar < 1.0 else self.alpha0
        return float(softplus(level, spec.c))


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

    def k(self) -> int:
        """Number of free parameters, n included when present."""
        return self.u0.size + self.u1.size + (self.n is not None)

    def to_flat(self, log_n: bool = True) -> np.ndarray:
        """Flatten to [u0 row-major, u1, (ln) n]; the optimizer works on ln n."""
        flat = np.concatenate([self.u0.ravel(), self.u1])
        if self.n is not None:
            flat = np.append(flat, math.log(self.n) if log_n else self.n)
        return flat

    @classmethod
    def from_flat(cls, flat, spec: ModelSpec, log_n: bool = True) -> "NeuralWeights":
        """Inverse of `to_flat` for the network shape and family of `spec`."""
        K, L, nb = spec.input_width, spec.hidden, spec.family == NEGBIN
        flat = np.asarray(flat, dtype=float)
        if flat.size != K * L + L + nb:
            raise ParameterError(f"flat weight vector must have {K * L + L + nb} entries, got {flat.size}")
        n = (math.exp(float(flat[-1])) if log_n else float(flat[-1])) if nb else None
        return cls(u0=flat[: K * L].reshape(K, L), u1=flat[K * L : K * L + L], n=n)

    def check(self, spec: ModelSpec):
        """Raise ParameterError unless `spec` is neural of this shape, negbin iff n is set."""
        if spec.link != NEURAL:
            raise ParameterError("neural weights require the neural link")
        if self.input_width != spec.input_width or self.hidden != spec.hidden:
            raise ParameterError("weight shapes do not match the model spec")
        _check_dispersion(spec, self.n)

    def mean_path(self, spec: ModelSpec, x: np.ndarray, presample: Optional[float]) -> np.ndarray:
        """The recursion behind `conditional_mean_path` on the coerced series x,
        its output unchecked: vectorised when q = 0, else `_run` with the
        observed counts as the draws; `presample=None` means the floored
        sample mean of x."""
        self.check(spec)
        init = _pre_sample(x, presample)
        if spec.q == 0:
            return _softplus_or_nan(expit(_inputs(x, None, spec.p, 0, init) @ self.u0) @ self.u1, 1.0)
        observed = partial(next, iter(x.tolist()))
        lams = self._run([init] * spec.p, [init] * spec.q, observed, repeat(1.0, x.size), 1.0)
        return np.array(lams[spec.q :])

    def hessian_parts(self, spec: ModelSpec, x: np.ndarray, lam: np.ndarray, r: np.ndarray):
        """The pieces of the derivatives of sum_t l_t(lambda_t) in w = [u0
        row-major, u1] that the network owns, as `LinearParams.hessian_parts`:
        the total sensitivities S = d lambda / d w (s x k) and
        C = sum_t a_t d2 lambda_t / d w2 with the adjoints a of the
        lambda-lag feedback, so that the gradient is S^T r and the Hessian
        S^T diag(l'') S + C.

        The total tangents of the pre-activations, dA[t, l] = d a_tl / d w, take
        the lambda-lag columns through S; the second-order terms follow from
        f1' = f0, f1'' = f0 (1 - f0), h' = h (1 - h) and h'' = h' (1 - 2 h),
        vectorised over t."""
        p, q = spec.p, spec.q
        K, L = self.u0.shape
        B = _inputs(x, lam, p, q, _pre_sample(x))
        H = expit(B @ self.u0)
        g = expit(H @ self.u1)  # f1' = f0 at the output
        h1 = H * (1.0 - H)
        dz_da = h1 * self.u1
        dA = np.zeros((x.size, L, K * L + L))
        for l in range(L):
            dA[:, l, l : K * L : L] = B
        dz = np.einsum("tl,tlk->tk", dz_da, dA)  # d z_t / d w, then the total
        dz[:, K * L :] = H
        dz_dlam = dz_da @ self.u0[1 + p :].T
        partials = g[:, None] * dz_dlam
        S = _lag_adjoint(g[:, None] * dz, partials, tangent=True)
        a = _lag_adjoint(r, partials)
        for j in range(1, q + 1):
            dA[j:] += self.u0[p + j][None, :, None] * S[:-j, None, :]
            dz[j:] += dz_dlam[j:, j - 1 : j] * S[:-j]
        w = a * g
        C = (dz.T * (w * (1.0 - g))) @ dz
        h2w = h1 * (1.0 - 2.0 * H) * self.u1 * w[:, None]
        for l in range(L):
            C += (dA[:, l].T * h2w[:, l]) @ dA[:, l]
        cross = np.einsum("t,tl,tlk->lk", w, h1, dA)  # d2 z / d u1_l d w
        C[K * L :] += cross
        C[:, K * L :] += cross.T
        dz_da_w = dz_da * w[:, None]
        for j in range(1, q + 1):
            r_j = dz_da_w[j:].T @ S[:-j]  # d2 a_l / d u0[p+j, l] d lambda_{t-j}
            C[(p + j) * L : (p + j + 1) * L] += r_j
            C[:, (p + j) * L : (p + j + 1) * L] += r_j.T
        return S, C

    def draw_path(self, spec: ModelSpec, draw, mixing) -> list:
        """Counts drawn along the recursion from `chain_start(spec)` by one
        `_run` that holds q means, as `LinearParams.draw_path`: n = 1 and
        every g = 1 for Poisson weights."""
        start = self.chain_start(spec)
        xs = [start] * spec.p
        self._run(xs, deque([start] * spec.q, maxlen=spec.q), draw, mixing, 1.0 if self.n is None else self.n)
        del xs[: spec.p]
        return xs

    def chain_start(self, spec: ModelSpec) -> float:
        """Start of a simulated chain: the network output with every lag input zero."""
        self.check(spec)
        return self._run([0.0] * spec.p, [0.0] * spec.q, float, (1.0,), 1.0)[-1]

    def _run(self, xs: list, lams, draw, mixing, n: float):
        """The network recursion, the one scalar loop of the neural link; it
        returns lams.  xs and lams are the count and mean histories, newest
        last, of lengths p and q on entry.  For each g of `mixing` it appends
        the mean lambda_t of the row (1, xs[-1..-p], lams[-1..-q]) to lams and
        the count draw((lambda_t / n) * g) to xs.  Each unit adds bias, count
        lags and mean lags in that order, the first lags as scalars (weight
        0.0 when p or q is 0); the logistic and softplus split on the sign so
        that `math.exp` cannot overflow.  A ValueError of `draw` becomes a
        NumericError carrying the 1-based step."""
        p, q = len(xs), len(lams)
        units = tuple((col[0], col[1] if p else 0.0, tuple(zip(col[2 : p + 1], range(-2, -p - 1, -1))),
                       col[p + 1] if q else 0.0, tuple(zip(col[p + 2 :], range(-2, -q - 1, -1))), w)
                      for col, w in zip(self.u0.T.tolist(), self.u1.tolist()))
        exp, log1p = math.exp, math.log1p
        x1, lam = xs[-1] if p else 0.0, lams[-1] if q else 0.0
        try:
            for g in mixing:
                z = 0.0
                for a, ux, taps, ul, ltaps, w in units:
                    a += ux * x1
                    for u, i in taps:
                        a += u * xs[i]
                    a += ul * lam
                    for v, j in ltaps:
                        a += v * lams[j]
                    if a >= 0.0:
                        h = 1.0 / (1.0 + exp(-a))
                    else:
                        e = exp(a)
                        h = e / (1.0 + e)
                    z += w * h
                lam = z + log1p(exp(-z)) if z > 0.0 else log1p(exp(z))
                lams.append(lam)
                x1 = draw((lam / n) * g)
                xs.append(x1)
        except ValueError as exc:
            raise _draw_error(lam, len(xs) - p + 1) from exc
        return lams


def slfn_forward(weights: NeuralWeights, x) -> float:
    """Network response for one input vector; strictly positive."""
    x = np.asarray(x, dtype=float)
    if x.shape != (weights.input_width,):
        raise ParameterError(f"input must have {weights.input_width} entries, got {x.shape}")
    # one step of the recursion, the non-constant inputs reversed as a count history newest last
    return weights._run(x[:0:-1].tolist(), [], float, (1.0,), 1.0)[0]


@dataclass(frozen=True)
class StationarityReport:
    """Outcome of the first/second-order stationarity checks.

    The closed-form conditions are stated for the (1,1) model only; for other
    orders `applicable` is False and the flags are None.  The checks are
    advisory: estimation proceeds on flagged parameter sets.
    """

    applicable: bool
    first_order_ok: Optional[bool]
    second_order_ok: Optional[bool]
    c11_bar: Optional[float]
    second_order_value: Optional[float]


@dataclass(frozen=True)
class Moments:
    """Mean, variance/mean ratio and ACF at lags 1..max_lag of a path or of the linear approximation."""

    mean: float
    dispersion: float
    acf: np.ndarray


def presample_init(series) -> float:
    """Shared pre-sample value: the sample mean, floored away from zero."""
    return _pre_sample(as_counts(series))


def _pre_sample(x: np.ndarray, init: Optional[float] = None) -> float:
    """The value that stands in for counts and means before the first step:
    `init`, or by default the sample mean of x floored at MEAN_FLOOR."""
    return max(float(x.mean()), MEAN_FLOOR) if init is None else init


def _inputs(x: np.ndarray, lam: Optional[np.ndarray], p: int, q: int, init: float) -> np.ndarray:
    """Rows (1, x_{t-1..t-p}, lambda_{t-1..t-q}) for t = 1..s, with `init`
    standing in for counts and means before the first step, filled column by
    column into one array; lam is not read when q = 0."""
    s = x.size
    B = np.empty((s, 1 + p + q))
    B[:, 0] = 1.0
    for first, v, lags in ((1, x, p), (1 + p, lam, q)):
        for j in range(1, lags + 1):
            B[:j, first + j - 1] = init
            B[j:, first + j - 1] = v[: max(s - j, 0)]
    return B


def _lag_adjoint(r: np.ndarray, partials: np.ndarray, tangent: bool = False) -> np.ndarray:
    """Adjoints a_t = r_t + sum_j partials[t+j, j-1] a_{t+j} of lambda_1..lambda_s,
    where partials[t, j-1] is the direct d lambda_t / d lambda_{t-j}: the
    lambda-lag feedback of a reverse-mode pass.  The a_t solve the unit upper
    triangular system (I - C) a = r of bandwidth q, C[t, t+j] = partials[t+j, j-1].

    With `tangent` it solves the lower triangle (I - C)^T y = r instead,
    y_t = r_t + sum_j partials[t, j-1] y_{t-j}: the same feedback carried
    forward, as forward-mode tangents.  r may then have one column per
    direction (s x k).  With q = 0 it returns r itself, not a copy, which no
    caller writes to.

    Either way it is the recursion Y_t = A_t Y_{t-1} + R_t on the states
    Y_t = (y_t, .., y_{t-q+1}), with q x q companion matrices A_t and zero
    states before the first step, run forward in time for tangents and
    backward for adjoints.  Recursive doubling solves it in ceil(log2 s)
    vectorised passes: after the pass of span d, each (A_t, R_t) is the
    composite map from Y_{t-2d} to Y_t.  It only multiplies and adds, never
    divides by a product of partials, so a partial that underflows to 0
    (where sp' does) cuts the chain exactly, as substitution would."""
    s, q = partials.shape
    if not q:
        return r
    rows = r.reshape(s, -1)
    # Z[:, :q, t] is A_t and Z[:, q:, t] is R_t, time last so that each pass
    # works on contiguous rows
    Z = np.zeros((q, q + rows.shape[1], s))
    if tangent:
        Z[0, :q] = partials.T
        Z[0, q:] = rows.T
    else:  # in reversed time u = s-1-t, a_{t+j} is the lag-j state, with coefficient partials[t+j, j-1]
        for j in range(1, q + 1):
            Z[0, j - 1, j:] = partials[: j - 1 : -1, j - 1]
        Z[0, q:] = rows[::-1].T
    for i in range(1, q):
        Z[i, i - 1] = 1.0
    d = 1
    while d < s:
        A = Z[:, :q, d:]  # composite (A_t, R_t) <- (A_t A_{t-d}, A_t R_{t-d} + R_t)
        composed = A[:, 0, None] * Z[0, :, :-d]
        for m in range(1, q):
            composed += A[:, m, None] * Z[m, :, :-d]
        Z[:, q:, d:] += composed[:, q:]
        Z[:, :q, d:] = composed[:, :q]
        d *= 2
    y = Z[0, q:].T
    return (y if tangent else y[::-1]).reshape(r.shape)


def _softplus_or_nan(eta: np.ndarray, c: float) -> np.ndarray:
    """softplus(eta, c) with NaN where the predictor eta is not finite, so that
    `conditional_mean_path` reports the first such step as it does for q > 0.
    A finite eta costs no pass beyond softplus's own check."""
    try:
        return softplus(eta, c)
    except ParameterError:  # softplus refuses a non-finite eta; ModelSpec has checked c
        finite = np.isfinite(eta)
        return np.where(finite, softplus(np.where(finite, eta, 0.0), c), np.nan)


def _draw_error(lam: float, t: int) -> NumericError:
    """The error for step t, whose draw at mean lam raised numpy's ValueError:
    a NaN or infinite mean, or a finite one too large to draw at."""
    if not math.isfinite(lam):
        return NumericError(f"non-finite conditional mean at simulation step {t}", index=t)
    return NumericError(f"conditional mean overflow at simulation step {t}", index=t)


def _check_dispersion(spec: ModelSpec, n: Optional[float]):
    """The family half of `check`: negbin parameters carry n, Poisson ones none."""
    if (spec.family == NEGBIN) != (n is not None):
        raise ParameterError("negbin family requires dispersion n" if n is None
                             else "poisson family takes no dispersion n")


def _omega0(n: Optional[float]) -> float:
    """Variance inflation 1 + 1/n; Poisson (n None) is the explicit n->inf limit."""
    return 1.0 if n is None else 1.0 + 1.0 / n


def conditional_mean_path(spec: ModelSpec, params, series, presample=None) -> np.ndarray:
    """Conditional means lambda_1..lambda_s implied by params on the given series.

    Serves both links: `params` (LinearParams or NeuralWeights) runs its own
    recursion through its `mean_path` method.  One value stands in for the
    pre-sample observations and conditional means alike: `presample` when
    supplied, else the sample mean of the series floored at 1e-4, as in the
    fit.  Every returned entry is strictly positive by the softplus range.

    Raises
    ------
    NumericError
        If the recursion produces a non-finite value; the error carries the
        1-based index of the offending step.
    """
    x = as_counts(series)
    if presample is not None:
        presample = float(presample)
        if not (math.isfinite(presample) and presample > 0):
            raise ParameterError("presample must be finite and > 0")
    lam = params.mean_path(spec, x, presample)
    good = np.isfinite(lam) & (lam > 0.0)
    if not np.all(good):
        bad = int(np.flatnonzero(~good)[0]) + 1
        raise NumericError(f"conditional mean invalid at step {bad}", index=bad)
    return lam


def check_stationarity(params: LinearParams) -> StationarityReport:
    """Evaluate the first/second-order stationarity conditions for a (1,1) model.

    With positive parts a1+ = max(0, alpha1) and b1+ = max(0, beta1):
    first order requires a1+ + b1+ < 1 and |beta1| < 1; second order
    additionally (1 + 1/n) a1+^2 + 2 a1+ b1+ + b1+^2 < 1 (coefficient 1 on
    a1+^2 for Poisson parameters, which carry no n).  Orders other than (1,1)
    are reported as not applicable: no closed-form condition is available for
    them.
    """
    if params.p != 1 or params.q != 1:
        return StationarityReport(False, None, None, None, None)
    a1bar = max(0.0, params.alpha[0])
    b1bar = max(0.0, params.beta[0])
    omega0 = _omega0(params.n)
    c11 = a1bar + b1bar
    second_val = omega0 * a1bar**2 + 2.0 * a1bar * b1bar + b1bar**2
    first_ok = c11 < 1.0 and abs(params.beta[0]) < 1.0
    second_ok = bool(first_ok and second_val < 1.0)
    return StationarityReport(True, first_ok, second_ok, c11, second_val)


def linear_moments_11(params: LinearParams, max_lag: int = 3) -> Moments:
    """Closed-form mean, dispersion var/mu and ACF of the linear (1,1) approximation.

    mu    = alpha0 / (1 - alpha1 - beta1)
    var   = mu (1 + mu/n) (1 - 2 a b - b^2) / (1 - w0 a^2 - 2 a b - b^2)
    rho(h)= a (a + b)^(h-1) (1 - a b - b^2) / (1 - 2 a b - b^2)

    with a = alpha1, b = beta1, w0 = 1 + 1/n; Poisson parameters (no n) take
    the explicit limits w0 = 1 and 1 + mu/n = 1.
    """
    if params.p != 1 or params.q != 1:
        raise ParameterError("linear_moments_11 requires a (1,1) parameter set")
    if max_lag < 1:
        raise ParameterError("max_lag must be >= 1")
    a, b = params.alpha[0], params.beta[0]
    d_mean = 1.0 - a - b
    if d_mean <= 0.0:
        raise ParameterError("mean condition violated: 1 - alpha1 - beta1 must be > 0")
    mu = params.alpha0 / d_mean
    omega0 = _omega0(params.n)
    over = 1.0 if params.n is None else 1.0 + mu / params.n
    acf_den = 1.0 - 2.0 * a * b - b * b
    var_den = 1.0 - omega0 * a * a - 2.0 * a * b - b * b
    if abs(acf_den) < 1e-12:
        raise ParameterError("ACF denominator 1 - 2 alpha1 beta1 - beta1^2 vanishes")
    if abs(var_den) < 1e-12:
        raise ParameterError("variance denominator 1 - w0 alpha1^2 - 2 alpha1 beta1 - beta1^2 vanishes")
    variance = mu * over * acf_den / var_den
    if variance <= 0.0:
        raise ParameterError("variance formula non-positive: parameters outside the second-order region")
    rho1_fac = (1.0 - a * b - b * b) / acf_den
    h = np.arange(1, max_lag + 1)
    acf = a * (a + b) ** (h - 1.0) * rho1_fac
    return Moments(mean=mu, dispersion=variance / mu, acf=acf)


def linear_acvf_general(params: LinearParams, max_lag: Optional[int] = None) -> Tuple[np.ndarray, np.ndarray]:
    """Autocovariances of X and lambda for the linear (p,q) approximation.

    Solves the dense linear system formed by the stationary autocovariance
    recursions together with the variance link

        gamma_X(0) = w0 gamma_lambda(0) + mu (1 + mu/n),

    for gamma_X(0..H) and gamma_lambda(0..H).  For (1,1) parameter sets the
    implied ACF matches `linear_moments_11` to 1e-10.

    Returns
    -------
    (gamma_x, gamma_lambda) : pair of ndarrays of length H+1.
    """
    p, q = params.p, params.q
    if p + q < 1:
        raise ParameterError("need p + q >= 1")
    H = max_lag if max_lag is not None else max(10, 3 * (p + q))
    if H < max(p, q, 1):
        raise ParameterError(f"max_lag must be >= max(p, q) = {max(p, q)}")
    a = np.asarray(params.alpha)
    b = np.asarray(params.beta)
    d_mean = 1.0 - a.sum() - b.sum()
    if d_mean <= 0.0:
        raise ParameterError("mean condition violated: 1 - sum(alpha) - sum(beta) must be > 0")
    mu = params.alpha0 / d_mean
    omega0 = _omega0(params.n)
    v_cond = mu if params.n is None else mu * (1.0 + mu / params.n)

    m = 2 * (H + 1)
    gx = lambda h: h            # noqa: E731 - index helpers for readability
    gl = lambda h: H + 1 + h    # noqa: E731
    M = np.zeros((m, m))
    rhs = np.zeros(m)
    row = 0

    # variance link
    M[row, gx(0)] = 1.0
    M[row, gl(0)] = -omega0
    rhs[row] = v_cond
    row += 1

    # gamma_X recursion, h >= 1
    for h in range(1, H + 1):
        M[row, gx(h)] += 1.0
        for i in range(1, p + 1):
            M[row, gx(abs(h - i))] -= a[i - 1]
        for j in range(1, min(h - 1, q) + 1):
            M[row, gx(h - j)] -= b[j - 1]
        for j in range(h, q + 1):
            M[row, gl(j - h)] -= b[j - 1]
        row += 1

    # gamma_lambda recursion, h >= 0
    for h in range(0, H + 1):
        M[row, gl(h)] += 1.0
        for i in range(1, min(h, p) + 1):
            M[row, gl(abs(h - i))] -= a[i - 1]
        for i in range(h + 1, p + 1):
            M[row, gx(i - h)] -= a[i - 1]
        for j in range(1, q + 1):
            M[row, gl(abs(h - j))] -= b[j - 1]
        row += 1

    try:
        sol = np.linalg.solve(M, rhs)
    except np.linalg.LinAlgError as exc:
        raise ParameterError(
            "autocovariance system singular: parameters outside the second-order stationarity region"
        ) from exc
    gamma_x = sol[: H + 1]
    gamma_lam = sol[H + 1 :]
    if not np.all(np.isfinite(sol)) or gamma_x[0] <= 0.0:
        raise ParameterError(
            "autocovariance solution invalid: parameters outside the second-order stationarity region"
        )
    return gamma_x, gamma_lam
