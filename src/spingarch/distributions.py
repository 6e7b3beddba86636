"""Conditional distributions for count models: Poisson and negative binomial.

The negative binomial NB(n, p) is parameterized here by its dispersion n > 0
(real-valued, fixed over time) and conditional mean lambda > 0, with implied
success probability p = n/(n + lambda).  Its conditional variance is
lambda*(1 + lambda/n) > lambda, which is what makes the family suitable for
overdispersed counts; as n -> infinity it converges to Poisson(lambda).

Sampling uses the gamma-Poisson mixture construction: X | mu ~ Poisson(mu)
with mu = (lambda/n) * Gamma(shape=n, scale=1) is NB(n, n/(n+lambda)).  This
keeps real-valued n on a single code path.

The conditional likelihoods of both families come from one pair of functions:
`loglik_terms` for the log pmf and `loglik_derivatives` for its first and
second derivatives in lambda and n.  The dispersion enters the terms through
the log binomial coefficient of `_log_nb_coef` and the derivatives through
the digamma and trigamma gaps of `_gamma_gaps`.  The coefficient, and the
gaps below n = 1e3, are sums over the first `_SHIFT` counts carried on by
differenced asymptotic series of log Gamma, digamma and trigamma (Abramowitz
& Stegun 6.1.40, 6.3.18, 6.4.12); from n = 1e3 the gaps are a series in v/n
alone.  So their cost does not grow with the count, and no step subtracts
two large values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import CountSeries, CountTable
from .exceptions import DataError, ParameterError

__all__ = [
    "RngStream",
    "loglik_terms",
    "loglik_derivatives",
    "nb_log_pmf",
    "poisson_log_pmf",
    "nb_sample",
]


@dataclass(frozen=True)
class RngStream:
    """Deterministic, splittable random stream handle.

    Identical (seed, stream) pairs always reproduce the same draw sequence;
    distinct stream ids give statistically independent streams.  The PCG64
    generator behind it has period 2**128.
    """

    seed: int
    stream: int = 0

    def __post_init__(self):
        if self.seed < 0 or self.stream < 0:
            raise ParameterError(f"seed and stream must be >= 0, got ({self.seed}, {self.stream})")

    def generator(self) -> np.random.Generator:
        """Materialize the numpy Generator for this (seed, stream) pair."""
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream,))
        return np.random.Generator(np.random.PCG64(ss))


def _validate_count(x):
    """x as float counts of its own shape, held to the `CountSeries` count rule."""
    arr = np.asarray(x, dtype=float)
    if arr.size:
        try:
            CountSeries(arr.ravel())
        except DataError as exc:
            raise ParameterError(str(exc)) from None
    return arr


def _validate_positive(v, name):
    v = np.asarray(v, dtype=float)
    if not np.all(np.isfinite(v)) or np.any(v <= 0.0):
        raise ParameterError(f"{name} must be finite and > 0")
    return v


def loglik_terms(counts: CountTable, lam: np.ndarray, n=None) -> np.ndarray:
    """Per-observation log pmf at counts.x and means lam, without validation.

    n is the scalar negative binomial dispersion; n=None gives the Poisson terms.
    The one expression behind both likelihoods and both public pmfs.  The
    terms that depend on a count only through its value -- the Poisson
    log x! and the NB coefficient log C(x+n-1, x) -- are evaluated once per
    level of the table and gathered.
    """
    x, levels, index = counts.x, counts.levels, counts.index
    if n is None:
        return x * np.log(lam) - lam - _log_factorial(levels)[index]
    return x * (np.log(lam) - np.log(n + lam)) - n * np.log1p(lam / n) + _log_nb_coef(levels, n)[index]


def loglik_derivatives(counts: CountTable, lam: np.ndarray, n=None):
    """First and second derivatives of `loglik_terms`: per observation
    d/d lam, d2/d lam2 and d2/d lam d n, and summed over observations d/d n
    and d2/d n2.  The three n terms are None for the Poisson family (n=None);
    n enters them only through the gaps of `_gamma_gaps`, one per level."""
    x = counts.x
    # x / lam**2, exactly 0 at x = 0 even where lam**2 underflows (lam below ~1e-154)
    count_term = np.divide(x, lam * lam, out=np.zeros_like(lam), where=x > 0)
    if n is None:
        return x / lam - 1.0, -count_term, None, None, None
    m = n + lam  # divided by twice, not squared, so that n up to 1e300 cannot overflow
    digamma_gap, trigamma_gap = _gamma_gaps(counts.levels, n)
    d_n = digamma_gap[counts.index] - np.log1p(lam / n) + (lam - x) / m
    d_nn = trigamma_gap[counts.index] + lam / n / m - (lam - x) / m / m
    return (x / lam - (n + x) / m, (n + x) / m / m - count_term, (x - lam) / m / m,
            float(np.sum(d_n)), float(np.sum(d_nn)))


def _log_factorial(v: np.ndarray) -> np.ndarray:
    """log v! for each count of v, one `math.lgamma` call per entry."""
    return np.array([math.lgamma(c + 1.0) for c in np.ravel(v).tolist()]).reshape(np.shape(v))


# Counts up to _SHIFT are summed term by term.  Past it, asymptotic series
# carry the sums on, each truncated where its next term is below 1e-19 at
# z = _SHIFT; coefficients run from the highest power of 1/z**2 down.
_SHIFT = 64
_TERMS = np.arange(_SHIFT, dtype=float)  # i = 0 .. _SHIFT - 1
_LOG_GAMMA_SERIES = (-1 / 1680, 1 / 1260, -1 / 360, 1 / 12)  # log Gamma(z) less Stirling's formula, times z
_DIGAMMA_SERIES = (-1 / 240, 1 / 252, -1 / 120, 1 / 12)  # ln z - 1/(2z) - psi(z), times z**2
_TRIGAMMA_SERIES = (-1 / 30, 1 / 42, -1 / 30, 1 / 6)  # psi'(z) - 1/z - 1/(2z**2), times z**3


def _series(z, coefficients, power: int):
    """z**-power times the polynomial in 1/z**2 with the given coefficients;
    1/z is formed first, so that z up to 1e300 cannot overflow."""
    r = 1.0 / z
    r2 = r * r
    acc = coefficients[0]
    for coefficient in coefficients[1:]:
        acc = acc * r2 + coefficient
    for _ in range(power):
        acc = acc * r
    return acc


def _head(terms: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The sums of the first min(v, _SHIFT) terms."""
    return np.concatenate(([0.0], np.cumsum(terms)))[np.minimum(v, _SHIFT).astype(np.intp)]


def _log_nb_coef(v, n):
    """log C(v+n-1, v) = log Gamma(v+n) - log Gamma(n) - log v! for counts v >= 0, exactly 0 at v = 0.

    Up to _SHIFT it is the sum of log((n-1+i)/i) over 1 <= i <= v.  Past it,
    the increment from _SHIFT to w is [log Gamma(n+w) - log Gamma(n+_SHIFT)] -
    [log Gamma(w+1) - log Gamma(_SHIFT+1)]: two differenced Stirling series
    whose arguments differ by h = n - 1, combined so that every term carries
    its factor h or d = w - _SHIFT and none cancels, for n near 1 or near 1e300.
    """
    terms = np.empty(_SHIFT)
    terms[0] = math.log(n)  # log1p(n - 1) would lose an n below 1e-16 to the rounding of n - 1
    terms[1:] = np.log1p((n - 1.0) / (_TERMS[1:] + 1.0))
    out = _head(terms, v)
    if np.all(v <= _SHIFT):
        return out
    w = np.maximum(v, _SHIFT)
    h, d, a1, b1, a2, b2 = n - 1.0, w - _SHIFT, n + _SHIFT, n + w, _SHIFT + 1.0, w + 1.0
    return out + (h * np.log1p(d / a1) + (_SHIFT + 0.5) * np.log1p(-(h / a1) * (d / b2)) + d * np.log1p(h / b2)
                  + (_series(b1, _LOG_GAMMA_SERIES, 1) - _series(a1, _LOG_GAMMA_SERIES, 1))
                  - (_series(b2, _LOG_GAMMA_SERIES, 1) - _series(a2, _LOG_GAMMA_SERIES, 1)))


def _gamma_gaps(v: np.ndarray, n: float):
    """The digamma and trigamma gaps psi(v + n) - psi(n) = sum_{i<v} 1/(n+i)
    and psi'(v + n) - psi'(n) = -sum_{i<v} 1/(n+i)^2 for counts v >= 0.

    Below n = 1e3 they are those sums up to _SHIFT; past it, psi(b) - psi(a)
    and psi'(b) - psi'(a) from a = n + _SHIFT to b = n + w are the asymptotic
    series differenced term by term.  From n = 1e3 on, where the series in
    1/n needs three terms, they are that series differenced in u = v/n at
    every count, which skips the sums."""
    if n >= 1e3:
        u, m = v / n, n + v
        return (np.log1p(u) + u / (2.0 * m) + u * (2.0 + u) / (12.0 * m) / m,
                -(u + u * (2.0 + u) / (2.0 * m) + u * (3.0 + u * (3.0 + u)) / (6.0 * m) / m) / m)
    inv = 1.0 / (n + _TERMS)
    digamma_gap, trigamma_gap = _head(inv, v), -_head(inv * inv, v)
    if np.all(v <= _SHIFT):
        return digamma_gap, trigamma_gap
    w = np.maximum(v, _SHIFT)
    d, a, b = w - _SHIFT, n + _SHIFT, n + w
    step = d / a / b
    return (digamma_gap + np.log1p(d / a) + 0.5 * step + _series(a, _DIGAMMA_SERIES, 2) - _series(b, _DIGAMMA_SERIES, 2),
            trigamma_gap - step * (1.0 + 0.5 * (a + b) / a / b)
            + _series(b, _TRIGAMMA_SERIES, 3) - _series(a, _TRIGAMMA_SERIES, 3))


def nb_log_pmf(x, n, lam):
    """Log pmf of NB with dispersion n and mean lambda at count x.

    log C(x+n-1, n-1) + n*log(p) + x*log(1-p) with p = n/(n+lambda), the
    binomial coefficient evaluated through log-gamma so real-valued n is
    supported.  n is one scalar; x and lambda broadcast.
    """
    if np.ndim(n):
        raise ParameterError("n must be a scalar")
    x, n, lam = _validate_count(x), float(_validate_positive(n, "n")), _validate_positive(lam, "lambda")
    out = loglik_terms(CountTable(x, x, ...), lam, n)
    return out if out.ndim else float(out)


def poisson_log_pmf(x, lam):
    """Log pmf of Poisson(lambda) at count x: x*log(lambda) - lambda - log(x!)."""
    x = _validate_count(x)
    out = loglik_terms(CountTable(x, x, ...), _validate_positive(lam, "lambda"))
    return out if out.ndim else float(out)


def nb_sample(rng, n, lam, size=None):
    """Draw from NB(n, n/(n+lambda)) via the gamma-Poisson mixture.

    Parameters
    ----------
    rng : RngStream
        Source of randomness, materialized once per call; anything else
        raises ParameterError.
    n, lam : float
        Dispersion and mean, both > 0.
    size : int or tuple, optional
        Number of draws; None gives a single integer.
    """
    if not isinstance(rng, RngStream):
        raise ParameterError(f"rng must be an RngStream, got {type(rng)!r}")
    gen = rng.generator()
    n = float(_validate_positive(n, "n"))
    lam = float(_validate_positive(lam, "lambda"))
    g = gen.gamma(shape=n, scale=1.0, size=size)
    mu = (lam / n) * g
    out = gen.poisson(mu)
    return out if size is not None else int(out)
