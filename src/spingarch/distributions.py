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
second derivatives in lambda and n.  The dispersion enters the derivatives
only through the digamma and trigamma gaps of `_gamma_gaps`, the one place
where digamma and zeta are called.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import betaln, digamma, gammaln, zeta

from .data import CountTable
from .exceptions import ParameterError

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


def _as_generator(rng) -> np.random.Generator:
    if isinstance(rng, RngStream):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    raise ParameterError(f"rng must be an RngStream or numpy Generator, got {type(rng)!r}")


def _validate_count(x):
    arr = np.asarray(x)
    if not np.all(np.isfinite(np.asarray(arr, dtype=float))):
        raise ParameterError("counts must be finite")
    if np.any(arr < 0) or np.any(arr != np.floor(arr)):
        raise ParameterError("counts must be non-negative integers")
    return np.asarray(arr, dtype=float)


def _validate_positive(v, name):
    v = np.asarray(v, dtype=float)
    if not np.all(np.isfinite(v)) or np.any(v <= 0.0):
        raise ParameterError(f"{name} must be finite and > 0")
    return v


def loglik_terms(counts: CountTable, lam: np.ndarray, n=None) -> np.ndarray:
    """Per-observation log pmf at counts.x and means lam, without validation.

    n is the negative binomial dispersion; n=None gives the Poisson terms.
    The one expression behind both likelihoods and both public pmfs.  The
    terms that depend on a count only through its value -- the Poisson
    log x! and the NB coefficient log C(x+n-1, x) -- are evaluated once per
    level of the table and gathered.  The NB coefficient is -log x -
    betaln(n, x) (0 at x = 0), which stays accurate as n grows where
    gammaln(x+n) - gammaln(n) cancels; from n = 1e3 on, where betaln loses
    digits for x << n, it is the differenced asymptotic series of log Gamma.
    An array of n (`nb_log_pmf`) takes each entry by its own rule.
    """
    x, levels, index = counts.x, counts.levels, counts.index
    if n is None:
        return x * np.log(lam) - lam - gammaln(levels + 1.0)[index]
    log_coef = (np.vectorize(_log_nb_coef) if np.ndim(n) else _log_nb_coef)(levels, n)[index]
    return x * (np.log(lam) - np.log(n + lam)) - n * np.log1p(lam / n) + log_coef


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


def _log_nb_coef(v, n):
    """log C(v+n-1, v) = log Gamma(v+n) - log Gamma(n) - log v! for counts v >= 0, exactly 0 at v = 0."""
    if n < 1e3:
        v1 = np.maximum(v, 1.0)
        return np.where(v > 0, -np.log(v1) - betaln(n, v1), 0.0)
    u, m = v / n, n + v  # the Stirling series, differenced term by term
    return (n - 0.5) * np.log1p(u) + v * np.log(m) - v - u / (12.0 * m) - gammaln(v + 1.0)


def _gamma_gaps(v: np.ndarray, n: float):
    """The digamma and trigamma gaps psi(v + n) - psi(n) = sum_{i<v} 1/(n+i)
    and psi'(v + n) - psi'(n) = -sum_{i<v} 1/(n+i)^2 for counts v >= 0."""
    if n < 1e3:
        return digamma(v + n) - digamma(n), zeta(2.0, v + n) - zeta(2.0, n)
    # the asymptotic series of digamma and trigamma, differenced term by term, where the direct forms cancel
    u, m = v / n, n + v
    return (np.log1p(u) + u / (2.0 * m) + u * (2.0 + u) / (12.0 * m) / m,
            -(u + u * (2.0 + u) / (2.0 * m) + u * (3.0 + u * (3.0 + u)) / (6.0 * m) / m) / m)


def nb_log_pmf(x, n, lam):
    """Log pmf of NB with dispersion n and mean lambda at count x.

    log C(x+n-1, n-1) + n*log(p) + x*log(1-p) with p = n/(n+lambda), the
    binomial coefficient evaluated through log-gamma so real-valued n is
    supported.  Broadcasts over array inputs.
    """
    x, n, lam = _validate_count(x), _validate_positive(n, "n"), _validate_positive(lam, "lambda")
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
    rng : RngStream or numpy Generator
        Source of randomness; an RngStream is materialized once per call.
    n, lam : float
        Dispersion and mean, both > 0.
    size : int or tuple, optional
        Number of draws; None gives a single integer.
    """
    gen = _as_generator(rng)
    n = float(_validate_positive(n, "n"))
    lam = float(_validate_positive(lam, "lambda"))
    g = gen.gamma(shape=n, scale=1.0, size=size)
    mu = (lam / n) * g
    out = gen.poisson(mu)
    return out if size is not None else int(out)
