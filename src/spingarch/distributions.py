"""Conditional distributions for count models: Poisson and negative binomial.

The negative binomial NB(n, p) is parameterized here by its dispersion n > 0
(real-valued, fixed over time) and conditional mean lambda > 0, with implied
success probability p = n/(n + lambda).  Its conditional variance is
lambda*(1 + lambda/n) > lambda, which is what makes the family suitable for
overdispersed counts; as n -> infinity it converges to Poisson(lambda).

Sampling uses the gamma-Poisson mixture construction: X | mu ~ Poisson(mu)
with mu = (lambda/n) * Gamma(shape=n, scale=1) is NB(n, n/(n+lambda)).  This
keeps real-valued n on a single code path.
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
    "loglik_scores",
    "loglik_curvatures",
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
    gammaln(x+n) - gammaln(n) cancels.
    """
    x, levels, index = counts.x, counts.levels, counts.index
    if n is None:
        return x * np.log(lam) - lam - gammaln(levels + 1.0)[index]
    v = np.maximum(levels, 1.0)
    log_coef = np.where(levels > 0, -np.log(v) - betaln(n, v), 0.0)[index]
    return x * (np.log(lam) - np.log(n + lam)) - n * np.log1p(lam / n) + log_coef


def loglik_scores(counts: CountTable, lam: np.ndarray, n=None):
    """Derivatives of `loglik_terms`: the per-observation d/d lam, and the sum
    over observations of d/d n (None for the Poisson family, n=None).  The
    digamma gap psi(x + n) - psi(n) is evaluated once per level."""
    x, v = counts.x, counts.levels
    if n is None:
        return x / lam - 1.0, None
    d_lam = x / lam - (n + x) / (n + lam)
    if n < 1e3:
        gap = digamma(v + n) - digamma(n)
    else:  # the asymptotic series of digamma, differenced term by term, where the direct form cancels
        u, m = v / n, n + v
        gap = np.log1p(u) + u / (2.0 * m) + u * (2.0 + u) / (12.0 * m) / m
    d_n = gap[counts.index] - np.log1p(lam / n) + (lam - x) / (n + lam)
    return d_lam, float(np.sum(d_n))


def loglik_curvatures(counts: CountTable, lam: np.ndarray, n=None):
    """Second derivatives of `loglik_terms`: the per-observation d2/d lam2
    and, for the negative binomial family, the per-observation d2/d lam d n
    and the sum over observations of d2/d n2 (both None for Poisson, n=None).
    The trigamma gap psi'(x + n) - psi'(n) is evaluated once per level."""
    x = counts.x
    # x / lam**2, exactly 0 at x = 0 even where lam**2 underflows (lam below ~1e-154)
    count_term = np.divide(x, lam * lam, out=np.zeros_like(lam), where=x > 0)
    if n is None:
        return -count_term, None, None
    m = n + lam  # divided by twice, not squared, so that n up to 1e300 cannot overflow
    d_lam2 = (n + x) / m / m - count_term
    d_lam_n = (x - lam) / m / m
    d_nn = _trigamma_gap(counts.levels, n)[counts.index] + lam / n / m - (lam - x) / m / m
    return d_lam2, d_lam_n, float(np.sum(d_nn))


def _trigamma_gap(v: np.ndarray, n: float) -> np.ndarray:
    """psi'(v + n) - psi'(n) = -sum_{i<v} 1/(n+i)^2 for counts v >= 0."""
    if n < 1e3:
        return zeta(2.0, v + n) - zeta(2.0, n)
    # the asymptotic series of trigamma, differenced term by term, where the direct form cancels
    u, m = v / n, n + v
    return -(u + u * (2.0 + u) / (2.0 * m) + u * (3.0 + u * (3.0 + u)) / (6.0 * m) / m) / m


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
