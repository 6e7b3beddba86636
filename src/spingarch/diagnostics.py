"""Residual analysis, correlograms, spectral checks, and forecast evaluation.

Pearson residuals Z_t = (x_t - lambda_t) / sqrt(v_t) use the conditional
variance v_t = lambda_t for Poisson fits, whose estimates carry no n, and
v_t = lambda_t (1 + lambda_t/n) for negative binomial fits; under a correctly
specified model they are approximately white with unit variance, which the
correlogram and cumulative periodogram make visible.

The sample ACF (divisor-N autocovariance) and the dispersion ratio (divisor
s-1) are defined in `data`; `sample_pacf` builds on the ACF.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from .data import as_counts, sample_acf
from .exceptions import DataError, ParameterError
from .model import conditional_mean_path, presample_init

__all__ = [
    "pearson_residuals",
    "sample_pacf",
    "pacf_from_acf",
    "cumulative_periodogram",
    "one_step_forecasts",
    "rmse",
]


def pearson_residuals(fit, series) -> np.ndarray:
    """Standardized one-step residuals Z_t of a fitted model on its series, as
    an array; the variance is Poisson when the estimates carry no n."""
    fit.estimates.check(fit.spec)
    x = as_counts(series)
    lam = np.asarray(fit.lambda_path, dtype=float)
    if lam.size != x.size:
        raise DataError("fit.lambda_path and series lengths differ")
    n = fit.estimates.n
    z = (x - lam) / np.sqrt(lam if n is None else lam * (1.0 + lam / n))
    if not np.all(np.isfinite(z)):
        raise DataError("non-finite residuals")
    return z


def pacf_from_acf(rho) -> np.ndarray:
    """Partial autocorrelations from an ACF sequence via Durbin-Levinson."""
    rho = np.asarray(rho, dtype=float)
    H = rho.size
    if H < 1:
        raise ParameterError("need at least one autocorrelation")
    pacf = np.empty(H)
    phi_prev = np.array([rho[0]])
    pacf[0] = rho[0]
    for k in range(2, H + 1):
        num = rho[k - 1] - float(phi_prev @ rho[k - 2 :: -1][: k - 1])
        den = 1.0 - float(phi_prev @ rho[: k - 1])
        if abs(den) < 1e-14:
            raise DataError("Durbin-Levinson recursion degenerate")
        phi_kk = num / den
        phi = np.empty(k)
        phi[: k - 1] = phi_prev - phi_kk * phi_prev[::-1]
        phi[k - 1] = phi_kk
        pacf[k - 1] = phi_kk
        phi_prev = phi
    return pacf


def sample_pacf(series, max_lag: int) -> np.ndarray:
    """Sample partial autocorrelations at lags 1..max_lag."""
    return pacf_from_acf(sample_acf(series, max_lag))


def cumulative_periodogram(residuals) -> Tuple[np.ndarray, np.ndarray, float]:
    """Cumulative periodogram with a 5% Kolmogorov-Smirnov band.

    Periodogram ordinates are taken at the Fourier frequencies j/s for
    j = 1..floor((s-1)/2) via the squared modulus of the DFT; the returned
    fractions are their normalized cumulative sums, and the band half-width
    is 1.36/sqrt(m) with m the number of ordinates.
    """
    v = np.asarray(residuals, dtype=float)
    s = v.size
    if s < 16:
        raise DataError("need at least 16 points for a cumulative periodogram")
    m = (s - 1) // 2
    dft = np.fft.rfft(v)
    ordinates = np.abs(dft[1 : m + 1]) ** 2
    total = float(ordinates.sum())
    if total <= 0.0:
        raise DataError("degenerate residuals: zero spectral mass")
    fractions = np.cumsum(ordinates) / total
    freqs = np.arange(1, m + 1) / s
    band = 1.36 / math.sqrt(m)
    return freqs, fractions, band


def one_step_forecasts(fit, history, horizon: int) -> np.ndarray:
    """Rolling one-step-ahead conditional means with observed-value feedback.

    `history` must contain the training series as its prefix; forecasts cover
    the `horizon` steps after it, each computed from the fitted response and
    the observations available up to the previous step (test observations are
    fed in as they arrive, parameters stay fixed at the fit).  Pre-sample
    counts and means come from the training prefix, as in the fit, so no
    test observation reaches the forecasts before its own step.
    """
    if horizon < 1:
        raise ParameterError("horizon must be >= 1")
    hist = as_counts(history)
    spec, params = fit.spec, fit.estimates
    train_len = len(fit.lambda_path)
    if hist.size < train_len:
        raise DataError("history must extend the training series")
    if train_len + horizon > hist.size + 1:
        raise DataError(
            f"insufficient history: horizon {horizon} needs observations up to "
            f"step {train_len + horizon - 1}, have {hist.size}"
        )
    init = presample_init(hist[:train_len])
    # lambda_t reads counts only up to t-1, so one stand-in count appended to
    # the history gives the conditional means up to one step beyond it
    path = conditional_mean_path(spec, params, np.append(hist, 0.0), presample=init)
    return path[train_len : train_len + horizon]


def rmse(forecasts, actuals) -> float:
    """Root mean squared error between forecasts and realized counts."""
    f = np.asarray(forecasts, dtype=float)
    a = as_counts(actuals)
    if f.size != a.size:
        raise DataError("forecasts and actuals must have equal length")
    if f.size == 0:
        raise DataError("need at least one forecast")
    return float(np.sqrt(np.mean((f - a) ** 2)))
