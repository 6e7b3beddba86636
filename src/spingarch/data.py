"""Count series container, its table of distinct counts, coercion helpers,
the sample ACF and the dispersion ratio."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any

import numpy as np

from .exceptions import DataError, ParameterError

__all__ = ["COUNT_LIMIT", "CountTable", "CountSeries", "as_counts", "sample_acf", "dispersion_ratio"]

# Every count lies below 2**53.  float64 holds each integer below it exactly,
# and rounds every integer from it on to a float at least 2**53, so one test on
# the float counts refuses every count float64 would corrupt, 2**53 + 1 too.
COUNT_LIMIT = 2.0**53


@dataclass(frozen=True)
class CountTable:
    """Float counts x and a table of their values, x == levels[index].

    A term that depends on a count only through its value is evaluated once
    per level and gathered with `index`.  Levels need not be distinct:
    `CountTable(x, x, ...)` makes every count its own level.
    """

    x: np.ndarray
    levels: np.ndarray
    index: Any


@dataclass
class CountSeries:
    """Ordered non-negative integer observations below `COUNT_LIMIT` (2**53),
    stored as int64 `values`."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values)
        if arr.ndim != 1 or arr.size == 0:
            raise DataError("a count series must be a non-empty 1-d sequence")
        farr = np.asarray(arr, dtype=float)
        if not np.all(np.isfinite(farr)):
            raise DataError("counts must be finite")
        if np.any(farr < 0) or np.any(farr != np.floor(farr)):
            raise DataError("counts must be non-negative integers")
        if np.any(farr >= COUNT_LIMIT):
            raise DataError("counts must be below 2**53, where float64 stops holding every integer")
        self.values = np.asarray(farr, dtype=np.int64)

    def __len__(self):
        return len(self.values)

    @cached_property
    def table(self) -> CountTable:
        """The float counts with their distinct values, built on first use so
        that a series evaluated many times sorts its counts once; the counts
        must not change after that."""
        levels, index = np.unique(self.values, return_inverse=True)
        return CountTable(np.asarray(self.values, dtype=float), levels.astype(float), index)


def as_counts(series) -> np.ndarray:
    """Coerce a CountSeries or array-like of counts to a float64 array.

    An array-like is validated on every call; a CountSeries was validated when
    it was built, so callers that evaluate one series many times wrap it once.
    """
    if isinstance(series, CountSeries):
        return np.asarray(series.values, dtype=float)
    return np.asarray(CountSeries(np.asarray(series)).values, dtype=float)


def sample_acf(series, max_lag: int) -> np.ndarray:
    """Sample autocorrelations at lags 1..max_lag (divisor-N autocovariance)."""
    y = np.asarray(series, dtype=float)
    if max_lag < 1 or y.size <= max_lag:
        raise ParameterError("need series length > max_lag >= 1")
    d = y - y.mean()
    # deviations within the rounding that the mean can carry are no variance
    if max(d.max(), -d.min()) <= y.size * np.finfo(float).eps * max(y.max(), -y.min()):
        raise DataError("degenerate series: zero variance")
    denom = float(d @ d)
    return np.array([float(d[: y.size - h] @ d[h:]) / denom for h in range(1, max_lag + 1)])


def dispersion_ratio(series) -> float:
    """Sample variance over sample mean (divisor s-1), from two counts on
    and for a positive mean."""
    x = as_counts(series)
    if x.size < 2:
        raise DataError("dispersion ratio undefined for fewer than two counts")
    mean = float(x.mean())
    if mean == 0.0:
        raise DataError("dispersion ratio undefined for a zero-mean series")
    return float(x.var(ddof=1)) / mean
