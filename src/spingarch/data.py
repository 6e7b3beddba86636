"""Count series container, its table of distinct counts, coercion helpers,
the sample ACF and the dispersion ratio."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Optional, Sequence

import numpy as np

from .exceptions import DataError, ParameterError

__all__ = ["CountTable", "CountSeries", "as_counts", "sample_acf", "dispersion_ratio"]


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
    """Ordered non-negative integer observations with optional timestamps."""

    values: np.ndarray
    timestamps: Optional[Sequence[str]] = field(default=None)

    def __post_init__(self):
        arr = np.asarray(self.values)
        if arr.ndim != 1 or arr.size == 0:
            raise DataError("a count series must be a non-empty 1-d sequence")
        farr = np.asarray(arr, dtype=float)
        if not np.all(np.isfinite(farr)):
            raise DataError("counts must be finite")
        if np.any(farr < 0) or np.any(farr != np.floor(farr)):
            raise DataError("counts must be non-negative integers")
        self.values = np.asarray(farr, dtype=np.int64)
        if self.timestamps is not None and len(self.timestamps) != len(self.values):
            raise DataError("timestamps must align with counts")

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
    denom = float(d @ d)
    if denom <= 0.0:
        raise DataError("degenerate series: zero variance")
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
