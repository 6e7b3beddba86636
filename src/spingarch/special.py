"""Numerically stable scalar primitives: the softplus family, logistic and ReLU.

The softplus link sp(x) = c*ln(1 + exp(x/c)) is the workhorse of every model in
this package: it maps an unconstrained linear (or neural) predictor to a strictly
positive conditional mean while staying within ln(2)*c of ReLU.  All functions
accept scalars or arrays and broadcast in the usual numpy way.
"""

from __future__ import annotations

import numpy as np

from .exceptions import ParameterError

__all__ = [
    "softplus",
    "softplus_deriv",
    "softplus_inverse",
    "expit",
    "logistic",
    "relu",
]


def _validate_c(c) -> float:
    c = float(c)
    if not np.isfinite(c) or c <= 0.0:
        raise ParameterError(f"softplus smoothness c must be a finite positive real, got {c!r}")
    return c


def _validate_finite(x, name="x"):
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ParameterError(f"{name} must be finite")
    return x


def softplus(x, c: float = 1.0):
    """Evaluate sp(x) = c*ln(1 + exp(x/c)).

    Uses the overflow-safe form max(x, 0) + c*log1p(exp(-|x|/c)), valid for
    arbitrarily large |x/c|; the base term is exactly ReLU(x) and the
    correction is non-negative, so max(0, x) <= sp(x) <= c*ln(2) + max(0, x)
    holds in floating point as well as exactly (strictly on the left until
    the correction falls below one ulp).

    Parameters
    ----------
    x : array_like
        Finite real input(s).
    c : float
        Smoothness parameter, c > 0.  Smaller c pulls sp toward ReLU.

    Returns
    -------
    float or ndarray
        Strictly positive value(s), same shape as `x`.
    """
    c = _validate_c(c)
    x = _validate_finite(x)
    out = np.maximum(x, 0.0) + c * np.log1p(np.exp(-np.abs(x) / c))
    return out if out.ndim else float(out)


def softplus_deriv(x, c: float = 1.0):
    """Derivative of `softplus` with respect to x: 1/(1 + exp(-x/c)), in (0, 1)."""
    c = _validate_c(c)
    x = _validate_finite(x)
    out = expit(x / c)
    return out if out.ndim else float(out)


def expit(x) -> np.ndarray:
    """The logistic function 1/(1 + exp(-x)) of an array, without validation:
    with e = exp(-|x|) it is 1/(1 + e) for x >= 0 and e/(1 + e) otherwise, so
    exp never overflows, and a tail that underflows comes out as 0 or 1."""
    x = np.asarray(x, dtype=float)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0, e) / (1.0 + e)


def logistic(x):
    """Logistic (sigmoid) function 1/(1 + exp(-x)); equals softplus_deriv with c=1."""
    x = _validate_finite(x)
    out = expit(x)
    return out if out.ndim else float(out)


def relu(x):
    """Rectified linear unit max(0, x)."""
    x = _validate_finite(x)
    out = np.maximum(x, 0.0)
    return out if out.ndim else float(out)


def softplus_inverse(y, c: float = 1.0):
    """Inverse of `softplus`: the x with sp(x) = y, for y > 0.

    Computed as c*ln(expm1(y/c)) below y/c = 30 and as y + c*log1p(-exp(-y/c))
    from there on, each form only on its own entries, so neither overflows
    nor takes the log of 0.
    """
    c = _validate_c(c)
    y = np.asarray(y, dtype=float)
    if not np.all(np.isfinite(y)) or np.any(y <= 0.0):
        raise ParameterError("softplus_inverse requires finite y > 0")
    z = y / c
    small, large = z < 30.0, z >= 30.0
    out = np.empty_like(z)
    out[small] = np.log(np.expm1(z[small]))
    out[large] = z[large] + np.log1p(-np.exp(-z[large]))
    out = c * out
    return out if out.ndim else float(out)
