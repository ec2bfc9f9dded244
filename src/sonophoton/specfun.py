"""Numerically robust special functions for the radial mode problem.

Spherical Bessel functions j_l of integer order as a table over
l = 0..lmax and an array of arguments, and an overflow-safe log(sinh).

Evaluation strategy for j_l: upward recurrence where it is stable
(x >= l), otherwise Miller's downward recurrence from a padded start
order, run on the ratios j_l / j_{l-1} (its continued-fraction form)
and normalized against the closed forms of j_0 / j_1 (whichever is
farther from a zero).
"""

from __future__ import annotations

import math

import numpy as np

from .core import DomainError

_LN2 = math.log(2.0)


def log_sinh(x: float) -> float:
    """ln(sinh x) for x >= 0 without overflow (good up to x ~ 1e6 and beyond).

    Uses x + log1p(-exp(-2x)) - ln 2 for large x and the series
    sinh x = x (1 + x^2/6 + x^4/120 + ...) for small x.
    """
    if x < 0.0 or not math.isfinite(x):
        raise DomainError(f"log_sinh requires x >= 0, got {x!r}")
    if x == 0.0:
        return -math.inf
    if x < 1e-4:
        x2 = x * x
        return math.log(x) + math.log1p(x2 / 6.0 * (1.0 + x2 / 20.0))
    if x < 20.0:
        return math.log(math.sinh(x))
    return x + math.log1p(-math.exp(-2.0 * x)) - _LN2


def _miller_start(lmax: int) -> int:
    # Start order for downward recurrence; validated against the
    # arbitrary-precision oracle over l <= 463, x <= 470 (the range the
    # benchmark table reaches), deep-evanescent arguments included, and
    # at lmax 10 over x in [1e-7, 10) (README numerical notes).
    return lmax + math.ceil(math.sqrt(40.0 * lmax))


def sph_jn_table(lmax: int, x: np.ndarray) -> np.ndarray:
    """Table of j_l(x) for l = 0..lmax over an array of points x >= 0.

    Returns an array of shape (lmax + 1, len(x)).  Vectorized over x;
    each column uses the recurrence direction that is stable for it.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise DomainError("x must be one-dimensional")
    if np.any(~np.isfinite(x)) or np.any(x < 0.0):
        raise DomainError("x must be finite and >= 0")
    with np.errstate(divide="ignore", invalid="ignore"):
        sinx = np.sin(x)
        j0 = np.where(x > 0.0, sinx / x, 1.0)
        # cancels below x ~ 1, inf or NaN where x^2 underflows: x >= 1 only
        j1 = sinx / x**2 - np.cos(x) / x
    up = x >= lmax  # upward stable: every order l <= lmax sits below x
    if up.all():
        return _upward(lmax, x, j0, j1)
    if not up.any():
        return _downward(lmax, x, j0, j1)
    out = np.empty((lmax + 1, x.size))
    for cols, branch in ((up, _upward), (~up, _downward)):
        out[:, cols] = branch(lmax, x[cols], j0[cols], j1[cols])
    return out


def _upward(lmax: int, x: np.ndarray, j0: np.ndarray,
            j1: np.ndarray) -> np.ndarray:
    tab = np.empty((lmax + 1, x.size))
    tab[0] = j0
    if lmax:
        tab[1] = j1
    for l in range(1, lmax):
        tab[l + 1] = (2 * l + 1) / x * tab[l] - tab[l - 1]
    return tab


def _downward(lmax: int, x: np.ndarray, j0: np.ndarray,
              j1: np.ndarray) -> np.ndarray:
    # Miller's recurrence on the ratios r_l = j_l / j_{l-1}, which cannot
    # overflow: r_l = 1 / ((2l+1)/x - r_{l+1}) from r = 0 above the start
    # order (Miller's p_{N+1} = 0), then j_l = j_{l-1} r_l.  At x = 0,
    # 1/x = inf makes every r_l = 0.  Where l < x the denominator is
    # j_{l-1}/j_l and nears 0 at zeros of j_{l-1}; the rounding error of
    # the large r_l then cancels in the product r_l r_{l-1}.
    lstart = _miller_start(lmax)
    tab = np.empty((lmax + 1, x.size))
    t = np.empty(x.size)
    # r_l in rows[l]: the table's own rows up to lmax, one buffer above
    rows = list(tab) + [np.zeros(x.size)] * (lstart + 1 - lmax)
    with np.errstate(divide="ignore", over="ignore"):
        inv = 1.0 / x
        for l in range(lstart, 0, -1):
            # positional out: keyword arguments cost more than the step
            np.multiply(inv, 2 * l + 1, t)
            np.subtract(t, rows[l + 1], t)
            np.divide(1.0, t, rows[l])
    # normalize against j_1 where it is farther from a zero than j_0
    # (x < lmax here, so lmax >= 1)
    tab[0] = j0
    tab[1] = np.where((x >= 1.0) & (np.abs(j0) < np.abs(j1)), j1, j0 * tab[1])
    for l in range(2, lmax + 1):
        np.multiply(rows[l], rows[l - 1], rows[l])
    return tab
