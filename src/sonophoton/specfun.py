"""Numerically robust special functions for the radial mode problem.

Spherical Bessel functions j_l of integer order as a table over
l = 0..lmax and an array of arguments, and an overflow-safe log(sinh).

Evaluation strategy for j_l: upward recurrence where it is stable
(x >= l), otherwise Miller-style downward recurrence from a padded
start order, normalized against the closed forms of j_0 / j_1
(whichever is farther from a zero).
"""

from __future__ import annotations

import math

import numpy as np

from .core import DomainError

_LN2 = math.log(2.0)
# Rescale threshold and factor for the downward recurrence trial solution:
# exact powers of two, so a rescale never rounds.  Values below _BIG may
# grow by 2**_HEADROOM_BITS before they overflow.
_BIG = 2.0**830
_SMALL = 2.0**-830
_HEADROOM_BITS = 193


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
    # Padded start order for downward recurrence; validated against the
    # arbitrary-precision oracle over l <= 463, x <= 470 (the range the
    # benchmark table reaches), deep-evanescent arguments included.
    return lmax + math.ceil(1.5 * math.sqrt(40.0 * lmax)) + 20


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
    n = x.size
    out = np.zeros((lmax + 1, n))

    tiny = x < 1e-8
    if tiny.any():
        # leading series term x^l / (2l+1)!!: exact in double below 1e-8,
        # and it underflows gracefully to 0 as l grows
        xt = x[tiny]
        term = np.ones_like(xt)
        out[0, tiny] = term
        for l in range(1, lmax + 1):
            term = term * xt / (2 * l + 1)
            out[l, tiny] = term

    live = ~tiny
    if not np.any(live):
        return out
    xl = x[live]
    sinx = np.sin(xl)
    cosx = np.cos(xl)
    j0 = sinx / xl
    out[0, live] = j0
    if lmax == 0:
        return out
    j1 = sinx / xl**2 - cosx / xl

    up = xl >= lmax  # upward stable: every order l <= lmax sits below x
    if np.any(up):
        xu = xl[up]
        tab = np.empty((lmax + 1, xu.size))
        tab[0] = j0[up]
        tab[1] = j1[up]
        for l in range(1, lmax):
            tab[l + 1] = (2 * l + 1) / xu * tab[l] - tab[l - 1]
        cols = np.flatnonzero(live)[up]
        out[:, cols] = tab

    down = ~up
    if np.any(down):
        xd = xl[down]
        cols = np.flatnonzero(live)[down]
        lstart = _miller_start(lmax)
        inv = 1.0 / xd
        tab = np.empty((lmax + 1, xd.size))
        # Trial value at order k lives in rows[k]: the table's own rows up
        # to lmax, three rotating buffers above it.
        ring = np.zeros((3, xd.size))
        rows = list(tab) + [ring[k % 3] for k in range(lmax + 1, lstart + 2)]
        rows[lstart].fill(1e-30)
        # Each step grows max(|p_l|, |p_{l+1}|) by at most this factor, so
        # from below _BIG no value overflows within `stride` steps.
        growth = (2 * lstart + 1) * float(inv.max()) + 1.0
        stride = max(1, int(_HEADROOM_BITS / math.log2(growth)))
        for l in range(lstart, 0, -1):
            lo, mid = rows[l - 1], rows[l]
            # positional out: keyword arguments cost more than the step
            np.multiply(inv, 2 * l + 1, lo)
            np.multiply(lo, mid, lo)
            np.subtract(lo, rows[l + 1], lo)
            if l % stride == 0:
                big = np.maximum(np.abs(lo), np.abs(mid)) > _BIG
                if big.any():
                    if l - 1 <= lmax:
                        tab[l - 1:, big] *= _SMALL
                    else:
                        lo[big] *= _SMALL
                    if l > lmax:
                        mid[big] *= _SMALL
        # Normalize against j_0, or j_1 near a zero of sin(x).
        ref0 = j0[down]
        ref1 = j1[down]
        use1 = np.abs(ref0) < np.abs(ref1)
        scale = np.where(use1,
                         ref1 / np.where(tab[1] != 0.0, tab[1], 1.0),
                         ref0 / np.where(tab[0] != 0.0, tab[0], 1.0))
        tab *= scale
        if cols.size == n:
            return tab
        out[:, cols] = tab

    return out
