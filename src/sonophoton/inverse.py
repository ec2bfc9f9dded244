"""Inverse problem on the closed-form photon count.

The count N(n_in) = C0 / n_liquid^3 (n_out - n_in)^2 n_out^2 / n_in is
rational in n_in, so fixing (n_out, N) gives the quadratic

    n_in^2 - (2 n_out + L) n_in + n_out^2 = 0,
    L = N n_liquid^3 / (C0 n_out^2),  C0 = (k_observed R)^3 / (9 pi),

whose two positive roots are the two branches of the target-count
curve.  Vieta gives n_in_low * n_in_high = n_out^2 exactly, which makes
the branch pair an involution under n_in -> n_out^2 / n_in.

The algebra and the root checks are written once, elementwise in n_out:
solve_n_in runs them on a float and sweep_figure1 on the whole grid as
arrays (importing numpy when it runs).  numpy's elementwise + - * / and
sqrt round as Python's float operations do, so both give the same bits.  Where the count formula
over- or underflows, both raise DomainError or NumericalError, never a
Python ArithmeticError or a NaN root.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .core import (DomainError, NumericalError, _Record,
                   _require_finite_cubes, _require_positive, _set)
from .homogeneous import photons_from_count_formula

if TYPE_CHECKING:
    from typing import Sequence

    import numpy as np

RESIDUAL_TOL = 1e-8
# Near the double root a root must solve the quadratic to 64 ulp of its
# largest term; 64 * 2^-52 is a power of two, so scaling by it is exact.
_QUADRATIC_TOL = 64.0 * 2.220446049250313e-16
# Relative tolerance of the Vieta product n_in_low * n_in_high = n_out^2.
_VIETA_TOL = 1e-10


class BranchPair(_Record):
    """Both refractive-index branches solving the target photon count."""

    __slots__ = ("n_in_low", "n_in_high", "discriminant")

    def __init__(self, n_in_low: float, n_in_high: float,
                 discriminant: float) -> None:
        if not 0.0 < n_in_low <= n_in_high:
            raise DomainError("branch roots must satisfy 0 < low <= high")
        _set(self, "n_in_low", n_in_low)
        _set(self, "n_in_high", n_in_high)
        _set(self, "discriminant", discriminant)


def _check_inputs(n_out, n_target, n_liquid, k_obs_r) -> None:
    for name, val in (("n_out", n_out), ("n_target", n_target),
                      ("n_liquid", n_liquid), ("k_obs_r", k_obs_r)):
        _require_positive(name, val)
    _require_finite_cubes(("n_liquid", n_liquid), ("k_obs_r", k_obs_r))


def _quadratic(n_out, n_target, n_liquid, k_obs_r):
    """(s, disc): the quadratic's s = 2 n_out + L and its discriminant
    s^2 - 4 n_out^2, elementwise in n_out (a float or an array)."""
    c0 = k_obs_r**3 / (9.0 * math.pi)
    lam = n_target * n_liquid**3 / (c0 * n_out * n_out)
    # disc = s^2 - 4 n_out^2 algebraically; this form avoids the
    # catastrophic cancellation near the double root lam -> 0
    return 2.0 * n_out + lam, lam * (lam + 4.0 * n_out)


def _roots(n_out, s, sqrt_disc):
    """(low, high), elementwise: the larger root from the stable branch of
    the formula and the smaller from the Vieta product, so neither
    suffers cancellation."""
    high = 0.5 * (s + sqrt_disc)
    return n_out * n_out / high, high


def _far_from_double_root(root, n_out):
    """Elementwise: root lies at least 1e-7 relative from n_out.

    Nearer to the double root the count is quadratically flat in n_in
    and the root-to-count map too ill-conditioned for a meaningful count
    residual, so the quadratic's own residual is checked there instead.
    """
    return abs(root - n_out) >= 1e-7 * root


def _count_fails(back, n_target):
    """Elementwise: the back-substituted count misses n_target by more
    than RESIDUAL_TOL relative."""
    return abs(back - n_target) > RESIDUAL_TOL * n_target


def _quadratic_residual(root, n_out, s):
    """(resid, too_large), elementwise: the quadratic's residual at root
    and whether it exceeds _QUADRATIC_TOL times the largest term."""
    rr, sr, nn = root * root, s * root, n_out * n_out
    resid = rr - sr + nn
    # |resid| > _QUADRATIC_TOL * max(rr, sr, nn), term by term
    size = abs(resid)
    return resid, ((size > _QUADRATIC_TOL * rr) & (size > _QUADRATIC_TOL * sr)
                   & (size > _QUADRATIC_TOL * nn))


def _vieta_fails(n_out, low, high):
    """Elementwise: the root product misses n_out^2 by more than _VIETA_TOL."""
    return abs(low * high - n_out * n_out) > _VIETA_TOL * n_out * n_out


def solve_n_in(n_out: float, n_target: float, n_liquid: float = 1.3,
               k_obs_r: float = 15.0) -> BranchPair:
    """Both n_in values that give n_target photons at fixed n_out.

    Closed-form quadratic; the larger root is taken from the stable
    branch of the formula and the smaller from the Vieta product, so
    neither suffers cancellation.  Each root is verified by substitution
    back into the count formula to RESIDUAL_TOL relative, or, within
    1e-7 of the double root n_out, by the quadratic's own residual.
    Raises DomainError for a non-positive or non-finite argument, or an
    n_liquid or k_obs_r whose cube overflows, and NumericalError where
    the quadratic over- or underflows or a root fails its check.
    """
    _check_inputs(n_out, n_target, n_liquid, k_obs_r)
    try:
        s, disc = _quadratic(n_out, n_target, n_liquid, k_obs_r)
    except ZeroDivisionError:
        raise NumericalError(
            f"C0 n_out^2 underflows to 0 at n_out={n_out!r}") from None
    # L >= 0 or NaN, so disc = L (L + 4 n_out) is never negative
    low, high = _roots(n_out, s, math.sqrt(disc))
    if not 0.0 < low <= high < math.inf:
        raise NumericalError(
            f"roots {low!r}, {high!r} at n_out={n_out!r}, n_target="
            f"{n_target!r} are not 0 < low <= high < inf: the quadratic "
            f"over- or underflows")
    for root in (low, high):
        if _far_from_double_root(root, n_out):
            try:
                back = photons_from_count_formula(root, n_out, n_liquid,
                                                  k_obs_r)
            except ZeroDivisionError:
                raise NumericalError(
                    f"n_liquid^3 underflows to 0, so the count cannot be "
                    f"checked at n_in={root!r}, n_out={n_out!r}") from None
            if _count_fails(back, n_target):
                raise NumericalError(
                    f"back-substitution residual "
                    f"{abs(back - n_target) / n_target:.3e} exceeds "
                    f"{RESIDUAL_TOL} at n_in={root!r}, n_out={n_out!r}")
        else:
            resid, too_large = _quadratic_residual(root, n_out, s)
            if too_large:
                raise NumericalError(
                    f"quadratic residual {resid!r} too large at "
                    f"n_in={root!r}, n_out={n_out!r}")
    return BranchPair(n_in_low=low, n_in_high=high, discriminant=disc)


def _solve_grid(grid: np.ndarray, n_target: float, n_liquid: float,
                k_obs_r: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(low, high, flagged) over the whole grid in one array pass.

    flagged marks every point where solve_n_in or the Vieta check could
    fail: an invalid n_out, roots out of order, at 0, at inf or NaN, or a
    failing root or Vieta check.  Where neither does fail, low and high
    hold solve_n_in's own bits: both paths run the same operations.
    n_liquid becomes a numpy float, so where its cube underflows the
    count formula gives inf, not the ZeroDivisionError of Python's float
    division.
    """
    import numpy as np

    n_liquid = np.float64(n_liquid)
    s, disc = _quadratic(grid, n_target, n_liquid, k_obs_r)
    low, high = _roots(grid, s, np.sqrt(disc))
    flagged = (~((grid > 0.0) & np.isfinite(grid) & (0.0 < low)
                 & (low <= high) & (high < np.inf))
               | _vieta_fails(grid, low, high))
    for root in (low, high):
        back = photons_from_count_formula(root, grid, n_liquid, k_obs_r)
        flagged |= np.where(_far_from_double_root(root, grid),
                            _count_fails(back, n_target),
                            _quadratic_residual(root, grid, s)[1])
    return low, high, flagged


def sweep_figure1(n_target: float, n_liquid: float, k_obs_r: float,
                  n_out_grid: Sequence[float]) -> list[tuple[float, float, float]]:
    """solve_n_in across a strictly increasing n_out grid, as one array
    solve.

    Returns rows (n_out, n_in_low, n_in_high) of Python floats in grid
    order, bit-identical to solve_n_in point by point; every row
    satisfies the Vieta identity n_in_low * n_in_high = n_out^2 to 1e-10
    relative.  Every check of solve_n_in runs on every point, and a grid
    that fails raises the error that solve_n_in, or the Vieta check,
    raises at its lowest failing n_out.  An empty grid gives [].
    """
    import numpy as np

    grid = np.asarray(n_out_grid, dtype=float)
    if np.any(grid[1:] <= grid[:-1]):
        raise DomainError("n_out grid must be strictly increasing")
    if not grid.size:
        return []
    if grid[0] <= 0.0:
        raise DomainError("n_out grid must be positive")
    n_outs = grid.tolist()
    _check_inputs(n_outs[0], n_target, n_liquid, k_obs_r)
    # the flagged points' errors are raised by solving them alone below,
    # so numpy's warnings for the same values are not wanted
    with np.errstate(all="ignore"):
        low, high, flagged = _solve_grid(grid, n_target, n_liquid, k_obs_r)
    # One at a time and in grid order, the flagged points raise what the
    # point-by-point loop would have raised first.
    for i in np.flatnonzero(flagged).tolist():
        n_out = n_outs[i]
        pair = solve_n_in(n_out, n_target, n_liquid, k_obs_r)
        if _vieta_fails(n_out, pair.n_in_low, pair.n_in_high):
            raise NumericalError(
                f"Vieta identity violated at n_out={n_out!r}: "
                f"{pair.n_in_low * pair.n_in_high!r}")
    return list(zip(n_outs, low.tolist(), high.tolist()))
