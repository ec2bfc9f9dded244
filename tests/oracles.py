"""Arbitrary-precision reference implementations for the test suite.

Slow, dumb and correct: j_l by its power series summed in mpmath
arithmetic, y_l by exact closed trig forms propagated upward at high
precision.  Every fast evaluation path in the package is refereed
against these; they deliberately share no code with the library.  The
float y_l table and the scalar wrappers spherical_j, spherical_y and
their derivatives at the end are not references: they are code under
test.
"""

import math

import numpy as np
from mpmath import mp, mpf

from sonophoton.core import DomainError
from sonophoton.specfun import sph_jn_table


def _working_dps(l, x):
    # series cancellation costs ~0.45 x digits; order adds a few more
    return 40 + int(abs(x)) + l


def oracle_j(l, x, dps=None):
    """j_l(x) = sum_k (-1)^k x^(l+2k) / (2^k k! (2l+2k+1)!!), in mpf."""
    if x == 0.0:
        return 1.0 if l == 0 else 0.0
    with mp.workdps(dps or _working_dps(l, x)):
        xm = mpf(x)
        dfac = mpf(1)
        for m in range(3, 2 * l + 2, 2):
            dfac *= m
        term = xm**l / dfac
        total = term
        k = 0
        while True:
            k += 1
            term *= -xm * xm / (2 * k * (2 * l + 2 * k + 1))
            total += term
            if abs(term) < abs(total) * mpf(10)**(-mp.dps + 5) and k > 4:
                break
        return float(total)


def oracle_y(l, x, dps=60):
    """y_l(x) via exact y_0, y_1 and upward recurrence in mpf."""
    if x <= 0.0:
        raise ValueError("oracle_y needs x > 0")
    with mp.workdps(dps + l):
        xm = mpf(x)
        y_prev = -mp.cos(xm) / xm
        if l == 0:
            return float(y_prev)
        y_cur = -mp.cos(xm) / xm**2 - mp.sin(xm) / xm
        for order in range(1, l):
            y_prev, y_cur = y_cur, (2 * order + 1) / xm * y_cur - y_prev
        return float(y_cur)


def oracle_j_mp(l, x, dps):
    """j_l(x) as an mpf (for oracle-side arithmetic)."""
    with mp.workdps(dps):
        xm = mpf(x)
        if xm == 0:
            return mpf(1) if l == 0 else mpf(0)
        dfac = mpf(1)
        for m in range(3, 2 * l + 2, 2):
            dfac *= m
        term = xm**l / dfac
        total = term
        k = 0
        while True:
            k += 1
            term *= -xm * xm / (2 * k * (2 * l + 2 * k + 1))
            total += term
            if abs(term) < abs(total) * mpf(10)**(-dps + 5) and k > 4:
                break
        return total


def oracle_j_table_mp(lmax, x, dps=60):
    """[j_0(x), ..., j_lmax(x)] as mpf, x > 0, from exact j_0, j_1 and
    upward recurrence.  The recurrence is stable for l < x; above x it
    loses about log10((2l-1)!!^2 / x^(2l+1)) digits, which the working
    precision adds on top of dps."""
    lost = 2 * math.log10(double_factorial(2 * lmax - 1)) \
        - (2 * lmax + 1) * math.log10(x)
    with mp.workdps(dps + max(0, math.ceil(lost))):
        xm = mpf(x)
        table = [mp.sin(xm) / xm, mp.sin(xm) / xm**2 - mp.cos(xm) / xm]
        for l in range(1, lmax):
            table.append((2 * l + 1) / xm * table[l] - table[l - 1])
        return table[:lmax + 1]


def oracle_cylinder_j_mp(l, x, dps):
    """J_{l+1/2}(x) = sqrt(2x/pi) j_l(x) as an mpf."""
    with mp.workdps(dps):
        return mp.sqrt(2 * mpf(x) / mp.pi) * oracle_j_mp(l, mpf(x), dps)


def oracle_wronskian_fd(l, a, b, r, rel_step=1e-18, dps=60):
    """W[J_nu(a r), J_nu(b r)]_r by central finite differences in r,
    built only from the series oracle."""
    h = mpf(r) * mpf(rel_step)
    with mp.workdps(dps):
        am, bm, rm = mpf(a), mpf(b), mpf(r)
        ja = oracle_cylinder_j_mp(l, am * rm, dps)
        jb = oracle_cylinder_j_mp(l, bm * rm, dps)
        dja = (oracle_cylinder_j_mp(l, am * (rm + h), dps)
               - oracle_cylinder_j_mp(l, am * (rm - h), dps)) / (2 * h)
        djb = (oracle_cylinder_j_mp(l, bm * (rm + h), dps)
               - oracle_cylinder_j_mp(l, bm * (rm - h), dps)) / (2 * h)
        return float(ja * djb - dja * jb)


def rel_err(got, want):
    if want == 0.0:
        return abs(got)
    return abs(got - want) / abs(want)


def assert_close(got, want, rel=1e-12, what=""):
    err = rel_err(got, want)
    assert err <= rel, f"{what}: got {got!r}, want {want!r} (rel err {err:.3e})"


def fit_line(xs, ys):
    """Least-squares slope and intercept without numpy (oracle-side)."""
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    slope = sxy / sxx
    return slope, my - slope * mx


def trapz(ys, xs):
    total = 0.0
    for i in range(len(xs) - 1):
        total += 0.5 * (xs[i + 1] - xs[i]) * (ys[i] + ys[i + 1])
    return total


def two_point_slope(f, x, rel=1e-6):
    h = x * rel
    return (f(x + h) - f(x - h)) / (2.0 * h)


def is_quadratic(xs, ys, tol=1e-9):
    """True if ys is proportional to xs^2 on the sample."""
    base = ys[0] / xs[0] ** 2
    return all(abs(y - base * x * x) <= tol * abs(base) * x * x
               for x, y in zip(xs, ys))


def double_factorial(n):
    out = 1
    for m in range(n, 1, -2):
        out *= m
    return out


def sph_j_small_x(l, x):
    """Leading small-argument behavior x^l / (2l+1)!!."""
    return x**l / double_factorial(2 * l + 1)


def planck_mean_quadratic(x_cut):
    """Mean of x over an x^2 density on [0, x_cut], per unit x_cut: 3/4."""
    num = x_cut**4 / 4.0
    den = x_cut**3 / 3.0
    return num / den / x_cut


assert math.isclose(planck_mean_quadratic(3.7), 0.75)


# The code below is not a reference.  sph_yn_table is the float y_l table
# of the exact mode matching (mode_oracle); the scalar wrappers read the
# j_l and y_l tables one value at a time, so the tests can check single
# values against the oracles above.


def sph_yn_table(lmax: int, x: np.ndarray) -> np.ndarray:
    """Table of y_l(x) for l = 0..lmax over x > 0 (upward recurrence)."""
    x = np.asarray(x, dtype=float)
    if np.any(~np.isfinite(x)) or np.any(x <= 0.0):
        raise DomainError("y_l requires x > 0 (irregular at the origin)")
    n = x.size
    out = np.empty((lmax + 1, n))
    sinx = np.sin(x)
    cosx = np.cos(x)
    out[0] = -cosx / x
    if lmax == 0:
        return out
    out[1] = -cosx / x**2 - sinx / x
    # y_l grows without bound for l >> x; let it saturate to inf quietly
    with np.errstate(over="ignore"):
        for l in range(1, lmax):
            out[l + 1] = (2 * l + 1) / x * out[l] - out[l - 1]
    return out


def _check_order(l: int) -> None:
    if l < 0 or l != int(l):
        raise DomainError(f"l must be a non-negative integer, got {l!r}")


def spherical_j(l: int, x: float) -> float:
    """Spherical Bessel function j_l(x), x >= 0."""
    _check_order(l)
    if not math.isfinite(x) or x < 0.0:
        raise DomainError(f"spherical_j requires finite x >= 0, got {x!r}")
    return float(sph_jn_table(l, np.array([x]))[l, 0])


def spherical_y(l: int, x: float) -> float:
    """Spherical Bessel function of the second kind y_l(x), x > 0."""
    _check_order(l)
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"spherical_y requires finite x > 0, got {x!r}")
    return float(sph_yn_table(l, np.array([x]))[l, 0])


def spherical_j_prime(l: int, x: float) -> float:
    """d/dx j_l(x).  Uses j_l' = j_{l-1} - (l+1)/x j_l (and j_0' = -j_1)."""
    _check_order(l)
    if not math.isfinite(x) or x < 0.0:
        raise DomainError(f"spherical_j_prime requires x >= 0, got {x!r}")
    if x == 0.0:
        return 1.0 / 3.0 if l == 1 else 0.0
    tab = sph_jn_table(l + 1, np.array([x]))
    if l == 0:
        return float(-tab[1, 0])
    return float(tab[l - 1, 0] - (l + 1) / x * tab[l, 0])


def spherical_y_prime(l: int, x: float) -> float:
    """d/dx y_l(x), x > 0."""
    _check_order(l)
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"spherical_y_prime requires x > 0, got {x!r}")
    tab = sph_yn_table(l + 1, np.array([x]))
    if l == 0:
        return float(-tab[1, 0])
    return float(tab[l - 1, 0] - (l + 1) / x * tab[l, 0])
