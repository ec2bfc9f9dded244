"""Exact mode matching across the bubble wall, and the numerical oracle
for the delta-normalization of the matched modes.

The library integrates the phase-averaged normalization (see the
sonophoton.bubble docstring); the exact form lives here, where the tests
check it against the eps-weighted norm integral.
"""

import math
from dataclasses import dataclass

import numpy as np

from sonophoton.core import SPEED_OF_LIGHT as C, DomainError, NumericalError
from sonophoton.specfun import sph_jn_table

from oracles import fit_line, sph_yn_table

R500 = 500e-9


@dataclass(frozen=True)
class ModeMatch:
    """Matched radial mode at one (l, omega): exterior amplitudes and norm.

    amp_regular / amp_irregular are the exterior coefficients B, C of
    j_l(k2 r) and y_l(k2 r) for an interior j_l(k1 r) of unit amplitude;
    a_nu_sq is the exact delta-normalization |A_nu|^2 (s^2/m^2).
    """

    l: int
    omega: float
    n_inside: float
    n_outside: float
    amp_regular: float
    amp_irregular: float
    a_nu_sq: float

    def __post_init__(self) -> None:
        if not (self.a_nu_sq > 0.0):
            raise DomainError("a_nu_sq must be positive")


def match_modes(l: int, omega: float, n_inside: float, n_outside: float,
                radius: float) -> ModeMatch:
    """Match the regular interior radial mode across the bubble wall.

    Continuity of the mode function and its radial derivative at r = R
    fixes the exterior coefficients B, C; the exact delta-normalization
    gives a_nu_sq = n_outside / (2 c^2 n_inside (B^2 + C^2)).
    """
    if l < 1:
        raise DomainError(f"mode matching needs l >= 1, got {l!r}")
    for name, val in (("omega", omega), ("n_inside", n_inside),
                      ("n_outside", n_outside), ("radius", radius)):
        if not (val > 0.0) or not math.isfinite(val):
            raise DomainError(f"{name} must be positive and finite, got {val!r}")

    def attempt(w: float) -> tuple[float, float]:
        k1 = n_inside * w / C
        k2 = n_outside * w / C
        x1 = k1 * radius
        x2 = k2 * radius
        jt1 = sph_jn_table(l, np.array([x1]))
        f = float(jt1[l, 0])
        fp = k1 * float(jt1[l - 1, 0] - (l + 1) / x1 * jt1[l, 0])
        jt2 = sph_jn_table(l, np.array([x2]))
        yt2 = sph_yn_table(l, np.array([x2]))
        uj = float(jt2[l, 0])
        ujp = k2 * float(jt2[l - 1, 0] - (l + 1) / x2 * jt2[l, 0])
        vy = float(yt2[l, 0])
        vyp = k2 * float(yt2[l - 1, 0] - (l + 1) / x2 * yt2[l, 0])
        wr = uj * vyp - ujp * vy  # = k2 / x2^2, never zero analytically
        if wr == 0.0:
            return math.nan, math.nan
        b_amp = (f * vyp - fp * vy) / wr
        c_amp = (fp * uj - f * ujp) / wr
        return b_amp, c_amp

    b_amp, c_amp = attempt(omega)
    norm = b_amp * b_amp + c_amp * c_amp
    if not math.isfinite(norm) or norm == 0.0:
        b_amp, c_amp = attempt(omega * (1.0 + 1e-12))
        norm = b_amp * b_amp + c_amp * c_amp
        if not math.isfinite(norm) or norm == 0.0:
            raise NumericalError(
                f"mode matching degenerate at l={l}, omega={omega!r}, "
                f"n_inside={n_inside!r}, n_outside={n_outside!r}: "
                f"B={b_amp!r}, C={c_amp!r}")
    a_nu_sq = n_outside / (2.0 * C**2 * n_inside * norm)
    return ModeMatch(l=l, omega=omega, n_inside=n_inside, n_outside=n_outside,
                     amp_regular=b_amp, amp_irregular=c_amp, a_nu_sq=a_nu_sq)


def omega_for(x1, n_inside, radius=R500):
    """Frequency placing the interior argument k1 R at x1."""
    return x1 * C / (n_inside * radius)


def mode_profile(mm, radius, r):
    """Radial profile of the matched (un-normalized) mode at radii r."""
    k1 = mm.n_inside * mm.omega / C
    k2 = mm.n_outside * mm.omega / C
    r = np.asarray(r)
    out = np.empty_like(r)
    inside = r <= radius
    if np.any(inside):
        out[inside] = sph_jn_table(mm.l, k1 * r[inside])[mm.l]
    if np.any(~inside):
        xs = k2 * r[~inside]
        out[~inside] = (mm.amp_regular * sph_jn_table(mm.l, xs)[mm.l]
                        + mm.amp_irregular * sph_yn_table(mm.l, xs)[mm.l])
    return out


def normalization_slope(mm, span=50.0):
    """Growth rate of the cumulative eps-weighted norm integral of the
    delta-normalized mode, and its analytic target n_outside / (pi c)."""
    k1 = mm.n_inside * mm.omega / C
    k2 = mm.n_outside * mm.omega / C
    n_sq_mode = mm.a_nu_sq * 2.0 * k1 / math.pi  # delta-norm amplitude^2
    kmax = max(k1, k2)
    n_pts = int(kmax * span * R500 / (2.0 * math.pi) * 60) + 500
    r = np.linspace(1e-4 * R500, span * R500, n_pts)
    f = mode_profile(mm, R500, r)
    eps = np.where(r <= R500, mm.n_inside**2, mm.n_outside**2)
    integrand = 2.0 * mm.omega * eps * n_sq_mode * f * f * r * r
    cumulative = np.concatenate(
        ([0.0], np.cumsum(0.5 * np.diff(r) * (integrand[1:] + integrand[:-1]))))
    window = r > 0.6 * span * R500
    slope, _ = fit_line(list(r[window]), list(cumulative[window]))
    return slope, mm.n_outside / (math.pi * C)
