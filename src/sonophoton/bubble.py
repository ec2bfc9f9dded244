"""Finite-volume photon spectrum of a dielectric sphere in an ambient liquid.

Physical setup and derivation
-----------------------------

A sphere of radius R holds gas whose refractive index jumps suddenly
from n_gas_in to n_gas_out; the surrounding liquid (index n_liquid)
does not change.  The scalar field obeys eps(r,t) d2E/dt2 = c^2 lap E,
so across the sudden jump both E and eps dE/dt are continuous (the
equation linearizes in the pseudo-time d/dtau = eps d/dt).  Expanding
the field in the "in" eigenmodes before the jump and the "out"
eigenmodes after it, projecting the two matching conditions onto an
out mode v_i (frequency w_out) against an in mode u_j (frequency w_in)
gives the pair-creation coefficient

    beta_ij = (eps_out - eps_in) * [w_in w_out / (w_in + w_out)] * I_ij,
    I_ij    = integral over the bubble of v_i u_j d3x,

where eps = n^2 and the eps-difference is nonzero only inside r < R.
(The same algebra in unbounded space reproduces the textbook sudden
result |beta|^2 = (n_in - n_out)^2 / (4 n_in n_out) per polarization.)

Radial eigenmodes are A_nu J_nu(k r) / sqrt(r) Y_lm inside (regular at
the origin, k = n_gas w / c, nu = l + 1/2) and a combination of
J_nu / sqrt(r) and Y_nu / sqrt(r) with the liquid wavenumber outside.
For two interior modes the overlap integral is a Lommel integral,

    int_0^R J_nu(a r) J_nu(b r) r dr = R W[J_nu(a r), J_nu(b r)]_R
                                        / (a^2 - b^2),

which is where the wall Wronskian enters; a = n_gas_out w_out / c and
b = n_gas_in w_in / c.

Normalization.  Modes are delta-normalized in frequency under the
eps-weighted inner product.  Matching the interior solution to
B j_l + C y_l in the liquid and using the large-r asymptotics fixes

    |A_nu|^2 = n_liquid / (2 c^2 n_gas (B^2 + C^2)),

the free-space value 1/(2 c^2) when the indices match (match_modes
computes this exact form).  As a function of frequency 1/(B^2 + C^2)
oscillates through narrow interface (Mie-type) resonances whose peaks
grow and narrow without bound as n_gas / n_liquid grows; integrating
them directly is numerically hopeless for the index ratios of interest.
The spectrum integral only ever sees the product of this factor with a
kernel whose oscillation shares the same wall phase, and averaging
1/(B^2 + C^2) over one phase period has the exact value n_gas/n_liquid
independent of the amplitudes (the cross determinant of the matching
map is fixed by the j/y Wronskian).  The sinc^2-shaped Lommel kernel
filters out every oscillating harmonic of that period (its Fourier
transform vanishes at the harmonic spacing), so replacing |A_nu|^2 by
its phase average

    <|A_nu|^2> = 1 / (2 c^2)

is exact up to O(1/(K R)) edge corrections.  The smooth form is what
spectrum_finite integrates; the exact spiky form is kept in match_modes
where the delta-normalization oracle can test it.

Assembled spectrum (both photon polarizations, applied here and only
here):

    dN/dw_out = 2 * (1/4) R^2 (Dn)^2 * sum_{l>=1} (2l+1) *
                int dw_in  K_l(w_in, w_out),
    K_l = [(n_gas_out w_out^2 + n_gas_in w_in^2) / (w_out + w_in)]^2
          * <|A|^2>_in <|A|^2>_out * 4 * [W/(a^2-b^2)]^2 ,

with the gas-side sharp cutoff applied to the in-side integration
range (b <= K) while the output grid extends smoothly past a = K: the
transparency cutoff lives in the mode content of the changing medium,
and cutting the out grid as well would discard the spectral weight
that finite-volume smearing pushes across the edge.  The l sum
self-truncates near l ~ K R because J_nu(a r) dies inside the bubble
for nu > a R ("emission bounded in angular momentum").

On the wavevector resonance b = a the frequency bracket reduces to
(c k)^2, which together with the 4 <|A|^2>^2 = 1/c^4 normalization is
fixed by requiring the R -> infinity limit to reproduce the closed-form
quadratic spectrum exactly (checked analytically via
sum_l (2l+1) J_nu(x)^2 = 2x/pi, and numerically in the test suite).
Off resonance the bracket pairs each index with its own frequency,
(n_out w_out^2 + n_in w_in^2); the alternative cross pairing
(n_in + n_out) w_in w_out agrees on resonance (and therefore in every
closed-form limit) but disagrees in the smeared-edge region, and the
benchmark emission scenarios with extreme index asymmetry single out
the direct pairing (see the decision notes shipped with the test
suite; the benchmark table itself is regression-tested).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (HBAR, SPEED_OF_LIGHT, BubbleGeometry, DomainError,
                   EmissionSummary, MediumTransition, NumericalError,
                   SpectralDensity)
from .homogeneous import POLARIZATIONS, _check_consistent
from .specfun import sph_jn_table, sph_yn_table

# Smooth (phase-averaged) mode normalization, per side; see module docstring.
A_NU_SQ_SMOOTH = 1.0 / (2.0 * SPEED_OF_LIGHT**2)

# Target quadrature panel width in units of the wall phase (radians).
_PANEL_WIDTH = 0.5 * math.pi
# In-side integration starts at this fraction of the cutoff; the kernel
# vanishes like a power of w_in at the origin so nothing is lost.
_OMEGA_IN_FLOOR = 1e-6
# AUTO l truncation fails when the l_hard term is at least this fraction
# of the l sum.
_L_TAIL_TOL = 1e-4
# |u^2 - v^2| < _DIAGONAL_WIDTH * u^2 selects the analytic diagonal of
# the Lommel kernel; the direct quotient loses ~9 digits there.
_DIAGONAL_WIDTH = 1e-9


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


@dataclass(frozen=True)
class FiniteSpectrumConfig:
    """Controls for the finite-volume spectrum evaluation.

    l_max=None means AUTO truncation: sum every l up to
    l_hard = ceil(K R) + 40 + ceil(4 (K R)^(1/3)) and raise NumericalError
    if the l_hard term is still 1e-4 of the sum or more.  An explicit
    l_max sums l = 1..l_max.  grid_points sets the number of samples up
    to the cutoff; the grid continues at the same spacing to
    grid_extend * cutoff so the smeared roll-off is part of the curve.
    """

    l_max: int | None = None
    quad_rel_tol: float = 1e-6
    grid_points: int = 200
    grid_extend: float = 1.3

    def __post_init__(self) -> None:
        if self.l_max is not None and self.l_max < 1:
            raise DomainError("explicit l_max must be >= 1")
        if not (0.0 < self.quad_rel_tol < 1.0):
            raise DomainError(
                f"quad_rel_tol must lie in (0, 1), got {self.quad_rel_tol!r}")
        if self.grid_points < 2:
            raise DomainError("grid_points must be >= 2")
        if not (1.0 <= self.grid_extend <= 4.0):
            raise DomainError("grid_extend must lie in [1, 4]")


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
        c = SPEED_OF_LIGHT
        k1 = n_inside * w / c
        k2 = n_outside * w / c
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
    a_nu_sq = n_outside / (2.0 * SPEED_OF_LIGHT**2 * n_inside * norm)
    return ModeMatch(l=l, omega=omega, n_inside=n_inside, n_outside=n_outside,
                     amp_regular=b_amp, amp_irregular=c_amp, a_nu_sq=a_nu_sq)


_GAUSS_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gauss_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    if order not in _GAUSS_CACHE:
        _GAUSS_CACHE[order] = np.polynomial.legendre.leggauss(order)
    return _GAUSS_CACHE[order]


def _panel_breaks(v_min: float, v_max: float, resonance: float,
                  width: float) -> np.ndarray:
    """Panel edges covering [v_min, v_max] with the resonance as an edge."""
    anchor = resonance if v_min < resonance < v_max else v_max
    below = np.arange(anchor, v_min, -width)
    above = np.arange(anchor, v_max, width)[1:] if anchor < v_max else np.array([])
    breaks = np.concatenate((below[::-1], above, [v_min, v_max]))
    breaks = np.unique(np.clip(breaks, v_min, v_max))
    return breaks


def _lommel_kernel(u: float, v: np.ndarray, ju: np.ndarray,
                   jv: np.ndarray) -> np.ndarray:
    """Dimensionless Lommel kernel lambda_l(u, v) for l = 1..L.

    lambda_l(u, v) = (2 sqrt(uv)/pi) [v j_l(u) j_{l-1}(v) - u j_{l-1}(u) j_l(v)]
                     / (u^2 - v^2),
    the wall-Wronskian overlap of the module docstring in the variables
    u = a R, v = b R; symmetric in (u, v).  ju holds j_l(u) and jv holds
    j_l(v) for l = 0..L (shapes (L + 1,) and (L + 1, len(v))); the result
    has shape (L, len(v)).  Within |u^2 - v^2| < _DIAGONAL_WIDTH u^2 the
    removable singularity takes its limit lambda_l(u, u).
    """
    pref = 2.0 * np.sqrt(u * v) / math.pi
    denom = (u - v) * (u + v)
    # row l-1 holds v j_l(u) j_{l-1}(v) - u j_{l-1}(u) j_l(v)
    num = (v * jv[0:-1] * ju[1:, None] - u * jv[1:] * ju[0:-1, None])
    with np.errstate(divide="ignore", invalid="ignore"):
        lam = pref * num / denom
    close = np.abs(denom) < _DIAGONAL_WIDTH * u * u
    if np.any(close):
        ls = np.arange(1, ju.size, dtype=float)
        jl = ju[1:]
        jlm1 = ju[0:-1]
        diag = (u / math.pi) * ((jlm1 - (ls + 0.5) / u * jl)**2
                                + (1.0 - ((ls + 0.5) / u)**2) * jl**2)
        lam = np.where(close[None, :], diag[:, None], lam)
    return lam


class _SpectrumEngine:
    """Vectorized evaluation of the l-summed omega_in integral at one u.

    Works in the dimensionless variables u = n_gas_out w_out R / c and
    v = n_gas_in w_in R / c; panel Gauss-Legendre quadrature with the
    resonance v = u as a mandatory panel edge, refined until the summed
    integral is stable to quad_rel_tol.
    """

    def __init__(self, n_gas_in: float, n_gas_out: float, kr: float,
                 config: FiniteSpectrumConfig):
        self.n_in = n_gas_in
        self.n_out = n_gas_out
        self.config = config
        self.l_hard = config.l_max if config.l_max is not None else \
            math.ceil(kr) + 40 + math.ceil(4.0 * kr**(1.0 / 3.0))
        self.l_weights = 2.0 * np.arange(1, self.l_hard + 1) + 1.0
        self.v_min = _OMEGA_IN_FLOOR * kr
        self.v_max = kr

    def _integrals_per_l(self, u: float, breaks: np.ndarray,
                         order: int) -> np.ndarray:
        """I_l = int dv weight(v) lambda_l(u, v)^2 for l = 1..l_hard."""
        ref_x, ref_w = _gauss_nodes(order)
        mids = 0.5 * (breaks[1:] + breaks[:-1])
        halves = 0.5 * (breaks[1:] - breaks[:-1])
        v = (mids[:, None] + halves[:, None] * ref_x[None, :]).ravel()
        gw = (halves[:, None] * ref_w[None, :]).ravel()

        ju = sph_jn_table(self.l_hard, np.array([u]))[:, 0]
        jv = sph_jn_table(self.l_hard, v)
        lam = _lommel_kernel(u, v, ju, jv)
        weight = ((u * u * self.n_in + v * v * self.n_out)
                  / (u * self.n_in + v * self.n_out))**2
        return (lam * lam) @ (weight * gw)

    def sum_at(self, u: float) -> float:
        """sum_l (2l+1) I_l(u) over every l = 1..l_hard."""
        cfg = self.config
        breaks = _panel_breaks(self.v_min, self.v_max, u, _PANEL_WIDTH)
        prev = None
        for level, order in ((0, 12), (1, 24), (2, 24), (3, 24)):
            if level >= 2:
                refined = np.empty(2 * breaks.size - 1)
                refined[0::2] = breaks
                refined[1::2] = 0.5 * (breaks[1:] + breaks[:-1])
                breaks = refined
            cur = self._integrals_per_l(u, breaks, order)
            if prev is not None:
                terms = self.l_weights * cur
                total = float(np.sum(terms))
                scale = abs(total) if total != 0.0 else 1.0
                err = float(np.sum(self.l_weights * np.abs(cur - prev)))
                if err <= cfg.quad_rel_tol * scale or scale == 0.0:
                    if cfg.l_max is None and total > 0.0 \
                            and terms[-1] >= _L_TAIL_TOL * total:
                        raise NumericalError(
                            f"l sum not converged by l={self.l_hard} at "
                            f"x_out={u!r} (last relative term "
                            f"{terms[-1] / total:.3e})")
                    return total
            prev = cur
        worst = int(np.argmax(np.abs(cur - prev))) + 1
        raise NumericalError(
            f"omega_in quadrature failed to reach rel tol "
            f"{cfg.quad_rel_tol} at x_out={u!r} (worst l={worst})")


def spectral_grid(geometry: BubbleGeometry,
                  config: FiniteSpectrumConfig | None = None
                  ) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Output grid for spectra: (omega_out in rad/s, x = k_out R).

    Runs from one spacing above zero to grid_extend times the gas-side
    cutoff, with a sample exactly at the cutoff.
    """
    config = config or FiniteSpectrumConfig()
    kr = geometry.k_gas_cutoff * geometry.radius
    h = kr / config.grid_points
    n_total = config.grid_points + math.ceil(
        (config.grid_extend - 1.0) * config.grid_points)
    x_grid = h * np.arange(1, n_total + 1)
    omega_grid = x_grid * SPEED_OF_LIGHT / (geometry.n_out * geometry.radius)
    return (tuple(float(w) for w in omega_grid),
            tuple(float(x) for x in x_grid))


def spectrum_finite(transition: MediumTransition, n_liquid: float,
                    geometry: BubbleGeometry,
                    config: FiniteSpectrumConfig | None = None) -> SpectralDensity:
    """Sampled finite-volume dN/d omega_out (both polarizations).

    The grid runs from one spacing above zero up to grid_extend times
    the gas-side cutoff frequency, with a sample exactly at the cutoff.
    """
    config = config or FiniteSpectrumConfig()
    _check_consistent(transition, geometry)
    if not math.isclose(n_liquid, geometry.n_liquid, rel_tol=1e-12):
        raise DomainError(
            f"n_liquid={n_liquid!r} disagrees with geometry "
            f"({geometry.n_liquid!r})")
    n_in, n_out = transition.n_in, transition.n_out
    radius = geometry.radius
    kr = geometry.k_gas_cutoff * radius
    c = SPEED_OF_LIGHT

    omega_tuple, x_tuple = spectral_grid(geometry, config)
    x_grid = np.asarray(x_tuple)

    engine = _SpectrumEngine(n_in, n_out, kr, config)
    dn = transition.delta_n
    prefactor = POLARIZATIONS * 0.25 * dn * dn * radius / (c * n_in)
    values = tuple(float(prefactor * engine.sum_at(float(u))) for u in x_grid)
    return SpectralDensity(grid=omega_tuple, values=values,
                           dimensionless_x=x_tuple)


def _trapz_richardson(x: np.ndarray, y: np.ndarray) -> float:
    """Trapezoid with one Richardson step against the half-resolution grid."""
    fine = float(np.trapezoid(y, x))
    idx = list(range(0, x.size, 2))
    if idx[-1] != x.size - 1:
        idx.append(x.size - 1)
    coarse = float(np.trapezoid(y[idx], x[idx]))
    return fine + (fine - coarse) / 3.0


def totals_finite(transition: MediumTransition, n_liquid: float,
                  geometry: BubbleGeometry,
                  config: FiniteSpectrumConfig | None = None,
                  spectral: SpectralDensity | None = None) -> EmissionSummary:
    """Photon number and energy from the finite-volume spectrum.

    Integrates the sampled spectrum (trapezoid plus Richardson
    refinement); mean photon energy is reported against hbar times the
    cutoff frequency.  A precomputed SpectralDensity for the same
    parameters may be passed to avoid recomputation.
    """
    if spectral is None:
        spectral = spectrum_finite(transition, n_liquid, geometry, config)
    x = np.asarray(spectral.grid)
    y = np.asarray(spectral.values)
    count = _trapz_richardson(x, y)
    energy = _trapz_richardson(x, HBAR * x * y)
    return EmissionSummary.from_totals(count, energy, HBAR * geometry.omega_max)
