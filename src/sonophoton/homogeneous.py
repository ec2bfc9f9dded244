"""Infinite-volume limit: tanh-profile pair-creation density and closed forms.

For a homogeneous medium whose permittivity eps = n^2 follows a tanh
profile in pseudo-time, the squared Bogolubov coefficient between the
two asymptotic quantizations has a closed sinh-ratio form.  Momentum
conservation puts the created pair on shell at equal wavevector
magnitude k, so n_in omega_in = n_out omega_out = c k and the density
becomes a function of omega_out alone.  In the sudden limit the ratio
collapses to the frequency-flat value (n_in - n_out)^2 / (4 n_in n_out),
and with a sharp gas-side cutoff K the spectrum, photon number and
energy are elementary integrals.

Conventions: POLARIZATIONS enters each spectrum once, through _spectrum_root,
and the closed-form totals through their constants; beta_sq_density and
sudden_beta_sq are per polarization.

spectrum_infinite and _count_formula (the inverse sweep's) take arrays;
spectrum_infinite imports numpy when it runs, so the rest runs without it.
"""

from __future__ import annotations

import math
import sys

from .core import (HBAR, SPEED_OF_LIGHT, BubbleGeometry, DomainError,
                   EmissionSummary, MediumTransition, NumericalError,
                   _check_count_inputs)

TYPE_CHECKING = False
if TYPE_CHECKING:
    import numpy as np

# Photon polarization multiplicity, applied at spectrum level only.
POLARIZATIONS = 2.0

# Log-density below which the sinh ratio is reported as underflowed zero.
UNDERFLOW_LOG = -700.0


def epsilon_profile(transition: MediumTransition, tau: float) -> float:
    """Permittivity profile in pseudo-time tau (seconds).

    (n_in^2 + n_out^2)/2 + (n_out^2 - n_in^2)/2 * tanh(tau / tau0);
    runs monotonically from n_in^2 to n_out^2, which tau = -inf and +inf
    give; a NaN tau raises DomainError.  tau / tau0 is taken as
    tau / t0 * (n_in^2 + n_out^2) / 2, since tau0 underflows at large indices.
    """
    if math.isnan(tau):
        raise DomainError(f"tau must not be NaN, got {tau!r}")
    mean = transition.n_sq_mean
    half_diff = 0.5 * (transition.n_out**2 - transition.n_in**2)
    return mean + half_diff * math.tanh(tau / transition.t0 * mean)


def sudden_beta_sq(transition: MediumTransition) -> float:
    """Sudden-limit pair density per polarization: (Dn)^2 / (4 n_in n_out),
    as (Dn / n_in) (Dn / n_out) / 4 so that no factor underflows.  A value
    above the float range raises NumericalError."""
    dn = transition.delta_n
    return _finite("sudden pair density",
                   0.25 * (dn / transition.n_in) * (dn / transition.n_out))


def omega_sudden(transition: MediumTransition) -> float:
    """Frequency up to which the sudden approximation holds, rad/s.

    Omega = (n_in^2 + n_out^2) / (2 pi t0 n_out max(n_in, n_out)); the
    index dependence can push this far above 1/t0.  It is taken through
    the index ratio r = min / max <= 1, as (1 + r^2) (max / n_out) / (2 pi t0),
    so nothing underflows; a value above the float range raises
    NumericalError.
    """
    lo, hi = sorted((transition.n_in, transition.n_out))
    r = lo / hi
    return _finite("omega_sudden", (1.0 + r * r) * (hi / transition.n_out)
                   / (2.0 * math.pi) / transition.t0)


def _finite(name: str, value: float) -> float:
    """value, or NumericalError if it overflowed to +-inf."""
    if math.isinf(value):
        raise NumericalError(f"{name} exceeds the float range")
    return value


def _log_sinhc(x: float) -> float:
    """ln(sinh(x) / x) for finite x >= 0 (0 at x = 0) as
    x + ln((1 - e^-2x) / x / 2), which neither overflows nor underflows."""
    if not math.isfinite(x):
        raise DomainError(f"sinh argument must be finite, got {x!r}")
    if x == 0.0:
        return 0.0
    return x + math.log(-math.expm1(-2.0 * x) / x * 0.5)


def beta_sq_density_log(transition: MediumTransition, omega_out: float) -> float:
    """ln of the on-shell sinh-ratio density at omega_out (per polarization).

    Returns -inf when n_in == n_out.  Computed as ln sudden_beta_sq plus
    logs of sinh(x) / x, so it holds its precision from underflowed sinh
    arguments far into the exponentially suppressed tail.
    """
    if not (omega_out > 0.0) or not math.isfinite(omega_out):
        raise DomainError(f"omega_out must be positive, got {omega_out!r}")
    n_in, n_out, t0 = transition.n_in, transition.n_out, transition.t0
    dn = transition.delta_n
    if dn == 0.0:
        return -math.inf
    mean = transition.n_sq_mean
    # On shell n_in omega_in = n_out omega_out, so the sinh arguments are
    #   numerator: pi |n_in^2 w_in - n_out^2 w_out| t0 / (2 <n^2>)
    #            = pi n_out w_out |n_in - n_out| t0 / (2 <n^2>)
    #   denominators: pi n_in n_out w_out t0 / <n^2>, pi n_out^2 w_out t0 / <n^2>
    # and arg_num^2 / (arg_in arg_out) is sudden_beta_sq, here in logs
    arg_num = math.pi * n_out * omega_out * abs(dn) * t0 / (2.0 * mean)
    arg_in = math.pi * n_in * n_out * omega_out * t0 / mean
    arg_out = math.pi * n_out * n_out * omega_out * t0 / mean
    log_sudden = 2.0 * math.log(0.5 * abs(dn)) - math.log(n_in) - math.log(n_out)
    return (log_sudden + 2.0 * _log_sinhc(arg_num) - _log_sinhc(arg_in)
            - _log_sinhc(arg_out))


def beta_sq_density(transition: MediumTransition, omega_out: float) -> float:
    """On-shell pair-creation density at omega_out (per polarization).

    Values whose log falls below UNDERFLOW_LOG are reported as exactly 0.0;
    one above the float range raises NumericalError.
    """
    log_val = beta_sq_density_log(transition, omega_out)
    if log_val < UNDERFLOW_LOG:
        return 0.0
    try:
        return math.exp(log_val)
    except OverflowError:
        raise NumericalError(f"pair density exp({log_val:.6g}) exceeds the "
                             f"float range") from None


def tail_log_slope(transition: MediumTransition) -> float:
    """Analytic large-omega slope of ln(beta_sq_density) per unit omega_out.

    From sinh x -> e^x / 2: the exponent tends to
    -2 pi n_out t0 min(n_in, n_out) / <n^2> * omega_out, taken through the
    index ratio r = min / max <= 1 as -2 pi t0 2 r (n_out / max) / (1 + r^2),
    so nothing underflows; a value beyond the float range raises
    NumericalError.
    """
    lo, hi = sorted((transition.n_in, transition.n_out))
    r = lo / hi
    share = 2.0 * r * (transition.n_out / hi) / (1.0 + r * r)
    return _finite("tail_log_slope", -2.0 * math.pi * (transition.t0 * share))


def _spectrum_root(transition: MediumTransition, radius: float) -> float:
    """sqrt(POLARIZATIONS (Dn)^2 R / (4 c n_in)), the factor that both spectra
    square last; NumericalError if the root leaves the float range."""
    return _finite("spectrum prefactor", abs(transition.delta_n) * (
        math.sqrt(radius) * math.sqrt(POLARIZATIONS * 0.25 / SPEED_OF_LIGHT)
        / math.sqrt(transition.n_in)))


def spectrum_infinite(transition: MediumTransition, geometry: BubbleGeometry,
                      omega_out: float | np.ndarray) -> float | np.ndarray:
    """dN/d omega_out (seconds) in the sudden infinite-volume limit.

    (n_out / 2c) (n_out - n_in)^2/(n_out n_in) V/(2 pi)^3 4 pi k_out^2 =
    (_spectrum_root x)^2 2 / (3 pi), x = k_out R, up to the gas-side cutoff
    K, zero above; both polarizations.  omega_out is a float or an array
    (the float call at each entry); NumericalError above the float range.
    """
    import numpy as np

    k_cut = geometry.k_gas_cutoff(transition.n_out)
    w = np.asarray(omega_out, dtype=float)
    bad = ~(w >= 0.0) | ~np.isfinite(w)
    if bad.any():
        raise DomainError(f"omega_out must be >= 0 and finite, got "
                          f"{float(w[bad][0])!r}")
    # above K, k_out may overflow and Dn = 0 give 0 * inf: np.where drops both
    with np.errstate(over="ignore", invalid="ignore"):
        k_out = transition.n_out * w / SPEED_OF_LIGHT
        amp = (_spectrum_root(transition, geometry.radius)
               * math.sqrt(2.0 / (3.0 * math.pi)) * (k_out * geometry.radius))
        vals = np.where(k_out > k_cut, 0.0, amp * amp)
    _finite("infinite-volume spectrum", float(vals.max(initial=0.0)))
    return float(vals) if vals.ndim == 0 else vals


def total_photons_closed_form(transition: MediumTransition,
                              geometry: BubbleGeometry) -> float:
    """Closed-form photon count N = (RK)^3 (Dn)^2 / (9 pi n_in n_out): the
    plain quotient of the factors' frexp mantissas, scaled once by their
    exponents, so that no product of indices leaves the float range.
    NumericalError if N does."""
    rk = geometry.radius * geometry.k_gas_cutoff(transition.n_out)
    (d, ed), (a, ea), (b, eb), (r, er) = map(math.frexp, (
        transition.delta_n, transition.n_in, transition.n_out, rk**3))
    try:
        return math.ldexp(d * d / (9.0 * math.pi * a * b) * r,
                          2 * ed - ea - eb + er)
    except OverflowError:
        raise NumericalError("photon count exceeds the float range") from None


def photons_from_count_formula(n_in: float, n_out: float, n_liquid: float,
                               k_obs_r: float) -> float:
    """The same count through the calibrated form
    N = C0 / n_liquid^3 * (n_out - n_in)^2 n_out^2 / n_in,
    C0 = (k_observed R)^3 / (9 pi); C0 ~ 119.4 for k_observed R = 15.

    Algebraically identical to total_photons_closed_form when
    K = k_observed n_out / n_liquid (regression-tested).  DomainError for
    inputs that the inverse solve refuses, NumericalError past the float range.
    """
    _check_count_inputs(("n_in", "n_out"), n_in, n_out, n_liquid, k_obs_r)
    return _finite("photon count", _count_formula(n_in, n_out, n_liquid,
                                                  k_obs_r))


def _count_formula(n_in, n_out, n_liquid, k_obs_r):
    """The count formula unchecked, elementwise in n_in and n_out."""
    c0 = k_obs_r**3 / (9.0 * math.pi)
    dn = n_out - n_in
    return c0 / n_liquid**3 * dn * dn * n_out * n_out / n_in


def totals_closed_form(transition: MediumTransition,
                       geometry: BubbleGeometry) -> EmissionSummary:
    """Closed-form totals.  E = (Dn)^2 / (16 pi^2 n_in n_out^2) hbar c K V K^3
    where that denominator is a normal float; elsewhere the exact identity
    E = N (3/4) hbar omega_max.  NumericalError above the float range."""
    n = total_photons_closed_form(transition, geometry)
    n_in, n_out, dn = transition.n_in, transition.n_out, transition.delta_n
    k, hw = geometry.k_gas_cutoff(n_out), HBAR * geometry.omega_max
    denom = 16.0 * math.pi**2 * n_in * n_out**2
    energy = (dn * dn / denom * HBAR * SPEED_OF_LIGHT * k * geometry.volume
              * k**3 if sys.float_info.min <= denom < math.inf else
              n * (0.75 * hw))
    return EmissionSummary.from_totals(n, _finite("emitted energy", energy),
                                       hw)
