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

Conventions: the factor 2 for the photon polarizations enters exactly
once, at spectrum level (spectrum_infinite and the closed-form totals);
beta_sq_density and sudden_beta_sq are per polarization.
"""

from __future__ import annotations

import math

from .core import (HBAR, SPEED_OF_LIGHT, BubbleGeometry, DomainError,
                   EmissionSummary, MediumTransition)
from .specfun import log_sinh

# Photon polarization multiplicity, applied at spectrum level only.
POLARIZATIONS = 2.0

# Log-density below which the sinh ratio is reported as underflowed zero.
UNDERFLOW_LOG = -700.0


def epsilon_profile(transition: MediumTransition, tau: float) -> float:
    """Permittivity profile in pseudo-time tau (seconds).

    (n_in^2 + n_out^2)/2 + (n_out^2 - n_in^2)/2 * tanh(tau / tau0);
    runs monotonically from n_in^2 to n_out^2.
    """
    half_diff = 0.5 * (transition.n_out**2 - transition.n_in**2)
    return transition.n_sq_mean + half_diff * math.tanh(tau / transition.tau0)


def sudden_beta_sq(transition: MediumTransition) -> float:
    """Sudden-limit pair density per polarization: (Dn)^2 / (4 n_in n_out)."""
    dn = transition.delta_n
    return 0.25 * dn * dn / (transition.n_in * transition.n_out)


def omega_sudden(transition: MediumTransition) -> float:
    """Frequency up to which the sudden approximation holds, rad/s.

    Omega = (n_in^2 + n_out^2) / (2 pi t0 n_out max(n_in, n_out)); the
    index dependence can push this far above 1/t0.
    """
    n_in, n_out = transition.n_in, transition.n_out
    return (n_in**2 + n_out**2) / (
        2.0 * math.pi * transition.t0 * n_out * max(n_in, n_out))


def beta_sq_density_log(transition: MediumTransition, omega_out: float) -> float:
    """ln of the on-shell sinh-ratio density at omega_out (per polarization).

    Returns -inf when n_in == n_out.  Computed via log_sinh so it stays
    finite-precision far into the exponentially suppressed tail.
    """
    if not (omega_out > 0.0) or not math.isfinite(omega_out):
        raise DomainError(f"omega_out must be positive, got {omega_out!r}")
    n_in, n_out, t0 = transition.n_in, transition.n_out, transition.t0
    mean = transition.n_sq_mean
    # On shell n_in omega_in = n_out omega_out, so the sinh arguments are
    #   numerator: pi |n_in^2 w_in - n_out^2 w_out| t0 / (2 <n^2>)
    #            = pi n_out w_out |n_in - n_out| t0 / (2 <n^2>)
    #   denominators: pi n_in n_out w_out t0 / <n^2>, pi n_out^2 w_out t0 / <n^2>
    arg_num = math.pi * n_out * omega_out * abs(n_in - n_out) * t0 / (2.0 * mean)
    arg_in = math.pi * n_in * n_out * omega_out * t0 / mean
    arg_out = math.pi * n_out * n_out * omega_out * t0 / mean
    if arg_num == 0.0:
        return -math.inf
    return 2.0 * log_sinh(arg_num) - log_sinh(arg_in) - log_sinh(arg_out)


def beta_sq_density(transition: MediumTransition, omega_out: float) -> float:
    """On-shell pair-creation density at omega_out (per polarization).

    Values whose log falls below UNDERFLOW_LOG are reported as exactly 0.0.
    """
    log_val = beta_sq_density_log(transition, omega_out)
    if log_val < UNDERFLOW_LOG:
        return 0.0
    return math.exp(log_val)


def tail_log_slope(transition: MediumTransition) -> float:
    """Analytic large-omega slope of ln(beta_sq_density) per unit omega_out.

    From sinh x -> e^x / 2: the exponent tends to
    -2 pi n_out t0 min(n_in, n_out) / <n^2> * omega_out.
    """
    n_in, n_out = transition.n_in, transition.n_out
    return -2.0 * math.pi * n_out * transition.t0 * min(n_in, n_out) / \
        transition.n_sq_mean


def _check_consistent(transition: MediumTransition,
                      geometry: BubbleGeometry) -> None:
    if not math.isclose(transition.n_out, geometry.n_out,
                        rel_tol=1e-12, abs_tol=0.0):
        raise DomainError(
            "geometry was built with n_out=%r but transition has n_out=%r"
            % (geometry.n_out, transition.n_out))


def spectrum_infinite(transition: MediumTransition, geometry: BubbleGeometry,
                      omega_out: float) -> float:
    """dN/d omega_out (seconds) in the sudden infinite-volume limit.

    (n_out / 2c) (n_out - n_in)^2/(n_out n_in) V/(2 pi)^3 4 pi k_out^2
    below the gas-side cutoff K, zero above; both polarizations included.
    Exactly quadratic in omega_out below the cutoff.
    """
    _check_consistent(transition, geometry)
    if omega_out < 0.0 or not math.isfinite(omega_out):
        raise DomainError(f"omega_out must be >= 0, got {omega_out!r}")
    c = SPEED_OF_LIGHT
    k_out = transition.n_out * omega_out / c
    if k_out > geometry.k_gas_cutoff:
        return 0.0
    dn = transition.delta_n
    return (transition.n_out / (2.0 * c)
            * dn * dn / (transition.n_out * transition.n_in)
            * geometry.volume / (2.0 * math.pi)**3
            * 4.0 * math.pi * k_out * k_out)


def total_photons_closed_form(transition: MediumTransition,
                              geometry: BubbleGeometry) -> float:
    """Closed-form photon count N = (RK)^3 (Dn)^2 / (9 pi n_in n_out)."""
    _check_consistent(transition, geometry)
    dn = transition.delta_n
    rk = geometry.radius * geometry.k_gas_cutoff
    return dn * dn / (9.0 * math.pi * transition.n_in * transition.n_out) * rk**3


def photons_from_count_formula(n_in: float, n_out: float, n_liquid: float,
                               k_obs_r: float) -> float:
    """The same count through the calibrated form
    N = C0 / n_liquid^3 * (n_out - n_in)^2 n_out^2 / n_in,
    C0 = (k_observed R)^3 / (9 pi); C0 ~ 119.4 for k_observed R = 15.

    Algebraically identical to total_photons_closed_form when
    K = k_observed n_out / n_liquid (regression-tested).
    """
    c0 = k_obs_r**3 / (9.0 * math.pi)
    dn = n_out - n_in
    return c0 / n_liquid**3 * dn * dn * n_out * n_out / n_in


def totals_closed_form(transition: MediumTransition,
                       geometry: BubbleGeometry) -> EmissionSummary:
    """Closed-form totals; the identity E = (3/4) N hbar omega_max is exact."""
    _check_consistent(transition, geometry)
    n = total_photons_closed_form(transition, geometry)
    dn = transition.delta_n
    k = geometry.k_gas_cutoff
    energy = (dn * dn / (16.0 * math.pi**2 * transition.n_in * transition.n_out**2)
              * HBAR * SPEED_OF_LIGHT * k * geometry.volume * k**3)
    return EmissionSummary.from_totals(n, energy, HBAR * geometry.omega_max)
