"""Reference form of the finite-volume Lommel kernel, in physical variables.

The wall Wronskian W[J_nu(a r), J_nu(b r)]_r of half-integer cylinder
functions, its removable-singularity quotient W / (a^2 - b^2) and the
per-l omega_in integrand built from it, written as in the derivation in
the sonophoton.bubble docstring.  The per-l oracle engine evaluates the
same kernel in dimensionless spherical form
(engine_oracle.lommel_kernel); the tests referee one against the other.  Like mode_oracle, this builds on the
library's Bessel table, which tests/oracles.py referees on its own.

Every function broadcasts over numpy arrays of its wavevector or
frequency arguments and returns a numpy scalar for scalar input.
"""

import math
from dataclasses import dataclass

import numpy as np

from sonophoton.core import SPEED_OF_LIGHT, DomainError
from sonophoton.specfun import sph_jn_table

# Smooth (phase-averaged) mode normalization, per side; see the
# sonophoton.bubble docstring.
A_NU_SQ_SMOOTH = 1.0 / (2.0 * SPEED_OF_LIGHT**2)


def _order_l(nu):
    l = round(nu - 0.5)
    if l < 0 or abs(nu - (l + 0.5)) > 1e-12:
        raise DomainError(f"nu must be a half-integer l + 1/2, got {nu!r}")
    return l


def _require_positive(name, val):
    val = np.asarray(val, dtype=float)
    if not np.all(val > 0.0) or not np.all(np.isfinite(val)):
        raise DomainError(f"{name} must be positive and finite, got {val!r}")
    return val


def _cylinder_table(l, x):
    """J_nu(x) and J_nu'(x), nu = l + 1/2, from one j_l table over x > 0.

    J_nu(x) = sqrt(2x/pi) j_l(x); J_nu' = J_{nu-1} - (nu/x) J_nu.
    """
    tab = sph_jn_table(l, x)
    pref = np.sqrt(2.0 * x / math.pi)
    nu = l + 0.5
    if l == 0:
        # J_{-1/2}(x) = sqrt(2/(pi x)) cos x
        jm1 = np.sqrt(2.0 / (math.pi * x)) * np.cos(x)
        return pref * tab[0], jm1 - nu / x * pref * tab[0]
    # J_{nu-1}(x) = sqrt(2x/pi) j_{l-1}(x)
    return pref * tab[l], pref * (tab[l - 1] - nu / x * tab[l])


def cylinder_j(nu, x):
    """Cylinder Bessel J_nu(x) for half-integer nu and x > 0."""
    x = _require_positive("x", x)
    return _cylinder_table(_order_l(nu), x.ravel())[0].reshape(x.shape)[()]


@dataclass(frozen=True)
class WronskianSample:
    """W[J_nu(a r), J_nu(b r)] at r, and its partial derivative in b."""

    value: float   # 1/m
    dw_db: float   # dimensionless


def cylinder_pair_at(nu, a, b, r):
    """Radial Wronskian of J_nu(a r) and J_nu(b r) evaluated at r.

    W = b J_nu(a r) J_nu'(b r) - a J_nu'(a r) J_nu(b r), with a, b in 1/m
    and r in m.  dw_db is the partial derivative in b at the same point,
    used for the removable-singularity limit of the kernel below.  One
    Bessel table serves every a and b of a call.
    """
    l = _order_l(nu)
    a = _require_positive("a", a)
    b = _require_positive("b", b)
    _require_positive("r", r)
    u = a * r
    v = b * r
    j, jp = _cylinder_table(l, np.concatenate((u.ravel(), v.ravel())))
    ju, jpu = j[:u.size].reshape(u.shape), jp[:u.size].reshape(u.shape)
    jv, jpv = j[u.size:].reshape(v.shape), jp[u.size:].reshape(v.shape)
    value = b * ju * jpv - a * jpu * jv
    # d/db [b J(ar) J'(br)] = J(ar) J'(br) + b r J(ar) J''(br);
    # J'' from the Bessel ODE: J''(z) = -J'(z)/z + (nu^2/z^2 - 1) J(z).
    nu = l + 0.5
    jppv = -jpv / v + (nu * nu / (v * v) - 1.0) * jv
    dw_db = ju * jpv + v * ju * jppv - u * jpu * jpv
    return WronskianSample(value=value[()], dw_db=dw_db[()])


# Relative half-width of the window around b = a inside which the kernel
# switches to the analytic limit; the direct quotient loses ~6 digits there.
SINGULARITY_WINDOW = 1e-6


def wronskian_kernel(nu, a, b, r):
    """W[J_nu(a r), J_nu(b r)]_r / (a^2 - b^2), continuous across b = a.

    Inside |a - b| < SINGULARITY_WINDOW * (a+b)/2 the removable
    singularity is evaluated by the analytic limit -dW/db / (2a) at the
    midpoint, which keeps the evaluation seam consistent to ~1e-9.
    Dimension: meters.
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float),
                               np.asarray(b, dtype=float))
    mid = 0.5 * (a + b)
    close = np.abs(a - b) < SINGULARITY_WINDOW * mid
    with np.errstate(divide="ignore", invalid="ignore"):
        out = cylinder_pair_at(nu, a, b, r).value / ((a - b) * (a + b))
    if np.any(close):
        limit = -cylinder_pair_at(nu, mid[close], mid[close], r).dw_db \
            / (2.0 * mid[close])
        out = np.array(out)
        out[close] = limit
    return out[()]


def finite_kernel(l, omega_in, omega_out, n_gas_in, n_gas_out, n_liquid,
                  radius):
    """The omega_in integrand for one l, per unit (2l+1) and (1/4) R^2 (Dn)^2.

    [(n_gas_out w_out^2 + n_gas_in w_in^2) / (w_out + w_in)]^2 times the
    squared Wronskian kernel and the smooth mode normalizations (see the
    sonophoton.bubble docstring); finite and continuous across the
    wavevector resonance n_gas_in w_in = n_gas_out w_out.  Dimension
    s^2/m^2, so that (1/4) R^2 (Dn)^2 * sum (2l+1) * int dw_in gives
    dN/dw_out in seconds (per polarization).  omega_in may be an array.
    """
    if l < 1:
        raise DomainError(f"finite_kernel needs l >= 1, got {l!r}")
    omega_in = _require_positive("omega_in", omega_in)
    for name, val in (("omega_out", omega_out), ("n_gas_in", n_gas_in),
                      ("n_gas_out", n_gas_out), ("n_liquid", n_liquid),
                      ("radius", radius)):
        _require_positive(name, val)
    c = SPEED_OF_LIGHT
    a = n_gas_out * omega_out / c
    b = n_gas_in * omega_in / c
    bracket = (n_gas_out * omega_out**2 + n_gas_in * omega_in**2) \
        / (omega_in + omega_out)
    wk = wronskian_kernel(l + 0.5, a, b, radius)
    return bracket**2 * (4.0 * A_NU_SQ_SMOOTH**2) * wk * wk
