"""Shared domain types, physical constants, unit conversions and the
finite-volume engine's settings.

Everything internal is SI: meters, seconds, joules, rad/s.  Display
units (nm, eV) are converted only at the command-line boundary, so the
formulas that mix hbar, c, K and R never see mixed units.
"""

from __future__ import annotations

import math
import sys
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

# CODATA: c and hbar (J s).  c is exact by definition.
SPEED_OF_LIGHT = 2.99792458e8
HBAR = 1.054571817e-34
# Electron-volt in joules (exact since the 2019 SI redefinition).
ELECTRON_VOLT = 1.602176634e-19


class DomainError(ValueError):
    """An argument is outside the mathematical domain of an operation."""


class NumericalError(RuntimeError):
    """A numerical procedure failed to converge or lost all precision."""


# unit helpers -------------------------------------------------------------

def nm_to_m(x: float) -> float:
    return x * 1e-9


def joule_to_ev(x: float) -> float:
    return x / ELECTRON_VOLT


def _require_positive(name: str, value: float) -> None:
    if not (value > 0.0) or not math.isfinite(value):
        raise DomainError(f"{name} must be positive and finite, got {value!r}")


# Python's float ** raises OverflowError past the cube root of the largest
# float, 5.64e102, so every cubed input is refused above this.
_CUBE_MAX = 5.6e102


def _require_finite_cubes(*named: tuple[str, float]) -> None:
    for name, value in named:
        if value > _CUBE_MAX:
            raise DomainError(f"{name} must be at most {_CUBE_MAX!r} so that "
                              f"its cube is finite, got {value!r}")


def check_n_liquid(n_liquid: float) -> None:
    """DomainError unless the ambient liquid index is finite and >= 1."""
    if not (n_liquid >= 1.0) or not math.isfinite(n_liquid):
        raise DomainError(f"n_liquid must be >= 1 and finite, got {n_liquid!r}")


# domain types --------------------------------------------------------------
_set = object.__setattr__  # the one way past _Record.__setattr__


class _Record:
    """Base of the immutable domain records, whose fields are their
    __slots__.  Each record's own __init__ checks its arguments and stores
    them with _set.  Equality and hash go by class and fields, repr by
    fields, and pickle and copy rebuild a record through its __init__."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        return (self._fields() == other._fields()
                if other.__class__ is self.__class__ else NotImplemented)

    def __hash__(self) -> int:
        return hash(self._fields())

    def __reduce__(self):
        return type(self), self._fields()


class MediumTransition(_Record):
    """Refractive indices of the gas before/after the change and its timescale.

    n_in, n_out are the dimensionless indices before and after; t0 is the
    physical timescale of the change in seconds.  The mean squared index
    is derived on access so it can never go stale.  n_in^2 + n_out^2 must
    be a normal float.
    """

    __slots__ = ("n_in", "n_out", "t0")

    def __init__(self, n_in: float, n_out: float, t0: float = 1e-15) -> None:
        _require_positive("n_in", n_in)
        _require_positive("n_out", n_out)
        _require_positive("t0", t0)
        # the tanh profile sums the squared indices; below the smallest
        # normal float that sum has lost digits or underflowed to 0 (and
        # n * n, unlike n**2, overflows to inf rather than raising)
        sum_sq = n_in * n_in + n_out * n_out
        if not sys.float_info.min <= sum_sq < math.inf:
            raise DomainError(
                f"n_in^2 + n_out^2 = {sum_sq!r} is not a normal float: the "
                f"indices must not both lie below 1.5e-154, nor either above "
                f"9.4e153")
        _set(self, "n_in", n_in)
        _set(self, "n_out", n_out)
        _set(self, "t0", t0)

    @property
    def n_sq_mean(self) -> float:
        """(n_in^2 + n_out^2)/2."""
        return 0.5 * (self.n_in**2 + self.n_out**2)

    @property
    def delta_n(self) -> float:
        return self.n_in - self.n_out


class BubbleGeometry(_Record):
    """Bubble radius, ambient liquid index and the observed cutoff.

    The sharp high-frequency cutoff is specified as a wavelength
    lambda_obs observed *in the liquid*; k_observed = 2 pi / lambda_obs.
    The gas-side cutoff wavevector appearing in the step function
    Theta(K - k) belongs to the gas after the change, so it is the method
    k_gas_cutoff(n_out) = k_observed * n_out / n_liquid: the unique
    convention under which the closed-form photon count and its
    "(k_observed R)^3 / (9 pi n_liquid^3)" rewriting coincide.
    """

    __slots__ = ("radius", "n_liquid", "lambda_obs")

    def __init__(self, radius: float, n_liquid: float,
                 lambda_obs: float) -> None:
        _require_positive("radius", radius)
        _require_positive("lambda_obs", lambda_obs)
        check_n_liquid(n_liquid)
        _require_finite_cubes(("radius (m)", radius))  # closed forms cube
        _set(self, "radius", radius)
        _set(self, "n_liquid", n_liquid)
        _set(self, "lambda_obs", lambda_obs)

    @property
    def k_observed(self) -> float:
        """Cutoff wavevector in the liquid, 1/m."""
        return 2.0 * math.pi / self.lambda_obs

    @property
    def omega_max(self) -> float:
        """Cutoff angular frequency, rad/s (same on both sides of the wall)."""
        return SPEED_OF_LIGHT * self.k_observed / self.n_liquid

    def k_gas_cutoff(self, n_out: float) -> float:
        """Gas-side cutoff wavevector K = k_observed n_out / n_liquid, 1/m;
        DomainError unless n_out > 0 and K R and K have finite cubes."""
        _require_positive("n_out", n_out)
        k = self.k_observed * n_out / self.n_liquid
        _require_finite_cubes(("K R", k * self.radius), ("K (1/m)", k))
        return k

    @property
    def volume(self) -> float:
        return 4.0 / 3.0 * math.pi * self.radius**3

    @property
    def k_obs_r(self) -> float:
        """Diagnostic: k_observed * radius (dimensionless)."""
        return self.k_observed * self.radius


def build_geometry_from_kr(k_obs_r: float, n_liquid: float,
                           radius: float = 500e-9) -> BubbleGeometry:
    """Construct a geometry with a prescribed dimensionless k_observed * R.

    Useful when the cutoff is calibrated as a pure number (e.g. 15)
    rather than as a physical wavelength; lambda_obs is back-computed.
    """
    _require_positive("k_obs_r", k_obs_r)  # BubbleGeometry checks radius
    return BubbleGeometry(radius=radius, n_liquid=n_liquid,
                          lambda_obs=2.0 * math.pi * radius / k_obs_r)


class EmissionSummary(_Record):
    """Total photon number, emitted energy and mean photon energy.

    photon_count is an expectation value of a mode-density integral and
    therefore a real number, not an integer.  mean_over_cutoff is
    <E> / (hbar omega_max), dimensionless.
    """

    __slots__ = ("photon_count", "total_energy", "mean_energy",
                 "mean_over_cutoff")

    def __init__(self, photon_count: float, total_energy: float,
                 mean_energy: float, mean_over_cutoff: float) -> None:
        if not all(math.isfinite(v) for v in (
                photon_count, total_energy, mean_energy, mean_over_cutoff)):
            raise DomainError("emission totals must be finite")
        if photon_count < 0.0 or total_energy < 0.0:
            raise DomainError("photon_count and total_energy must be >= 0")
        _set(self, "photon_count", photon_count)
        _set(self, "total_energy", total_energy)
        _set(self, "mean_energy", mean_energy)
        _set(self, "mean_over_cutoff", mean_over_cutoff)

    @classmethod
    def from_totals(cls, photon_count: float, total_energy: float,
                    hbar_omega_max: float) -> "EmissionSummary":
        mean = total_energy / photon_count if photon_count > 0.0 else 0.0
        ratio = mean / hbar_omega_max if hbar_omega_max > 0.0 else 0.0
        return cls(photon_count=photon_count, total_energy=total_energy,
                   mean_energy=mean, mean_over_cutoff=ratio)


class SpectralDensity(_Record):
    """Sampled dN/d omega_out curve, held as 1-D float arrays.

    grid is strictly increasing in rad/s; values are in seconds (photons
    per unit angular frequency); dimensionless_x, when present, is
    x = k_out * R for each grid point.  Fields are stored as float arrays
    (a float array passed in is kept, not copied) and compare by identity.
    """

    __slots__ = ("grid", "values", "dimensionless_x")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, grid: np.ndarray, values: np.ndarray,
                 dimensionless_x: np.ndarray | None = None) -> None:
        import numpy as np

        for name, field in zip(self.__slots__, (grid, values, dimensionless_x)):
            if field is not None:
                if (field := np.asarray(field, dtype=float)).ndim != 1:
                    raise DomainError(f"{name} must be 1-D, got {field.ndim}-D")
            _set(self, name, field)
        grid, values, x = self.grid, self.values, self.dimensionless_x
        if len(grid) != len(values):
            raise DomainError("grid and values must have equal length")
        if not (np.isfinite(grid).all() and np.isfinite(values).all()
                and (x is None or np.isfinite(x).all())):
            raise DomainError("grid, values and dimensionless_x must be finite")
        if (grid[1:] <= grid[:-1]).any():
            raise DomainError("grid must be strictly increasing")
        if (values < 0.0).any():
            raise DomainError("spectral values must be >= 0")
        if x is not None and len(x) != len(grid):
            raise DomainError("dimensionless_x length mismatch")


# finite-volume engine settings ----------------------------------------------
# Kept here, not in bubble, so that the command-line parser and the sweep
# check read them without loading the engine and numpy.

# The lowest quad_rel_tol a FiniteSpectrumConfig accepts.  The headline
# spectrum converges down to 1e-15 and the five table1 cases down to
# 3e-15; at 2e-15 the 68/34 case fails at x_out ~394, where the two
# orders' difference is at the roundoff of the sums it compares (README
# numerical notes).
_MIN_REL_TOL = 1e-13
# bubble.spectrum_finite refuses a problem whose engine arrays
# (bubble._engine_bytes) would need more bytes than _MAX_ENGINE_BYTES, or
# whose first pass would sum more than _MAX_NODE_PAIRS (node, point) pairs;
# and check_grid_points an output grid (a spectrum's or a sweep's) whose
# points would need more than _MAX_ENGINE_BYTES (at _POINT_BYTES each).
_MAX_ENGINE_BYTES = 1 << 30
_MAX_NODE_PAIRS = 1 << 30
# Upper estimate of the bytes a caller holds per output grid point: the
# grid and value columns and one CSV row (~390 B measured for
# `spectrum --model infinite`, ~370 B for `sweep`).
_POINT_BYTES = 512


class FiniteSpectrumConfig(_Record):
    """Controls for the finite-volume spectrum evaluation.

    The angular sum is exact (summed in closed form), so there is no l
    truncation to set.  quad_rel_tol is the omega_in quadrature's relative
    tolerance, at least _MIN_REL_TOL.  grid_points sets the number of
    samples up to the cutoff (an integer); the grid continues at the same
    spacing to grid_extend * cutoff so the smeared roll-off is part of it.
    """

    __slots__ = ("quad_rel_tol", "grid_points", "grid_extend")

    def __init__(self, quad_rel_tol: float = 1e-6, grid_points: int = 200,
                 grid_extend: float = 1.3) -> None:
        if not (_MIN_REL_TOL <= quad_rel_tol < 1.0):
            raise DomainError(
                f"quad_rel_tol must lie in [{_MIN_REL_TOL:g}, 1), got "
                f"{quad_rel_tol!r}: below {_MIN_REL_TOL:g} the omega_in "
                f"quadrature's error estimate nears roundoff")
        np = sys.modules.get("numpy")  # a numpy integer needs numpy loaded
        if (not isinstance(grid_points, (int, np.integer) if np else int)
                or grid_points < 2):
            raise DomainError(
                f"grid_points must be an integer >= 2, got {grid_points!r}")
        if not (1.0 <= grid_extend <= 4.0):
            raise DomainError("grid_extend must lie in [1, 4]")
        _set(self, "quad_rel_tol", quad_rel_tol)
        _set(self, "grid_points", grid_points)
        _set(self, "grid_extend", grid_extend)


def check_grid_points(n_points: int, knob: str) -> None:
    """Refuse with DomainError an output grid whose points would need more
    than _MAX_ENGINE_BYTES at _POINT_BYTES each; knob names the setting
    to lower.  Callers check before they allocate the grid."""
    if n_points * _POINT_BYTES > _MAX_ENGINE_BYTES:
        raise DomainError(
            f"output grid too large: {n_points} points need "
            f"~{n_points * _POINT_BYTES / 2**30:.3g} GiB, above the "
            f"{_MAX_ENGINE_BYTES / 2**30:g} GiB limit; lower {knob}")
