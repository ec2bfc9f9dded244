"""Photon production from a sudden refractive-index change in a dielectric
bubble: closed-form infinite-volume results, the finite-volume
Bessel-mode spectrum, and the inverse two-branch index solver.

The finite-volume engine (bubble) and its Bessel tables (specfun) are
registered at import but run on first use, and they alone import numpy at
module level: the closed forms and the inverse solve run without it.
"""

__version__ = "0.1.0"

import importlib.util
import sys

from .core import (HBAR, SPEED_OF_LIGHT, BubbleGeometry, DomainError,
                   EmissionSummary, FiniteSpectrumConfig, MediumTransition,
                   NumericalError, SpectralDensity, build_geometry_from_kr)
from .homogeneous import (POLARIZATIONS, beta_sq_density, beta_sq_density_log,
                          epsilon_profile, omega_sudden,
                          photons_from_count_formula, spectrum_infinite,
                          sudden_beta_sq, tail_log_slope,
                          total_photons_closed_form, totals_closed_form)
from .inverse import BranchPair, solve_n_in, sweep_figure1


def _register_lazily(name: str):
    """The submodule name, put in sys.modules as a module that is executed
    on its first attribute access (importlib.util.LazyLoader)."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


specfun = _register_lazily("specfun")
bubble = _register_lazily("bubble")

_BUBBLE_NAMES = frozenset({"spectral_grid", "spectrum_finite",
                           "totals_finite"})


def __getattr__(name: str):
    # the engine's functions, served from bubble when first asked for
    if name in _BUBBLE_NAMES:
        return getattr(bubble, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "__version__",
    "HBAR", "SPEED_OF_LIGHT", "POLARIZATIONS",
    "BubbleGeometry", "MediumTransition", "EmissionSummary",
    "SpectralDensity", "BranchPair", "FiniteSpectrumConfig",
    "DomainError", "NumericalError",
    "build_geometry_from_kr",
    "epsilon_profile", "beta_sq_density", "beta_sq_density_log",
    "sudden_beta_sq", "omega_sudden", "tail_log_slope",
    "spectrum_infinite", "total_photons_closed_form",
    "photons_from_count_formula", "totals_closed_form",
    "spectrum_finite", "totals_finite",
    "spectral_grid", "solve_n_in", "sweep_figure1",
]
