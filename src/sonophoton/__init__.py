"""Photon production from a sudden refractive-index change in a dielectric
bubble: closed-form infinite-volume results, the finite-volume
Bessel-mode spectrum, and the inverse two-branch index solver."""

__version__ = "0.1.0"

from .bubble import (FiniteSpectrumConfig, spectral_grid, spectrum_finite,
                     totals_finite)
from .core import (HBAR, SPEED_OF_LIGHT, BubbleGeometry, DomainError,
                   EmissionSummary, MediumTransition, NumericalError,
                   SpectralDensity, build_geometry_from_kr)
from .homogeneous import (POLARIZATIONS, beta_sq_density, beta_sq_density_log,
                          epsilon_profile, omega_sudden,
                          photons_from_count_formula, spectrum_infinite,
                          sudden_beta_sq, tail_log_slope,
                          total_photons_closed_form, totals_closed_form)
from .inverse import BranchPair, solve_n_in, sweep_figure1
from .specfun import log_sinh

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
    "log_sinh",
]
