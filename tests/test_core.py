import math

import numpy as np
import pytest

from sonophoton.core import (ELECTRON_VOLT, HBAR, SPEED_OF_LIGHT,
                             BubbleGeometry, DomainError, EmissionSummary,
                             MediumTransition, SpectralDensity,
                             build_geometry_from_kr, joule_to_ev, nm_to_m)


def test_physical_constants_values():
    c, hbar = SPEED_OF_LIGHT, HBAR
    assert c == 2.99792458e8
    assert hbar == 1.054571817e-34


def test_cutoff_energy_in_ev():
    # hbar * c * 2pi / (200 nm * 1.3) ~ 4.77 eV; the often-quoted rough
    # figure is "about 4 eV" -- the computed value is what we assert.
    c, hbar = SPEED_OF_LIGHT, HBAR
    omega_max = c * (2.0 * math.pi / 200e-9) / 1.3
    ev = hbar * omega_max / ELECTRON_VOLT
    assert abs(ev - 4.768623013739722) < 1e-12
    assert 4.0 < ev < 5.0


def test_unit_round_trips():
    for x in (1.0, 3.7e-5, 8.2e11):
        assert abs(nm_to_m(x) * 1e9 - x) <= 1e-12 * x
        assert abs(joule_to_ev(x) * ELECTRON_VOLT - x) <= 1e-12 * x


class TestMediumTransition:
    def test_derived_fields(self):
        tr = MediumTransition(n_in=3.0, n_out=2.0, t0=2e-15)
        assert tr.n_sq_mean == 0.5 * (9.0 + 4.0)

    def test_validation_names_field(self):
        with pytest.raises(DomainError, match="n_in"):
            MediumTransition(n_in=0.0, n_out=1.0)
        with pytest.raises(DomainError, match="n_out"):
            MediumTransition(n_in=1.0, n_out=-2.0)
        with pytest.raises(DomainError, match="t0"):
            MediumTransition(n_in=1.0, n_out=2.0, t0=0.0)


class TestBubbleGeometry:
    def test_standard_geometry(self):
        geom = BubbleGeometry(500e-9, 1.3, 200e-9)
        assert math.isclose(geom.k_obs_r, 5.0 * math.pi, rel_tol=1e-14)
        assert 15.7 < geom.k_obs_r < 15.72
        assert math.isclose(geom.k_gas_cutoff(1.0) * geom.radius,
                            5.0 * math.pi / 1.3, rel_tol=1e-14)
        assert 12.0 < geom.k_gas_cutoff(1.0) * geom.radius < 12.1

    def test_vacuum_liquid_limits(self):
        geom = BubbleGeometry(500e-9, 1.0, 200e-9)
        assert geom.k_gas_cutoff(1.0) == geom.k_observed

    def test_gas_side_cutoff_scaling(self):
        geom = BubbleGeometry(500e-9, 1.3, 200e-9)
        want = 12.0 / 1.3 * 2.0 * math.pi / 200e-9
        assert math.isclose(geom.k_gas_cutoff(12.0), want, rel_tol=1e-14)

    def test_invariants(self):
        geom = BubbleGeometry(430e-9, 1.4, 310e-9)
        assert math.isclose(geom.k_observed * geom.lambda_obs, 2.0 * math.pi,
                            rel_tol=1e-14)
        assert math.isclose(geom.volume, 4.0 / 3.0 * math.pi * geom.radius**3,
                            rel_tol=1e-15)
        assert math.isclose(geom.omega_max,
                            SPEED_OF_LIGHT * geom.k_observed / geom.n_liquid,
                            rel_tol=1e-15)

    def test_from_kr(self):
        geom = build_geometry_from_kr(15.0, 1.3)
        assert math.isclose(geom.k_obs_r, 15.0, rel_tol=1e-14)
        assert math.isclose(geom.k_gas_cutoff(25.0) * geom.radius,
                            15.0 * 25.0 / 1.3, rel_tol=1e-14)

    def test_cutoff_refuses_cubes_that_overflow(self):
        # K R and K are cubed by the closed forms; the gas index sets both
        geom = build_geometry_from_kr(1e120, 1.3)
        with pytest.raises(DomainError, match="^K R must be at most"):
            geom.k_gas_cutoff(12.0)
        geom = BubbleGeometry(1e-109, 1.3, 1e-109)
        with pytest.raises(DomainError, match=r"^K \(1/m\) must be at most"):
            geom.k_gas_cutoff(1.0)
        with pytest.raises(DomainError, match="n_out"):
            geom.k_gas_cutoff(0.0)

    def test_validation_names_field(self):
        with pytest.raises(DomainError, match="radius"):
            BubbleGeometry(0.0, 1.3, 200e-9)
        with pytest.raises(DomainError, match="lambda_obs"):
            BubbleGeometry(500e-9, 1.3, -1.0)
        with pytest.raises(DomainError, match="n_liquid"):
            BubbleGeometry(500e-9, 0.9, 200e-9)


class TestEmissionSummary:
    def test_mean_energy(self):
        s = EmissionSummary.from_totals(4.0, 8.0, 4.0)
        assert s.mean_energy == 2.0
        assert s.mean_over_cutoff == 0.5

    def test_zero_count(self):
        s = EmissionSummary.from_totals(0.0, 0.0, 1.0)
        assert s.mean_energy == 0.0

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            EmissionSummary(photon_count=-1.0, total_energy=0.0,
                            mean_energy=0.0, mean_over_cutoff=0.0)

    def test_rejects_non_finite(self):
        for bad in (math.nan, math.inf):
            for field in range(4):
                values = [1.0, 1.0, 1.0, 1.0]
                values[field] = bad
                with pytest.raises(DomainError):
                    EmissionSummary(*values)


class TestSpectralDensity:
    def test_validation(self):
        with pytest.raises(DomainError):
            SpectralDensity(grid=(0.0, 0.0), values=(1.0, 1.0))
        with pytest.raises(DomainError):
            SpectralDensity(grid=(0.0, 1.0), values=(1.0,))
        with pytest.raises(DomainError):
            SpectralDensity(grid=(0.0, 1.0), values=(1.0, -1.0))
        with pytest.raises(DomainError):
            SpectralDensity(grid=(0.0, 1.0), values=(1.0, 1.0),
                            dimensionless_x=(0.0,))
        # tuples are stored as float arrays
        density = SpectralDensity(grid=(1, 2), values=(0.0, 3.0),
                                  dimensionless_x=(0.5, 1.0))
        for field in (density.grid, density.values, density.dimensionless_x):
            assert isinstance(field, np.ndarray) and field.dtype == np.float64
        assert density.grid.tolist() == [1.0, 2.0]

    def test_rejects_non_finite(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                SpectralDensity(grid=(0.0, 1.0), values=(1.0, bad))
            with pytest.raises(DomainError):
                SpectralDensity(grid=(0.0, bad), values=(1.0, 1.0))
            with pytest.raises(DomainError):
                SpectralDensity(grid=(0.0, 1.0), values=(1.0, 1.0),
                                dimensionless_x=(0.0, bad))

    def test_array_dimensionless_x(self):
        # accepted like an array grid and values, and checked the same way
        x = np.array([0.5, 1.0])
        density = SpectralDensity(grid=x, values=x, dimensionless_x=x)
        assert density.dimensionless_x is x
        with pytest.raises(DomainError):
            SpectralDensity(grid=x, values=x,
                            dimensionless_x=np.array([0.5, math.nan]))
