import copy
import math
import pickle
import re

import numpy as np
import pytest

from sonophoton.core import (ELECTRON_VOLT, HBAR, SPEED_OF_LIGHT,
                             BubbleGeometry, DomainError, EmissionSummary,
                             FiniteSpectrumConfig, MediumTransition,
                             SpectralDensity, build_geometry_from_kr,
                             joule_to_ev, nm_to_m)
from sonophoton.inverse import BranchPair


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
        assert math.isclose(geom.k_observed * geom.radius, 5.0 * math.pi,
                            rel_tol=1e-14)
        assert 15.7 < geom.k_observed * geom.radius < 15.72
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
        assert math.isclose(geom.k_observed * geom.radius, 15.0, rel_tol=1e-14)
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

    def test_overflow_names_the_quantity_that_overflows(self):
        # K overflows at a K R of ~1.15: K names itself, not K R's inf
        geom = BubbleGeometry(1e-309, 1.3, 2 * math.pi * 1e-309 / 1.0)
        assert 2 * math.pi * geom.radius / geom.lambda_obs == 1.0
        with pytest.raises(DomainError, match=r"^K \(1/m\) .* got inf$"):
            geom.k_gas_cutoff(1.5)
        # lambda_obs = 2 pi R / k_obs_r leaves the float range either way;
        # the refusal names the k_obs_r given, not a lambda_obs of inf or 0
        for k_obs_r, radius in ((1e-320, 500e-9), (1e300, 1e-309)):
            want = "^" + re.escape(f"k_obs_r {k_obs_r!r} at radius")
            with pytest.raises(DomainError, match=want):
                build_geometry_from_kr(k_obs_r, 1.3, radius)

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
        x = (0.5, 1.0)
        with pytest.raises(DomainError):
            SpectralDensity(grid=(0.0, 0.0), values=(1.0, 1.0),
                            dimensionless_x=x)
        with pytest.raises(DomainError):
            SpectralDensity(grid=(0.0, 1.0), values=(1.0,), dimensionless_x=x)
        with pytest.raises(DomainError):
            SpectralDensity(grid=(0.0, 1.0), values=(1.0, -1.0),
                            dimensionless_x=x)
        with pytest.raises(DomainError):
            SpectralDensity(grid=(0.0, 1.0), values=(1.0, 1.0),
                            dimensionless_x=(0.0,))
        # tuples are stored as float arrays
        density = SpectralDensity(grid=(1, 2), values=(0.0, 3.0),
                                  dimensionless_x=x)
        for field in (density.grid, density.values, density.dimensionless_x):
            assert isinstance(field, np.ndarray) and field.dtype == np.float64
        assert density.grid.tolist() == [1.0, 2.0]

    def test_rejects_non_finite(self):
        x = (0.5, 1.0)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                SpectralDensity(grid=(0.0, 1.0), values=(1.0, bad),
                                dimensionless_x=x)
            with pytest.raises(DomainError):
                SpectralDensity(grid=(0.0, bad), values=(1.0, 1.0),
                                dimensionless_x=x)
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

    def test_refuses_fields_that_are_not_1d(self):
        pair, square = np.array([1.0, 2.0]), np.ones((2, 2))
        with pytest.raises(DomainError, match="grid must be 1-D"):
            SpectralDensity(1.0, 1.0, 1.0)
        with pytest.raises(DomainError, match="grid must be 1-D"):
            SpectralDensity(square, square, square)
        with pytest.raises(DomainError, match="values must be 1-D"):
            SpectralDensity(pair, square, pair)
        with pytest.raises(DomainError, match="dimensionless_x must be 1-D"):
            SpectralDensity(pair, pair, dimensionless_x=square)


class TestFiniteSpectrumConfig:
    def test_refuses_non_integer_grid_points(self):
        # 200.5 would build a 262-point grid ending past grid_extend * K R,
        # and inf an OverflowError in spectral_grid
        for bad in (200.5, 200.0, math.inf, math.nan, "200", None):
            with pytest.raises(DomainError, match="grid_points"):
                FiniteSpectrumConfig(grid_points=bad)

    def test_accepts_numpy_integers(self):
        for points in (np.int64(200), np.int32(3), np.uint16(2)):
            assert FiniteSpectrumConfig(grid_points=points).grid_points == points


# The six domain records: (class, field names, positional arguments for the
# required fields, the defaults of the others, arguments that differ in one
# field, repr of the record built from the positional arguments).
RECORDS = [
    (MediumTransition, ("n_in", "n_out", "t0"), (2.0, 1.5), (1e-15,),
     (2.0, 1.25), "MediumTransition(n_in=2.0, n_out=1.5, t0=1e-15)"),
    (BubbleGeometry, ("radius", "n_liquid", "lambda_obs"),
     (5e-07, 1.3, 2e-07), (), (5e-07, 1.4, 2e-07),
     "BubbleGeometry(radius=5e-07, n_liquid=1.3, lambda_obs=2e-07)"),
    (EmissionSummary,
     ("photon_count", "total_energy", "mean_energy", "mean_over_cutoff"),
     (4.0, 8.0, 2.0, 0.5), (), (4.0, 8.0, 2.0, 0.25),
     "EmissionSummary(photon_count=4.0, total_energy=8.0, mean_energy=2.0, "
     "mean_over_cutoff=0.5)"),
    (SpectralDensity, ("grid", "values", "dimensionless_x"),
     ((1.0, 2.0), (0.0, 3.0), (0.5, 1.0)), (),
     ((1.0, 2.0), (0.0, 3.0), (0.5, 1.0)),
     "SpectralDensity(grid=array([1., 2.]), values=array([0., 3.]), "
     "dimensionless_x=array([0.5, 1. ]))"),
    (FiniteSpectrumConfig, ("quad_rel_tol", "grid_points", "grid_extend"),
     (), (1e-06, 200, 1.3), (1e-06, 201),
     "FiniteSpectrumConfig(quad_rel_tol=1e-06, grid_points=200, "
     "grid_extend=1.3)"),
    (BranchPair, ("n_in_low", "n_in_high"), (1.0, 4.0), (), (1.0, 5.0),
     "BranchPair(n_in_low=1.0, n_in_high=4.0)"),
]
RECORD_IDS = [case[0].__name__ for case in RECORDS]


def _field_values(record, names):
    return [getattr(record, name) for name in names]


def _same_fields(a, b, names):
    """a and b hold equal values in every field; arrays compare by value."""
    return all(np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y
               for x, y in zip(_field_values(a, names), _field_values(b, names)))


@pytest.mark.parametrize("cls, names, args, defaults, other, text", RECORDS,
                         ids=RECORD_IDS)
class TestRecords:
    def test_positional_and_keyword_construction(self, cls, names, args,
                                                 defaults, other, text):
        by_position = cls(*args)
        by_keyword = cls(**dict(zip(names, args)))
        every_field = cls(*args, *defaults)
        want = [*args, *defaults]
        for record in (by_position, by_keyword, every_field):
            for got, value in zip(_field_values(record, names), want):
                if isinstance(got, np.ndarray):
                    assert got.tolist() == list(value)
                else:
                    assert got == value and type(got) is type(value)

    def test_missing_or_unknown_argument(self, cls, names, args, defaults,
                                         other, text):
        if args:
            with pytest.raises(TypeError):
                cls(*args[:-1])
        with pytest.raises(TypeError):
            cls(*args, unknown=1.0)
        every = (*args, *defaults)
        with pytest.raises(TypeError):
            cls(*every, 1.0)
        with pytest.raises(TypeError):  # the first field twice
            cls(*every, **{names[0]: every[0]})

    def test_immutable(self, cls, names, args, defaults, other, text):
        record = cls(*args)
        for name in (*names, "unknown"):
            with pytest.raises(AttributeError):
                setattr(record, name, 1.0)
        for name in names:
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert _same_fields(record, cls(*args), names)

    def test_equality_and_hash(self, cls, names, args, defaults, other, text):
        a, b, c = cls(*args), cls(*args), cls(*other)
        assert a == a and hash(a) == hash(a)
        assert a != c
        assert a != tuple(_field_values(a, names))
        if cls is SpectralDensity:
            # arrays compare by identity
            assert a != b and hash(a) == object.__hash__(a)
        else:
            assert a == b and hash(a) == hash(b)
            assert {a, b, c} == {a, c}

    def test_repr(self, cls, names, args, defaults, other, text):
        assert repr(cls(*args)) == text

    def test_pickle_and_deepcopy(self, cls, names, args, defaults, other,
                                 text):
        record = cls(*args)
        for twin in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record),
                     copy.copy(record)):
            assert type(twin) is cls
            assert _same_fields(twin, record, names)
            assert repr(twin) == text
            if cls is not SpectralDensity:
                assert twin == record and hash(twin) == hash(record)
