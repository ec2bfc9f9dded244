import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from mpmath import mp, mpf

from sonophoton import (BubbleGeometry, DomainError, FiniteSpectrumConfig,
                        MediumTransition, NumericalError,
                        build_geometry_from_kr, spectral_grid,
                        spectrum_finite)
from sonophoton.core import HBAR, SPEED_OF_LIGHT as C
from sonophoton.homogeneous import (UNDERFLOW_LOG, beta_sq_density,
                                    beta_sq_density_log, epsilon_profile,
                                    omega_sudden, photons_from_count_formula,
                                    spectrum_infinite, sudden_beta_sq,
                                    tail_log_slope, total_photons_closed_form,
                                    totals_closed_form)

from oracles import fit_line, rel_err


def slope_fit_window(transition):
    """Frequency window where all three sinh arguments are deep in the
    exponential regime (>= 8) and omega >= 10 Omega_sudden."""
    n_in, n_out, t0 = transition.n_in, transition.n_out, transition.t0
    mean = transition.n_sq_mean
    coeffs = (math.pi * n_out * abs(n_in - n_out) * t0 / (2.0 * mean),
              math.pi * n_in * n_out * t0 / mean,
              math.pi * n_out * n_out * t0 / mean)
    lo = max([8.0 / c for c in coeffs]
             + [10.0 * omega_sudden(transition)])
    return lo, 2.0 * lo


class TestEpsilonProfile:
    def test_midpoint_exact(self):
        tr = MediumTransition(n_in=4.0, n_out=2.0)
        assert epsilon_profile(tr, 0.0) == tr.n_sq_mean

    def test_asymptotes(self):
        tr = MediumTransition(n_in=4.0, n_out=2.0)
        tau0 = 2.0 * tr.t0 / (4.0**2 + 2.0**2)
        assert rel_err(epsilon_profile(tr, -50.0 * tau0), 16.0) < 1e-12
        assert rel_err(epsilon_profile(tr, +50.0 * tau0), 4.0) < 1e-12

    def test_monotone_and_bounded(self):
        tr = MediumTransition(n_in=1.0, n_out=12.0)
        taus = np.linspace(-5, 5, 201) * 2.0 * tr.t0 / (1.0**2 + 12.0**2)
        vals = [epsilon_profile(tr, t) for t in taus]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert all(1.0 <= v <= 144.0 for v in vals)

    def test_nan_refused_and_infinities_give_asymptotes(self):
        # a finite value or a typed error: never NaN
        tr = MediumTransition(n_in=1.0, n_out=2.0)
        with pytest.raises(DomainError, match="tau must not be NaN"):
            epsilon_profile(tr, math.nan)
        assert epsilon_profile(tr, -math.inf) == 1.0
        assert epsilon_profile(tr, math.inf) == 4.0


class TestSuddenLimit:
    def test_no_change_no_photons(self):
        tr = MediumTransition(n_in=1.0, n_out=1.0)
        assert sudden_beta_sq(tr) == 0.0
        for omega in (1e12, 1e15, 1e18):
            assert beta_sq_density(tr, omega) == 0.0

    def test_reference_value(self):
        tr = MediumTransition(n_in=1.0, n_out=12.0)
        assert rel_err(sudden_beta_sq(tr), 121.0 / 48.0) < 1e-14

    def test_symmetry(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            a, b = rng.uniform(1.0, 100.0, size=2)
            fwd = sudden_beta_sq(MediumTransition(n_in=a, n_out=b))
            rev = sudden_beta_sq(MediumTransition(n_in=b, n_out=a))
            assert rel_err(fwd, rev) < 1e-14

    def test_density_reaches_sudden_value(self):
        tr = MediumTransition(n_in=1.0, n_out=12.0, t0=1e-15)
        omega = 1e-8 / tr.t0
        assert rel_err(beta_sq_density(tr, omega), 121.0 / 48.0) < 1e-6

    def test_equivalence_over_random_pairs(self):
        rng = np.random.default_rng(20260810)
        for _ in range(50):
            n_in, n_out = rng.uniform(1.0, 100.0, size=2)
            tr = MediumTransition(n_in=float(n_in), n_out=float(n_out))
            target = sudden_beta_sq(tr)
            cap = omega_sudden(tr)
            for frac in (1e-3, 1e-4):
                got = beta_sq_density(tr, frac * cap)
                assert rel_err(got, target) < 1e-4

    @pytest.mark.parametrize("tr, omega", [
        (MediumTransition(n_in=1e-10, n_out=1.0, t0=1e-15), 1e-300),
        (MediumTransition(n_in=1.0, n_out=2.0, t0=1e-15), 1e-320),
    ], ids=["denominator-underflows", "all-underflow"])
    def test_density_where_sinh_arguments_underflow(self, tr, omega):
        # sinh arguments that underflow to 0 (a denominator's, or all three)
        # leave the density at its sudden value, not inf or 0.0
        assert rel_err(beta_sq_density(tr, omega), sudden_beta_sq(tr)) <= 1e-12

    def test_density_beyond_float_range_refused(self):
        tr = MediumTransition(n_in=1e-320, n_out=1.0)
        with pytest.raises(NumericalError, match="float range"):
            beta_sq_density(tr, 1e10)
        # omega_out t0 itself overflows
        tr = MediumTransition(n_in=1.0, n_out=2.0, t0=1e300)
        with pytest.raises(DomainError, match="must be finite"):
            beta_sq_density(tr, 1e300)


def test_density_log_against_mpmath():
    # ln(sinh^2 a / (sinh b sinh c)) at 60 digits from the same double
    # inputs; its error scales with the terms that cancel in it
    rng = np.random.default_rng(1998)
    for _ in range(600):
        n_in, n_out = 10.0 ** rng.uniform(-3.0, 4.0, 2)
        tr = MediumTransition(n_in=float(n_in), n_out=float(n_out),
                              t0=float(10.0 ** rng.uniform(-18.0, -12.0)))
        omega = float(10.0 ** rng.uniform(-300.0, 19.0))
        with mp.workdps(60):
            n_i, n_o, t0, w = (mpf(v) for v in (n_in, n_out, tr.t0, omega))
            mean = (n_i**2 + n_o**2) / 2
            a = mp.pi * n_o * w * abs(n_i - n_o) * t0 / (2 * mean)
            b = mp.pi * n_i * n_o * w * t0 / mean
            c = mp.pi * n_o**2 * w * t0 / mean
            want = (2 * mp.log(mp.sinh(a)) - mp.log(mp.sinh(b))
                    - mp.log(mp.sinh(c)))
            scale = (1 + 2 * a + b + c + abs(mp.log(n_i)) + abs(mp.log(n_o))
                     + 2 * abs(mp.log(abs(n_i - n_o))))
            err = abs(beta_sq_density_log(tr, omega) - want)
            assert err <= 1e-15 * scale, (n_in, n_out, tr.t0, omega)


class TestOmegaSudden:
    def test_reference_values(self):
        tr = MediumTransition(n_in=2e4, n_out=1.0, t0=1e-15)
        assert rel_err(omega_sudden(tr), 3.183098869795654e18) < 1e-12
        tr = MediumTransition(n_in=1.0, n_out=12.0, t0=1e-15)
        assert rel_err(omega_sudden(tr), 1.6026018575225572e14) < 1e-12

    def test_equal_indices_reduce(self):
        for n in (1.0, 3.0, 17.0):
            tr = MediumTransition(n_in=n, n_out=n, t0=2e-15)
            assert rel_err(omega_sudden(tr),
                           1.0 / (math.pi * tr.t0)) < 1e-14


class TestDensityTail:
    def test_underflow_flag(self):
        tr = MediumTransition(n_in=1.0, n_out=12.0, t0=1e-15)
        assert beta_sq_density_log(tr, 1e19) < UNDERFLOW_LOG
        assert beta_sq_density(tr, 1e19) == 0.0
        assert beta_sq_density_log(tr, 1e14) >= UNDERFLOW_LOG
        assert beta_sq_density(tr, 1e14) > 0.0

    def test_monotone_decrease_moderate_ratios(self):
        # the quadratic prefactor delays monotonicity for extreme index
        # ratios; for max/min <= 5 it holds from 10 Omega_sudden on
        rng = np.random.default_rng(11)
        for _ in range(10):
            n_in = float(rng.uniform(1.0, 20.0))
            n_out = float(rng.uniform(max(1.0, n_in / 5.0), min(100.0, n_in * 5.0)))
            tr = MediumTransition(n_in=n_in, n_out=n_out, t0=1e-15)
            start = 10.0 * omega_sudden(tr)
            grid = np.linspace(start, 3.0 * start, 50)
            logs = [beta_sq_density_log(tr, w) for w in grid]
            assert all(b < a for a, b in zip(logs, logs[1:])), (n_in, n_out)

    def test_log_slope_matches_analytic_rate(self):
        for n_in, n_out in ((1.0, 12.0), (9.0, 25.0), (71.0, 25.0), (2.0, 3.0)):
            tr = MediumTransition(n_in=n_in, n_out=n_out, t0=1e-15)
            lo, hi = slope_fit_window(tr)
            grid = np.linspace(lo, hi, 40)
            logs = [beta_sq_density_log(tr, w) for w in grid]
            slope, _ = fit_line(list(grid), logs)
            assert rel_err(slope, tail_log_slope(tr)) < 0.02, (n_in, n_out)

    def test_slope_per_unit_k_in_reference_window(self):
        # fit over k c t0 in [50, 100]: d ln / dk = -2 pi c t0 min / <n^2>
        c = 2.99792458e8
        tr = MediumTransition(n_in=1.0, n_out=12.0, t0=1e-15)
        ks = np.linspace(50.0, 100.0, 30) / (c * tr.t0)
        omegas = ks * c / tr.n_out
        logs = [beta_sq_density_log(tr, w) for w in omegas]
        slope, _ = fit_line(list(ks), logs)
        want = -2.0 * math.pi * c * tr.t0 * 1.0 / tr.n_sq_mean
        assert rel_err(slope, want) < 0.01

    def test_rejects_bad_frequency(self):
        tr = MediumTransition(n_in=1.0, n_out=2.0)
        with pytest.raises(DomainError):
            beta_sq_density(tr, 0.0)
        with pytest.raises(DomainError):
            beta_sq_density(tr, -1.0)


def test_bogolubov_normalization_guard():
    # |alpha|^2 is defined through the bosonic identity; assert the tautology
    # (to the float ulp that the subtraction reintroduces)
    tr = MediumTransition(n_in=3.0, n_out=7.0, t0=1e-15)
    for omega in (1e13, 1e14, 5e14):
        beta_sq = beta_sq_density(tr, omega)
        alpha_sq = 1.0 + beta_sq
        assert abs((alpha_sq - beta_sq) - 1.0) <= 4.0 * 2.220446049250313e-16


class TestSpectrumInfinite:
    def setup_method(self):
        self.tr = MediumTransition(n_in=2e4, n_out=1.0)
        self.geom = BubbleGeometry(500e-9, 1.3, 200e-9)

    def test_cutoff(self):
        just_above = self.geom.omega_max * (1.0 + 1e-9)
        assert spectrum_infinite(self.tr, self.geom, just_above) == 0.0

    def test_quadratic_law(self):
        w = 0.2 * self.geom.omega_max
        ratio = spectrum_infinite(self.tr, self.geom, 2.0 * w) \
            / spectrum_infinite(self.tr, self.geom, w)
        assert rel_err(ratio, 4.0) < 1e-12

    def test_trapezoid_matches_closed_form(self):
        grid = np.linspace(0.0, self.geom.omega_max, 2001)
        vals = [spectrum_infinite(self.tr, self.geom, w) for w in grid]
        n_trap = np.trapezoid(vals, grid)
        n_closed = total_photons_closed_form(self.tr, self.geom)
        assert rel_err(n_trap, n_closed) < 1e-3

    def test_integrals_match_closed_forms_random(self):
        # photon number and energy from quadrature vs the closed forms
        rng = np.random.default_rng(424242)
        hbar = 1.054571817e-34
        for _ in range(20):
            n_in, n_out = (float(v) for v in rng.uniform(1.0, 60.0, size=2))
            if abs(n_in - n_out) < 0.05:
                continue
            tr = MediumTransition(n_in=n_in, n_out=n_out)
            geom = build_geometry_from_kr(float(rng.uniform(5.0, 30.0)),
                                          float(rng.uniform(1.0, 1.8)))
            grid = np.linspace(0.0, geom.omega_max, 4001)
            vals = np.array([spectrum_infinite(tr, geom, w) for w in grid])
            summary = totals_closed_form(tr, geom)
            assert rel_err(np.trapezoid(vals, grid),
                           summary.photon_count) < 1e-3
            assert rel_err(np.trapezoid(hbar * grid * vals, grid),
                           summary.total_energy) < 1e-3

    def test_index_swap_scaling(self):
        # the count depends on (n_in - n_out)^2; swapping the indices only
        # remaps the cutoff, scaling N by (n_out/n_in)^3 in the count form
        rng = np.random.default_rng(31415)
        for _ in range(20):
            n_in, n_out = (float(v) for v in rng.uniform(1.0, 50.0, size=2))
            fwd = photons_from_count_formula(n_in, n_out, 1.3, 15.0)
            rev = photons_from_count_formula(n_out, n_in, 1.3, 15.0)
            if fwd == 0.0:
                continue
            assert rel_err(rev / fwd, (n_in / n_out)**3) < 1e-10

    def test_array_form_matches_float_calls(self):
        # a grid that straddles the cutoff, with the origin and the cutoff
        # itself: bit for bit the float calls, 0.0 above the cutoff
        w_max = self.geom.omega_max
        grid = np.concatenate(([0.0, w_max], np.linspace(0.01, 1.3, 261)
                               * w_max))
        vals = spectrum_infinite(self.tr, self.geom, grid)
        assert isinstance(vals, np.ndarray) and vals.shape == grid.shape
        want = [spectrum_infinite(self.tr, self.geom, w)
                for w in grid.tolist()]
        assert vals.tolist() == want
        above = (self.tr.n_out * grid / C
                 > self.geom.k_gas_cutoff(self.tr.n_out))
        assert above.any() and (~above).any()
        assert np.all(vals[above] == 0.0) and np.all(vals[~above][1:] > 0.0)
        assert type(spectrum_infinite(self.tr, self.geom, 0.3 * w_max)) \
            is float

    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf, -math.inf])
    def test_array_form_rejects_bad_entry(self, bad):
        grid = np.linspace(0.1, 1.2, 7) * self.geom.omega_max
        grid[3] = bad
        with pytest.raises(DomainError):
            spectrum_infinite(self.tr, self.geom, grid)

    def test_rejects_negative_frequency(self):
        with pytest.raises(DomainError):
            spectrum_infinite(self.tr, self.geom, -1.0)


class TestClosedFormTotals:
    def test_two_count_forms_agree(self):
        # (RK)^3/(9 pi n_in n_out) form vs the calibrated-count form, on
        # one geometry whose gas-side cutoff follows each transition's n_out
        geom = build_geometry_from_kr(15.0, 1.3)
        cfg = FiniteSpectrumConfig(grid_points=10)
        for n_in, n_out in ((2e4, 1.0), (71.0, 25.0), (1.0, 12.0), (3.3, 7.7)):
            tr = MediumTransition(n_in=n_in, n_out=n_out)
            _, x = spectral_grid(tr, geom, cfg)
            assert rel_err(x[cfg.grid_points - 1], 15.0 * n_out / 1.3) < 1e-12
            a = total_photons_closed_form(tr, geom)
            b = photons_from_count_formula(n_in, n_out, 1.3, 15.0)
            assert rel_err(a, b) < 1e-12

    def test_reference_counts(self):
        cases = {(2e4, 1.0): 1086520.4460319083,
                 (71.0, 25.0): 1012019.009143542,
                 (68.0, 34.0): 1067721.7597776265,
                 (9.0, 25.0): 965892.5388675183,
                 (1.0, 12.0): 946671.2773440547}
        for (n_in, n_out), want in cases.items():
            got = photons_from_count_formula(n_in, n_out, 1.3, 15.0)
            assert rel_err(got, want) < 1e-12

    def test_mean_over_cutoff_is_three_quarters(self):
        rng = np.random.default_rng(99)
        for _ in range(100):
            n_in, n_out = rng.uniform(1.0, 100.0, size=2)
            if abs(n_in - n_out) < 1e-3:
                continue
            tr = MediumTransition(n_in=float(n_in), n_out=float(n_out))
            geom = build_geometry_from_kr(float(rng.uniform(5.0, 40.0)),
                                          float(rng.uniform(1.0, 1.8)),
                                          radius=float(rng.uniform(0.2, 2.0)) * 1e-6)
            summary = totals_closed_form(tr, geom)
            assert rel_err(summary.mean_over_cutoff, 0.75) < 1e-12

    @pytest.mark.parametrize("args, name", [
        ((1.0, 2.0, 1.3, 1e103), "k_obs_r"),
        ((1.0, 2.0, 1e-110, 15.0), "n_liquid"),
        ((0.0, 2.0, 1.3, 15.0), "n_in"),
        ((1e200, 0.0, 1.0, 1e100), "n_out"),
        ((-1.0, 2.0, 1.3, 15.0), "n_in"),
        ((1.0, 2.0, 1.3, -15.0), "k_obs_r")])
    def test_count_formula_refuses_what_the_inverse_refuses(self, args, name):
        # unchecked, the formula raises OverflowError (k_obs_r^3) or
        # ZeroDivisionError, or gives nan or a negative count, on these
        with pytest.raises(DomainError, match=f"^{name} must be"):
            photons_from_count_formula(*args)

    def test_count_formula_above_the_float_range_is_numerical(self):
        # dn^2 n_out^2 / n_in ~ 1e400
        with pytest.raises(NumericalError, match="float range"):
            photons_from_count_formula(1e-10, 1e100, 1.3, 15.0)

    def test_no_change_zero_totals(self):
        tr = MediumTransition(n_in=5.0, n_out=5.0)
        geom = build_geometry_from_kr(15.0, 1.3)
        summary = totals_closed_form(tr, geom)
        assert summary.photon_count == 0.0
        assert summary.total_energy == 0.0
        assert summary.mean_energy == 0.0

    def test_mean_energy_electron_volts(self):
        tr = MediumTransition(n_in=1.0, n_out=12.0)
        geom = BubbleGeometry(500e-9, 1.3, 200e-9)
        summary = totals_closed_form(tr, geom)
        ev = summary.mean_energy / 1.602176634e-19
        assert rel_err(ev, 3.576467260304791) < 1e-12
        assert 3.0 < ev < 4.0  # "a few eV"


def exact_closed_forms(tr, geom):
    """N = (RK)^3 (Dn)^2 / (9 pi n_in n_out) and E = N (3/4) hbar omega_max
    at the exact values of the floats the closed forms read, with pi to 40
    digits."""
    rk = Fraction(geom.radius) * Fraction(geom.k_gas_cutoff(tr.n_out))
    count = (rk**3 * Fraction(tr.delta_n)**2
             / (9 * Fraction(tr.n_in) * Fraction(tr.n_out)))
    energy = count * 3 * Fraction(HBAR) * Fraction(geom.omega_max) / 4
    with mp.workdps(40):
        return tuple(float(mpf(q.numerator) / q.denominator / mp.pi)
                     for q in (count, energy))


def check_closed_forms(n_in, n_out, k_obs_r):
    """The closed forms at these indices against exact_closed_forms, where
    the count is a normal float: the totals to 1e-15, mean_over_cutoff 3/4,
    and the spectrum below the cutoff, 3 N omega^2 / omega_max^3."""
    tr = MediumTransition(n_in=n_in, n_out=n_out)
    geom = build_geometry_from_kr(k_obs_r, 1.3)
    count, energy = exact_closed_forms(tr, geom)
    assert sys.float_info.min < count < sys.float_info.max
    summary = totals_closed_form(tr, geom)
    assert rel_err(total_photons_closed_form(tr, geom), count) < 1e-15
    assert rel_err(summary.photon_count, count) < 1e-15
    assert rel_err(summary.total_energy, energy) < 1e-15
    assert rel_err(summary.mean_over_cutoff, 0.75) < 1e-15
    w_max = geom.omega_max
    assert rel_err(spectrum_infinite(tr, geom, 0.5 * w_max),
                   0.75 * count / w_max) < 1e-12


class TestExtremeIndices:
    def test_squares_that_underflow_are_refused(self):
        with pytest.raises(DomainError, match="not a normal float"):
            MediumTransition(n_in=1e-170, n_out=2e-170)

    @pytest.mark.parametrize("n_in, n_out", [(1e200, 1.0), (1.0, 1e200)])
    def test_squares_that_overflow_are_refused(self, n_in, n_out):
        with pytest.raises(DomainError, match="not a normal float"):
            MediumTransition(n_in=n_in, n_out=n_out)

    def test_sudden_value_of_near_equal_tiny_indices(self):
        # (Dn)^2 and n_in n_out both underflow here; their ratio does not
        n_in = 1e-150
        n_out = n_in * (1.0 + 1e-14)
        tr = MediumTransition(n_in=n_in, n_out=n_out)
        a, b = Fraction(n_in), Fraction(n_out)
        want = float((a - b)**2 / (4 * a * b))
        assert want > 2e-29
        assert rel_err(sudden_beta_sq(tr), want) < 1e-15
        assert rel_err(beta_sq_density(tr, 1.0), want) < 1e-12

    def test_public_functions_give_a_finite_value_or_a_typed_error(self):
        # indices at both ends of the accepted range, transition times from
        # the smallest float to the largest
        geom = build_geometry_from_kr(15.0, 1.3)
        calls = (sudden_beta_sq, omega_sudden, tail_log_slope,
                 lambda tr: beta_sq_density(tr, 1e10),
                 lambda tr: epsilon_profile(tr, 1e-15),
                 lambda tr: spectrum_infinite(tr, geom, 0.5 * geom.omega_max),
                 lambda tr: totals_closed_form(tr, geom).total_energy)
        ends = (5e-324, 1.5e-154, 1.0, 9.4e153)
        for n_in in ends:
            for n_out in ends:
                for t0 in (5e-324, 1e-15, 1.7e308):
                    try:
                        tr = MediumTransition(n_in=n_in, n_out=n_out, t0=t0)
                    except DomainError:
                        assert n_in < 1.5e-154 and n_out < 1.5e-154
                        continue
                    for call in calls:
                        try:
                            assert math.isfinite(call(tr))
                        except (DomainError, NumericalError):
                            pass

    @pytest.mark.parametrize("n_in, n_out, k_obs_r", [
        (1e-200, 1e-150, 1e60), (1e-60, 1e-160, 1e60),
        (1e-100, 1e-150, 1e60), (1e-320, 1e-5, 15.0),
        (1e-300, 1e-20, 1e10), (1e-310, 1e-4, 15.0)],
        ids=["index-product", "energy-denominator", "spectrum-factor",
             "subnormal-denominator", "subnormal-energy-denominator",
             "subnormal-index"])
    def test_closed_forms_where_the_index_product_underflows(
            self, n_in, n_out, k_obs_r):
        # n_in n_out, n_in n_out^2 or (Dn)^2 n_out / (2c) underflows to 0
        # or to a subnormal float of a few bits, though the totals and the
        # spectrum are normal floats
        check_closed_forms(n_in, n_out, k_obs_r)

    @pytest.mark.parametrize("n_in, n_out", [(9.4e153, 9e153),
                                             (9e153, 9.4e153)])
    def test_closed_forms_where_the_index_product_overflows(self, n_in,
                                                            n_out):
        # 9 pi n_in n_out and 16 pi^2 n_in n_out^2 overflow; a count taken
        # through them would be 0
        check_closed_forms(n_in, n_out, 1e-80)

    def test_equal_indices_whose_product_overflows_give_zero(self):
        # Dn = 0 where 9 pi n_in n_out overflows: no branch makes it 0
        tr = MediumTransition(n_in=9e153, n_out=9e153)
        summary = totals_closed_form(tr, build_geometry_from_kr(1e-80, 1.3))
        assert summary.photon_count == summary.total_energy == 0.0

    def test_closed_forms_whose_index_ratio_overflows(self):
        # (Dn)^2 / (n_in n_out) ~ 1e310 leaves the float range, but the
        # totals, N ~ 5.4e281, do not; nor does the spectrum at omega_out =
        # 1 rad/s, POLARIZATIONS (Dn)^2 R / (4 c n_in) 2 (n_out R / c)^2
        # / (3 pi) ~ 4.9e234
        check_closed_forms(1e-320, 1e-10, 15.0)
        tr = MediumTransition(n_in=1e-320, n_out=1e-10)
        geom = build_geometry_from_kr(15.0, 1.3)
        n_in, n_out = Fraction(tr.n_in), Fraction(tr.n_out)
        r, c = Fraction(geom.radius), Fraction(C)
        x = n_out / c * r
        # Fraction(math.pi) errs by ~4e-17 relative
        want = (2 * (n_in - n_out)**2 * r / (4 * c * n_in) * 2 * x * x
                / (3 * Fraction(math.pi)))
        assert rel_err(spectrum_infinite(tr, geom, 1.0), float(want)) < 2e-15

    def test_count_above_the_float_range_is_a_numerical_error(self):
        # N ~ 1e338; E = (3/4) N hbar omega_max is a float, but the count
        # is not
        tr = MediumTransition(n_in=1e-300, n_out=1e60)
        geom = build_geometry_from_kr(1e-30, 1.3)
        for call in (total_photons_closed_form, totals_closed_form):
            with pytest.raises(NumericalError, match="photon count"):
                call(tr, geom)

    def test_spectra_whose_value_or_factor_leaves_the_range(self):
        # x = K R / 2: the value ~1e323 is above the float range; at
        # n_in 5e-324 and n_out 9e153 the square root of the spectra's
        # common factor, ~4e362, already is
        geom = build_geometry_from_kr(1e-50, 1.3)
        tr = MediumTransition(n_in=1.0, n_out=1e110)
        with pytest.raises(NumericalError, match="infinite-volume spectrum"):
            spectrum_infinite(tr, geom, 0.5 * geom.omega_max)
        tr = MediumTransition(n_in=5e-324, n_out=9e153)
        geom = BubbleGeometry(5e102, 1.3, 1e291)
        cfg = FiniteSpectrumConfig(grid_points=2, grid_extend=1.0)
        for call in (lambda: spectrum_infinite(tr, geom, 0.5 * geom.omega_max),
                     lambda: spectrum_finite(tr, geom, cfg)):
            with pytest.raises(NumericalError, match="spectrum prefactor"):
                call()

    def test_finite_spectrum_scales_with_the_radius(self):
        # (Dn)^2 R ~ 1e310 overflows at R = 1e10 m; the spectrum, linear in
        # R at fixed K R, is 2e16 times the one at 500 nm
        tr = MediumTransition(n_in=1e150, n_out=1.0)
        cfg = FiniteSpectrumConfig(grid_points=6)
        small = spectrum_finite(tr, build_geometry_from_kr(3.0, 1.3), cfg)
        large = spectrum_finite(tr, build_geometry_from_kr(3.0, 1.3, 1e10),
                                cfg)
        assert np.all(np.abs(large.values / (2e16 * small.values) - 1.0)
                      < 1e-13)
