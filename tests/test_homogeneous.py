import math

import numpy as np
import pytest

from sonophoton import (BubbleGeometry, DomainError, MediumTransition,
                        build_geometry_from_kr)
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
        assert rel_err(epsilon_profile(tr, -50.0 * tr.tau0), 16.0) < 1e-12
        assert rel_err(epsilon_profile(tr, +50.0 * tr.tau0), 4.0) < 1e-12

    def test_monotone_and_bounded(self):
        tr = MediumTransition(n_in=1.0, n_out=12.0)
        taus = np.linspace(-5, 5, 201) * tr.tau0
        vals = [epsilon_profile(tr, t) for t in taus]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert all(1.0 <= v <= 144.0 for v in vals)


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
        self.geom = BubbleGeometry(500e-9, 1.3, 200e-9, 1.0)

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
                                          float(rng.uniform(1.0, 1.8)), n_out)
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

    def test_rejects_negative_frequency(self):
        with pytest.raises(DomainError):
            spectrum_infinite(self.tr, self.geom, -1.0)

    def test_rejects_mismatched_geometry(self):
        geom = BubbleGeometry(500e-9, 1.3, 200e-9, 2.0)
        with pytest.raises(DomainError):
            spectrum_infinite(self.tr, geom, 1e15)


class TestClosedFormTotals:
    def test_two_count_forms_agree(self):
        # (RK)^3/(9 pi n_in n_out) form vs the calibrated-count form
        for n_in, n_out in ((2e4, 1.0), (71.0, 25.0), (1.0, 12.0), (3.3, 7.7)):
            tr = MediumTransition(n_in=n_in, n_out=n_out)
            geom = build_geometry_from_kr(15.0, 1.3, n_out)
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
                                          float(n_out),
                                          radius=float(rng.uniform(0.2, 2.0)) * 1e-6)
            summary = totals_closed_form(tr, geom)
            assert rel_err(summary.mean_over_cutoff, 0.75) < 1e-12

    def test_no_change_zero_totals(self):
        tr = MediumTransition(n_in=5.0, n_out=5.0)
        geom = build_geometry_from_kr(15.0, 1.3, 5.0)
        summary = totals_closed_form(tr, geom)
        assert summary.photon_count == 0.0
        assert summary.total_energy == 0.0
        assert summary.mean_energy == 0.0

    def test_mean_energy_electron_volts(self):
        tr = MediumTransition(n_in=1.0, n_out=12.0)
        geom = BubbleGeometry(500e-9, 1.3, 200e-9, 12.0)
        summary = totals_closed_form(tr, geom)
        ev = summary.mean_energy / 1.602176634e-19
        assert rel_err(ev, 3.576467260304791) < 1e-12
        assert 3.0 < ev < 4.0  # "a few eV"
