import functools
import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from mpmath import mp, mpf

from sonophoton import (BubbleGeometry, DomainError, MediumTransition,
                        NumericalError, build_geometry_from_kr, bubble,
                        core)
from sonophoton.bubble import (_ESTIMATE_ORDER, _LEVELS, _VALUE_ORDER,
                               FiniteSpectrumConfig,
                               _engine_bytes, _gauss_nodes, _grid_size,
                               _panel_edges, _panel_total, spectral_grid,
                               spectrum_finite, totals_finite)
from sonophoton.cli import TABLE1_CASES
from sonophoton.core import SPEED_OF_LIGHT as C, nm_to_m
from sonophoton.homogeneous import (POLARIZATIONS, spectrum_infinite,
                                    total_photons_closed_form,
                                    totals_closed_form)
from sonophoton.specfun import sph_jn_table

import engine_oracle
from engine_oracle import _DIAGONAL_WIDTH, lommel_kernel
from kernel_oracle import A_NU_SQ_SMOOTH, finite_kernel
from mode_oracle import (R500, match_modes, mode_profile, normalization_slope,
                         omega_for)
from oracles import (oracle_j_mp, oracle_j_table_mp, rel_err, sph_yn_table,
                     trapz)


class TestMatchModes:
    def test_free_case(self):
        mm = match_modes(2, omega_for(8.0, 1.3), 1.3, 1.3, R500)
        assert abs(mm.amp_regular - 1.0) < 1e-12
        assert abs(mm.amp_irregular) < 1e-12
        assert rel_err(mm.a_nu_sq, A_NU_SQ_SMOOTH) < 1e-12

    def test_junction_residuals_exact_algebra(self):
        # directly verify B j_l + C y_l and its derivative against the
        # interior values at the wall, using the analytic derivative
        rng = np.random.default_rng(2718)
        for _ in range(25):
            l = int(rng.integers(1, 9))
            n_inside = float(rng.uniform(0.8, 6.0))
            n_outside = float(rng.uniform(1.0, 1.8))
            omega = omega_for(float(rng.uniform(2.0, 18.0)), n_inside)
            mm = match_modes(l, omega, n_inside, n_outside, R500)
            k1 = n_inside * omega / C
            k2 = n_outside * omega / C
            x1, x2 = k1 * R500, k2 * R500
            jt1 = sph_jn_table(l, np.array([x1]))
            f = jt1[l, 0]
            fp = k1 * (jt1[l - 1, 0] - (l + 1) / x1 * jt1[l, 0])
            jt2 = sph_jn_table(l, np.array([x2]))
            yt2 = sph_yn_table(l, np.array([x2]))
            g = mm.amp_regular * jt2[l, 0] + mm.amp_irregular * yt2[l, 0]
            gp = k2 * (mm.amp_regular * (jt2[l - 1, 0] - (l + 1) / x2 * jt2[l, 0])
                       + mm.amp_irregular * (yt2[l - 1, 0] - (l + 1) / x2 * yt2[l, 0]))
            assert rel_err(g, f) < 1e-10
            assert rel_err(gp, fp) < 1e-10

    def test_rejects_l_zero(self):
        with pytest.raises(DomainError):
            match_modes(0, 1e15, 1.0, 1.3, R500)

    def test_delta_normalization_oracle(self):
        # numerically integrate the normalized mode against the
        # eps-weighted measure; the cumulative integral of a
        # delta-normalized mode grows with slope n_outside/(pi c)
        cases = [(1, 6.0, 1.5, 1.3), (2, 9.0, 2.0, 1.3), (1, 5.0, 1.0, 1.3),
                 (3, 12.0, 4.0, 1.3), (2, 7.0, 1.2, 1.0)]
        for l, x1, n_inside, n_outside in cases:
            omega = omega_for(x1, n_inside)
            mm = match_modes(l, omega, n_inside, n_outside, R500)
            slope, want = normalization_slope(mm)
            assert rel_err(slope, want) < 0.01, (l, x1, n_inside, n_outside)

    def test_orthogonality_of_distinct_frequencies(self):
        l, n_inside, n_outside = 2, 2.0, 1.3
        m1 = match_modes(l, omega_for(8.0, n_inside), n_inside, n_outside, R500)
        m2 = match_modes(l, omega_for(11.0, n_inside), n_inside, n_outside, R500)
        span = 50.0
        k_max = max(m1.omega, m2.omega) * max(n_inside, n_outside) / C
        n_pts = int(k_max * span * R500 / (2.0 * math.pi) * 60) + 500
        r = np.linspace(1e-4 * R500, span * R500, n_pts)
        eps = np.where(r <= R500, n_inside**2, n_outside**2)
        n1 = math.sqrt(m1.a_nu_sq * 2.0 * n_inside * m1.omega / C / math.pi)
        n2 = math.sqrt(m2.a_nu_sq * 2.0 * n_inside * m2.omega / C / math.pi)
        f1 = n1 * mode_profile(m1, R500, r)
        f2 = n2 * mode_profile(m2, R500, r)
        cross = (m1.omega + m2.omega) * eps * f1 * f2 * r * r
        cumulative = np.concatenate(
            ([0.0], np.cumsum(0.5 * np.diff(r) * (cross[1:] + cross[:-1]))))
        window = r > 0.6 * span * R500
        cross_mean = float(np.mean(cumulative[window]))
        self_scale = m1.n_outside / (math.pi * C) * span * R500
        assert abs(cross_mean) < 0.05 * self_scale


class TestFiniteKernel:
    def test_positive_everywhere(self):
        rng = np.random.default_rng(1234)
        for _ in range(40):
            l = int(rng.integers(1, 10))
            w_out = float(rng.uniform(0.2, 2.0)) * 1e15
            w_in = float(rng.uniform(0.2, 2.0)) * 1e15
            val = finite_kernel(l, w_in, w_out, 2.0, 1.5, 1.3, R500)
            assert val >= 0.0

    def test_continuity_across_resonance(self):
        n_gas_in, n_gas_out = 2.0, 1.5
        for l in (1, 3, 7):
            w_out = omega_for(6.0, n_gas_out)
            w_res = n_gas_out * w_out / n_gas_in
            lo = finite_kernel(l, w_res * (1 - 1e-7), w_out,
                               n_gas_in, n_gas_out, 1.3, R500)
            hi = finite_kernel(l, w_res * (1 + 1e-7), w_out,
                               n_gas_in, n_gas_out, 1.3, R500)
            assert rel_err(lo, hi) < 1e-5, l

    def test_equal_indices_stay_finite(self):
        val = finite_kernel(2, 8e14, 9e14, 3.0, 3.0, 1.3, R500)
        assert math.isfinite(val) and val > 0.0

    def test_matches_spectrum_engine(self):
        # brute-force the l-sum to l_max and the omega_in integral from
        # the scalar kernel and compare against the vectorized spectrum
        # path, which sums every l (at K R 5 the terms above l = 10 are
        # far below the 5e-3 tolerance)
        n_in, n_out, n_liq = 2.0, 1.5, 1.3
        tr = MediumTransition(n_in=n_in, n_out=n_out)
        geom = build_geometry_from_kr(5.0, n_liq)
        l_max = 10
        cfg = FiniteSpectrumConfig(grid_points=12, grid_extend=1.0,
                                   quad_rel_tol=1e-8)
        dens = spectrum_finite(tr, geom, cfg)
        k_cut = geom.k_gas_cutoff(n_out)
        w_in_hi = C * k_cut / n_in
        w_in = np.linspace(1e-6 * w_in_hi, w_in_hi, 1500)
        for idx in (3, 9):
            w_out = dens.grid[idx]
            total = 0.0
            for l in range(1, l_max + 1):
                vals = finite_kernel(l, w_in, w_out, n_in, n_out, n_liq, R500)
                total += (2 * l + 1) * np.trapezoid(vals, w_in)
            direct = (POLARIZATIONS * 0.25 * geom.radius**2
                      * (n_in - n_out)**2 * total)
            assert rel_err(direct, dens.values[idx]) < 5e-3, idx


def lommel(u, v, lmax):
    """The oracle's lambda_l(u, v), l = 1..lmax, at one u and an array v."""
    v = np.asarray(v, dtype=float)
    ju = sph_jn_table(lmax, np.array([u]))
    return lommel_kernel(u, v, ju, sph_jn_table(lmax, v))


def lommel_mp(lmax, u, v):
    """lambda_l(u, v), l = 1..lmax, from the arbitrary-precision j_l
    tables."""
    ju, jv = oracle_j_table_mp(lmax, u), oracle_j_table_mp(lmax, v)
    with mp.workdps(60):
        um, vm = mpf(u), mpf(v)
        scale = 2 * mp.sqrt(um * vm) / mp.pi / ((um - vm) * (um + vm))
        return np.array([float(scale * (vm * ju[l] * jv[l - 1]
                                        - um * ju[l - 1] * jv[l]))
                         for l in range(1, lmax + 1)])


@pytest.mark.parametrize("lmax, x", [(3, 0.1), (5, 6.0), (149, 150.0),
                                     (391, 392.000001)])
def test_mp_table_matches_series_oracle(lmax, x):
    # the recurrence table behind lommel_mp against the power series
    top = oracle_j_table_mp(lmax, x)[lmax]
    with mp.workdps(60):
        want = oracle_j_mp(lmax, x, 40 + int(x) + lmax)
        assert abs(top - want) <= mpf(10)**-40 * abs(want)


class TestLommelKernel:
    def test_continuity_across_diagonal_switch(self):
        # the kernel switches to the geometric mean of its diagonals at
        # |u^2 - v^2| = w max(u^2, 1e3).  Probes just inside and just
        # outside it, and deep inside it, must all match the exact
        # quotient (evaluated in arbitrary precision) on every row: the
        # direct quotient loses digits as |u^2 - v^2| shrinks and the
        # diagonal mean as it grows, and the switch sits where both stay
        # small.  The rows are every l < u, the oscillatory regime where
        # the spectrum integrand lives (l = 1..3 at the small argument
        # u = 0.1)
        steps = np.array([-1.01, -0.99, -1e-3, 1e-3, 0.99, 1.01])
        for u in (0.1, 6.0, 12.0, 40.0, 150.0, 392.0):
            lmax = max(3, math.ceil(u) - 1)
            width = _DIAGONAL_WIDTH * max(u * u, 1e3)
            vs = np.sqrt(u * u + width * steps)
            lam = lommel(u, vs, lmax)
            for col, v in enumerate(vs):
                want = lommel_mp(lmax, u, float(v))
                assert np.all(np.abs(lam[:, col] - want)
                              <= 5e-9 * np.abs(want)), (u, v)
            crossing = lommel(u, u * (1.0 + np.linspace(-5e-9, 5e-9, 101)),
                              lmax)
            assert np.all(np.isfinite(crossing))

    def test_one_u_per_column_matches_scalar_form(self):
        # one u per column of v must give what the scalar-u kernel gives,
        # column by column, on both sides of the diagonal switch and on it
        lmax = 40
        offsets = 0.5 * _DIAGONAL_WIDTH * np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
        us, vs = [], []
        for u in (0.7, 6.0, 12.0, 39.5):
            for v in np.concatenate((u * (1.0 + offsets), [0.3, 2.5, 41.0])):
                us.append(u)
                vs.append(v)
        us, vs = np.array(us), np.array(vs)
        batched = lommel_kernel(us, vs, sph_jn_table(lmax, us),
                                sph_jn_table(lmax, vs))
        for i, (u, v) in enumerate(zip(us, vs)):
            assert np.array_equal(batched[:, i], lommel(u, [v], lmax)[:, 0]), i

    def test_symmetric_in_u_and_v(self):
        rng = np.random.default_rng(31)
        lmax = 30
        for u in rng.uniform(0.5, 40.0, size=8):
            vs = rng.uniform(0.5, 40.0, size=6)
            forward = lommel(float(u), vs, lmax)
            for i, v in enumerate(vs):
                back = lommel(float(v), [u], lmax)[:, 0]
                scale = np.max(np.abs(forward[:, i]))
                assert np.all(np.abs(forward[:, i] - back) <= 1e-10 * scale)


@pytest.mark.parametrize("order", [12, 16, 24])
def test_gauss_nodes_match_leggauss(order):
    from numpy.polynomial.legendre import leggauss

    nodes, weights = _gauss_nodes(order)
    want_nodes, want_weights = leggauss(order)
    assert np.max(np.abs(nodes - want_nodes)) <= 2e-15
    assert np.max(np.abs(weights - want_weights)) <= 2e-15


class TestSpectrumFinite:
    def setup_method(self):
        self.n_liq = 1.3
        self.tr = MediumTransition(n_in=2.0, n_out=1.5)
        self.geom = build_geometry_from_kr(6.0, self.n_liq)

    def test_no_change_gives_zero(self):
        tr = MediumTransition(n_in=2.0, n_out=2.0)
        geom = build_geometry_from_kr(6.0, self.n_liq)
        cfg = FiniteSpectrumConfig(grid_points=20)
        dens = spectrum_finite(tr, geom, cfg)
        assert all(v == 0.0 for v in dens.values)

    def test_positivity_and_x_column(self):
        cfg = FiniteSpectrumConfig(grid_points=40)
        dens = spectrum_finite(self.tr, self.geom, cfg)
        assert all(v >= 0.0 for v in dens.values)
        kr = self.geom.k_gas_cutoff(self.tr.n_out) * self.geom.radius
        assert any(math.isclose(x, kr, rel_tol=1e-12)
                   for x in dens.dimensionless_x)
        for w, x in zip(dens.grid, dens.dimensionless_x):
            assert rel_err(x, self.tr.n_out * w * self.geom.radius / C) < 1e-12

    def test_grid_independence(self):
        n_a = totals_finite(self.tr, self.geom,
                            FiniteSpectrumConfig(grid_points=60)).photon_count
        n_b = totals_finite(self.tr, self.geom,
                            FiniteSpectrumConfig(grid_points=120)).photon_count
        assert rel_err(n_a, n_b) < 5e-3

    def test_tolerance_monotonicity(self):
        n_a = totals_finite(self.tr, self.geom,
                            FiniteSpectrumConfig(grid_points=60,
                                                 quad_rel_tol=1e-6)).photon_count
        n_b = totals_finite(self.tr, self.geom,
                            FiniteSpectrumConfig(grid_points=60,
                                                 quad_rel_tol=1e-8)).photon_count
        assert rel_err(n_a, n_b) < 1e-5

    def test_totals_above_the_float_range_are_numerical(self):
        # n_in at the smallest normal float: the spectrum is finite, its
        # integral is not, so NumericalError, not an overflow warning and
        # an inf count
        tr = MediumTransition(n_in=2.2250738585072014e-308, n_out=1.0)
        geom = build_geometry_from_kr(15.0, 1.3, radius=1e-9)
        cfg = FiniteSpectrumConfig(grid_extend=1.0)
        assert np.isfinite(spectrum_finite(tr, geom, cfg).values).all()
        with pytest.raises(NumericalError, match="exceed the float range"):
            totals_finite(tr, geom, cfg)

    def oracle_totals(self, cfg, l_max):
        """Photon count of the per-l oracle's spectrum summed to l_max."""
        omega, _ = spectral_grid(self.tr, self.geom, cfg)
        values = engine_oracle.spectrum_values(self.tr, self.geom, cfg, l_max)
        return bubble._trapz_richardson(omega, np.array(values))

    def test_l_truncation(self):
        # the l sum cut a little above K R is already within 1e-2 of the
        # closed form, which sums every l
        kr = self.geom.k_gas_cutoff(self.tr.n_out) * self.geom.radius
        base = math.ceil(kr) + 6
        cfg = FiniteSpectrumConfig(grid_points=60)
        n_a = self.oracle_totals(cfg, base)
        n_b = totals_finite(self.tr, self.geom, cfg).photon_count
        assert rel_err(n_a, n_b) < 1e-2

    def test_auto_matches_generous_explicit(self):
        cfg = FiniteSpectrumConfig(grid_points=60)
        kr = self.geom.k_gas_cutoff(self.tr.n_out) * self.geom.radius
        n_auto = totals_finite(self.tr, self.geom, cfg)
        n_full = self.oracle_totals(cfg, math.ceil(kr) + 30)
        assert rel_err(n_auto.photon_count, n_full) < 5e-4

    def test_config_validation(self):
        with pytest.raises(DomainError):
            FiniteSpectrumConfig(grid_points=1)
        with pytest.raises(DomainError):
            FiniteSpectrumConfig(quad_rel_tol=2.0)
        with pytest.raises(DomainError):
            FiniteSpectrumConfig(quad_rel_tol=0.5 * core._MIN_REL_TOL)
        for extend in (0.99, 4.01):
            with pytest.raises(DomainError, match="grid_extend"):
                FiniteSpectrumConfig(grid_extend=extend)

    def test_spectral_grid_contains_cutoff(self):
        cfg = FiniteSpectrumConfig(grid_points=50, grid_extend=1.3)
        omega_grid, x_grid = spectral_grid(self.tr, self.geom, cfg)
        kr = self.geom.k_gas_cutoff(self.tr.n_out) * self.geom.radius
        assert math.isclose(x_grid[49], kr, rel_tol=1e-12)
        assert x_grid[-1] >= 1.28 * kr
        # read-only float arrays, which spectrum_finite passes on unchanged
        for grid in (omega_grid, x_grid):
            assert grid.dtype == np.float64 and not grid.flags.writeable
        dens = spectrum_finite(self.tr, self.geom, cfg)
        assert np.array_equal(dens.grid, omega_grid)
        assert np.array_equal(dens.dimensionless_x, x_grid)

    def test_trapezoid_of_density_matches_totals(self):
        cfg = FiniteSpectrumConfig(grid_points=80)
        dens = spectrum_finite(self.tr, self.geom, cfg)
        total = totals_finite(self.tr, self.geom, cfg)
        # totals adds one Richardson step on the same grid, so plain
        # trapezoid agrees to the quadrature (grid) tolerance
        assert rel_err(trapz(dens.values, dens.grid), total.photon_count) < 2e-3

    def test_bulk_quadratic_rise(self):
        # the smeared curve climbs quadratically through the bulk of the
        # band (steeper only below x ~ l_min where no partial wave fits)
        tr = MediumTransition(n_in=2e4, n_out=1.0)
        geom = build_geometry_from_kr(5.0 * math.pi, 1.3)
        dens = spectrum_finite(tr, geom)
        x = np.array(dens.dimensionless_x)
        y = np.array(dens.values)
        window = (x >= 4.0) & (x <= 8.0)
        slope = np.polyfit(np.log(x[window]), np.log(y[window]), 1)[0]
        assert 1.8 < slope < 2.6


class TestLargeVolumeConsistency:
    def test_table_rows_near_closed_form(self):
        # the two fastest benchmark rows; the full table runs in the
        # acceptance suite
        for n_in, n_out in ((2e4, 1.0), (1.0, 12.0)):
            tr = MediumTransition(n_in=n_in, n_out=n_out)
            geom = build_geometry_from_kr(15.0, 1.3)
            summary = totals_finite(tr, geom)
            closed = total_photons_closed_form(tr, geom)
            assert abs(summary.photon_count - closed) / closed < 0.10
            assert 0.74 <= summary.mean_over_cutoff <= 0.82

    def test_large_bubble_approaches_closed_form_totals(self):
        # the finite-volume totals tend to the closed form as K R grows
        # (the gap falls about as 1/(K R)); K R = 1000 takes ~0.2 s
        tr = MediumTransition(n_in=2.0, n_out=1.3)
        gaps = []
        for kr in (100.0, 300.0, 1000.0):
            geom = build_geometry_from_kr(kr, 1.3)   # gas-side K R
            summary = totals_finite(tr, geom)
            closed = totals_closed_form(tr, geom)
            gaps.append((abs(summary.photon_count / closed.photon_count - 1.0),
                         abs(summary.mean_over_cutoff
                             - closed.mean_over_cutoff)))
        for near, far in zip(gaps[1:], gaps):
            assert near[0] < far[0] and near[1] < far[1]
        assert gaps[-1][0] < 1e-3 and gaps[-1][1] < 1e-3

    @pytest.mark.parametrize("kr", [100.0, 300.0, 1000.0])
    def test_large_bubble_approaches_infinite_spectrum_pointwise(self, kr):
        # both spectra are the square of one factor times a function of
        # x = k_out R, and the finite-volume l sum tends to 2 x^2 / (3 pi):
        # at x = K R / 2, the first point of a two-point grid, within 1/(K R)
        tr = MediumTransition(n_in=2.0, n_out=1.3)
        geom = build_geometry_from_kr(kr, 1.3)   # gas-side K R
        finite = spectrum_finite(tr, geom, FiniteSpectrumConfig(
            grid_points=2, grid_extend=1.0))
        assert rel_err(finite.dimensionless_x[0], 0.5 * kr) < 1e-12
        infinite = spectrum_infinite(tr, geom, float(finite.grid[0]))
        assert abs(finite.values[0] / infinite - 1.0) <= 1.0 / kr


def f_mp(u, v):
    """F(u, v) = sum_{l>=1} (2l+1) lambda_l(u, v)^2 as the mpmath quadrature
    (1/(12 pi^2)) int_0^2 (s^3 - 12 s + 16) sin(u s) sin(v s) ds minus the
    l = 0 term [sinc(u - v) - sinc(u + v)]^2 / (pi^2 u v), which cancel to
    ~(u v)^2 of either: the working precision grows by -2 log10(u v)."""
    with mp.workdps(30 + max(0, math.ceil(-2.0 * math.log10(u * v)))):
        um, vm = mpf(u), mpf(v)
        # a Gauss-Legendre panel per ~2.5 periods of sin((u + v) s)
        total = mp.quad(lambda s: (s**3 - 12 * s + 16) * mp.sin(um * s)
                        * mp.sin(vm * s),
                        mp.linspace(0, 2, 4 + int((u + v) / 16)),
                        method="gauss-legendre")
        total /= 12 * mp.pi**2
        sinc = (lambda k: mp.sin(k) / k if k != 0 else mpf(1))
        lam0 = (sinc(um - vm) - sinc(um + vm))**2 / (mp.pi**2 * um * vm)
        return float(total - lam0)


def engine_f(u, v):
    """The engine's F(u, v) at output point u and node v: the power-series
    l sum where u and v are both below _SMALL_ARG, the Lommel-quotient l
    sum where u is below _TINY_ARG and v is not below _SMALL_ARG, else the
    closed form."""
    uu, vv = np.array([u]), np.array([v])
    if max(u, v) < bubble._SMALL_ARG:
        f = bubble._small_block(vv, uu)
    elif u < bubble._TINY_ARG <= bubble._SMALL_ARG <= v:
        jl = sph_jn_table(bubble._SMALL_L, np.array([u, v]))
        f = bubble._lommel_block(vv, uu, jl[:, 1:], jl[:, :1])
    else:
        f = bubble._closed_form(vv, uu, bubble._node_factors(vv),
                                bubble._point_factors(uu))
    return f[0, 0] / math.pi**2


@pytest.mark.parametrize("u, v", [
    (5.0, 5.0), (300.0, 300.0),                     # the diagonal
    (5.0, 5.0001), (300.0, 299.9999),               # |u - v| ~ 1e-4
    (10.0, 10.999), (10.0, 11.001), (10.0, 9.0),    # across |u - v| = 1
    (0.05, 0.06), (0.3, 0.7), (1.9, 2.1),           # small arguments
    (1.0, 1.0), (1.999, 1.999), (1e-2, 1.99),       # the power series
    (1e-5, 1.5), (1e-3, 1e-3),
    (0.06, 3.0), (0.05, 8.0), (0.7, 2.5),           # one small argument
    (1e-4, 2.5), (1e-3, 3.0), (0.45, 8.0), (1e-3, 50.0),
    (470.0, 300.0),
    (500.0, 499.0), (500.0, 501.0), (510.0, 508.9),  # far pairs: the rank
    (392.0, 2.0), (2.5, 510.0), (100.0, 350.0),     # sums at table1's K R
    (250.0, 251.5),
])
def test_angular_sum_matches_mpmath(u, v):
    assert rel_err(engine_f(u, v), f_mp(u, v)) <= 1e-12


HEADLINE = (MediumTransition(n_in=2e4, n_out=1.0),
            BubbleGeometry(nm_to_m(500.0), 1.3, nm_to_m(200.0)))


def engine_and_oracle(tr, geom, cfg, l_max=None):
    got = spectrum_finite(tr, geom, cfg).values
    return np.array(got), np.array(engine_oracle.spectrum_values(tr, geom, cfg,
                                                                 l_max))


class TestEngineAgainstOracle:
    """The closed-form engine on 4 pi panels against the per-point, per-l
    reference engine on pi/2 panels."""

    @pytest.mark.parametrize("tr, geom, cfg, l_max", [
        HEADLINE + (FiniteSpectrumConfig(), None),
        # grid spacing 3.5 > pi/2: several oracle panels between points
        (MediumTransition(n_in=2.0, n_out=1.5),
         build_geometry_from_kr(6.0, 1.3), FiniteSpectrumConfig(grid_points=2),
         None),
        # grid spacing 0.009 at K R < pi/2: every point shares the one
        # panel, and every node pair has u and v below 2, so the engine
        # sums them all term by term (the small-argument block)
        (MediumTransition(n_in=3.0, n_out=1.5),
         build_geometry_from_kr(1.5, 1.3), FiniteSpectrumConfig(grid_points=200),
         None),
        # the oracle summed to an explicit l_max, without its tail test
        (MediumTransition(n_in=2.0, n_out=1.5),
         build_geometry_from_kr(5.0, 1.3),
         FiniteSpectrumConfig(grid_points=30), 40),
    ], ids=["headline", "split-intervals", "fine-grid", "explicit-lmax"])
    def test_pointwise_agreement(self, tr, geom, cfg, l_max):
        got, want = engine_and_oracle(tr, geom, cfg, l_max)
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-10 * np.abs(want))

    def test_equal_indices_give_zero(self):
        got, want = engine_and_oracle(MediumTransition(n_in=2.0, n_out=2.0),
                                      build_geometry_from_kr(5.0, 1.3),
                                      FiniteSpectrumConfig(grid_points=20))
        assert np.all(got == 0.0) and np.all(want == 0.0)

    def failure_messages(self, cfg):
        tr = MediumTransition(n_in=2.0, n_out=1.5)
        geom = build_geometry_from_kr(3.0, 1.3)
        messages = []
        for run in (lambda: spectrum_finite(tr, geom, cfg),
                    lambda: engine_oracle.spectrum_values(tr, geom, cfg)):
            with pytest.raises(NumericalError) as info:
                run()
            messages.append(str(info.value))
        return messages

    def test_unattainable_tolerance(self, monkeypatch):
        # FiniteSpectrumConfig refuses a tolerance below _MIN_REL_TOL; with
        # that floor lifted, a negative tolerance, which no difference of
        # two rules meets, sends both engines to their failure path at the
        # lowest point (at 1e-300 a point whose rules agree to the last bit
        # would pass)
        monkeypatch.setattr(core, "_MIN_REL_TOL", -math.inf)
        got, want = self.failure_messages(
            FiniteSpectrumConfig(grid_points=8, quad_rel_tol=-1.0))
        assert got == want
        assert got.startswith("omega_in quadrature failed to reach rel tol")

    def test_l_tail_failure(self, monkeypatch):
        # the closed form sums every l and has no tail to refuse; the
        # oracle's sum to l_hard agrees with it where the oracle's tail
        # test passes, and every converged point fails that test at this
        # threshold
        tr = MediumTransition(n_in=2.0, n_out=1.5)
        geom = build_geometry_from_kr(3.0, 1.3)
        got, want = engine_and_oracle(tr, geom,
                                      FiniteSpectrumConfig(grid_points=8))
        assert np.all(np.abs(got - want) <= 1e-10 * np.abs(want))
        monkeypatch.setattr(engine_oracle, "_L_TAIL_TOL", 1e-300)
        with pytest.raises(NumericalError) as info:
            engine_oracle.spectrum_values(tr, geom,
                                          FiniteSpectrumConfig(grid_points=8))
        assert str(info.value).startswith("l sum not converged by l=")


def test_nodes_do_not_depend_on_output_grid(monkeypatch):
    # the panels depend on K R alone: a 20x finer output grid adds output
    # points and nothing to the nodes that each pass sums over
    trig = bubble._trig

    def nodes_per_pass(grid_points):
        sizes = []

        def recording_trig(x):
            sizes.append(len(x))
            return trig(x)

        monkeypatch.setattr(bubble, "_trig", recording_trig)
        cfg = FiniteSpectrumConfig(grid_points=grid_points)
        spectrum_finite(HEADLINE[0], HEADLINE[1], cfg)
        assert sizes[0] == _grid_size(cfg)  # the output points
        return sizes[1:]

    assert nodes_per_pass(50) == nodes_per_pass(1000)


def bisected(edges):
    """Panel edges with every panel split at its midpoint, as the engine
    splits them from one level to the next."""
    return np.insert(edges, np.arange(1, edges.size),
                     0.5 * (edges[1:] + edges[:-1]))


def direct(n_in, n_out):
    """The direct weight as spectrum_finite hands it to bubble._sums."""
    return functools.partial(bubble._direct_weight, n_in, n_out)


def test_output_points_on_and_beside_gauss_nodes():
    # an output point that coincides with a node, of either order and at
    # any level, is a pair with v = u; the closed form's Taylor branch and
    # the small-argument blocks must take it without 0/0.  With
    # n_out > n_in the first panel is graded, and its nodes too, down to
    # u ~ 1e-4
    kr, cfg = 6.0, FiniteSpectrumConfig()
    for n_in, n_out in ((2.0, 1.5), (1.5, 2.0)):
        level_edges = _panel_edges(kr, n_out > n_in)
        on = []
        for _ in range(_LEVELS):
            mids = 0.5 * (level_edges[1:] + level_edges[:-1])
            halves = 0.5 * (level_edges[1:] - level_edges[:-1])
            for order in (_ESTIMATE_ORDER, _VALUE_ORDER):
                x, _ = _gauss_nodes(order)
                nodes = (mids[:, None] + halves[:, None] * x[None, :]).ravel()
                on.extend(nodes[::19])
            level_edges = bisected(level_edges)
        on = np.unique(on)
        u = np.sort(np.concatenate((on, on - 1e-9, on + 1e-9)))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = bubble._sums(u, _panel_edges(kr, n_out > n_in),
                               direct(n_in, n_out), cfg.quad_rel_tol)
        oracle = engine_oracle._SpectrumEngine(n_in, n_out, kr, cfg)
        want = np.array([oracle.sum_at(float(x)) for x in u])
        assert np.all(np.isfinite(got))
        assert np.all(np.abs(got - want) <= 1e-10 * np.abs(want))


@pytest.mark.parametrize("n_in, n_out", [(2.0, 1.5), (1.5, 2.0), (1.0, 25.0),
                                         (25.0, 1.0)])
def test_sums_integrate_the_weight_they_are_handed(n_in, n_out):
    # the cross pairing's bracket ((n_in + n_out) u v / (n_out v + n_in u))^2
    # through _sums, against the per-l oracle under the same weight; on
    # these points it is 0.006-6.4 times the direct bracket, so an engine
    # that ignored its weight would fail.  Doubling the weight doubles the
    # sums bit for bit: a power of two leaves every convergence decision the
    # same
    def cross_at(u, v):
        return ((n_in + n_out) * u * v / (n_out * v + n_in * u))**2

    def cross(v):
        return functools.partial(cross_at, v=v[:, None])

    def doubled(v):
        return lambda u: 2.0 * cross(v)(u)

    cfg = FiniteSpectrumConfig()
    for kr in (1.0, 6.0, 15.0):
        u = 1.3 * kr * np.arange(1, 21) / 20
        edges = _panel_edges(kr, n_out > n_in)
        got = bubble._sums(u, edges, cross, cfg.quad_rel_tol)
        oracle = engine_oracle._SpectrumEngine(n_in, n_out, kr, cfg,
                                               weight=cross_at)
        want = np.array([oracle.sum_at(float(x)) for x in u])
        assert np.all(np.abs(got - want) <= 1e-10 * np.abs(want))
        direct_sums = bubble._sums(u, edges, direct(n_in, n_out),
                                   cfg.quad_rel_tol)
        assert np.max(np.abs(got / direct_sums - 1.0)) > 0.1
        assert np.array_equal(
            bubble._sums(u, edges, doubled, cfg.quad_rel_tol), 2.0 * got)


def kr_geometry(kr, n_out):
    """The geometry at n_liquid 1.3 whose gas-side K R is kr."""
    return build_geometry_from_kr(kr * 1.3 / n_out, 1.3)


@pytest.mark.parametrize("n_in, n_out, geom", [
    (2e4, 1.0, HEADLINE[1]),
    *((n_in, n_out, build_geometry_from_kr(15.0, 1.3))
      for n_in, n_out in TABLE1_CASES),
    (1.0, 50.0, build_geometry_from_kr(15.0, 1.3)),
    (1.01, 1.0, kr_geometry(23.0, 1.0)),
    (1.5, 1.0, kr_geometry(46.0, 1.0)),
], ids=["headline", "2e4/1", "71/25", "68/34", "9/25", "1/12", "1/50",
        "1.01/1", "1.5/1"])
def test_first_level_estimate_bounds_the_error(n_in, n_out, geom):
    # at the first level and at the second (its panels bisected), the
    # level's |I^24 - I^16| on its own panels must be at least its order-24
    # value's error against the order-24 rule on the first level's panels
    # bisected three times (the last level's), wherever that error is
    # resolved: the reference itself moves by up to 1.7e-14 when bisected
    # once more (1/50), so errors below 3e-14 are its roundoff.  And it
    # must stay far inside the default tolerance, so that the estimate,
    # not the value, never sends a point to the next level
    kr = geom.k_gas_cutoff(n_out) * geom.radius
    cfg = FiniteSpectrumConfig()
    tr = MediumTransition(n_in=n_in, n_out=n_out)
    u = np.asarray(spectral_grid(tr, geom, cfg)[1])
    levels = [_panel_edges(kr, n_out > n_in)]
    levels.append(bisected(levels[0]))
    finest = bisected(bisected(levels[1]))
    _, reference = bubble._rules(u, finest, direct(n_in, n_out))
    for edges in levels:
        low, value = bubble._rules(u, edges, direct(n_in, n_out))
        error = np.abs(value - reference) / reference
        estimate = np.abs(value - low) / reference
        resolved = error > 3e-14
        assert np.all(estimate[resolved] >= error[resolved])
        assert np.max(estimate) <= 1e-8


def test_tight_tolerance_converges():
    # a refined point is accepted by its level's own |I^24 - I^16|, not by
    # the difference of two levels' values, which stalls at their roundoff:
    # the 68/34 row (K R 392) converges at 7e-15, below _MIN_REL_TOL, and
    # agrees with its result at the floor
    n_in, n_out = 68.0, 34.0
    geom = build_geometry_from_kr(15.0, 1.3)
    kr = geom.k_gas_cutoff(n_out) * geom.radius
    tr = MediumTransition(n_in=n_in, n_out=n_out)
    u = np.asarray(spectral_grid(tr, geom, FiniteSpectrumConfig())[1])
    edges, weight = _panel_edges(kr, n_out > n_in), direct(n_in, n_out)
    tight = bubble._sums(u, edges, weight, 7e-15)
    floor = bubble._sums(u, edges, weight, core._MIN_REL_TOL)
    assert np.all(np.abs(tight - floor) <= 1e-13 * np.abs(tight))


def test_direct_sum_is_a_narrow_band(monkeypatch):
    # only the pairs where the closed form cancels reach the explicit l
    # sums: u and v both below _SMALL_ARG the radial block, at most 4 per
    # output point over every level; and the points below _TINY_ARG, and
    # only they, against the nodes above _SMALL_ARG the Lommel block
    pairs, lommel = [], []
    small_block, lommel_block = bubble._small_block, bubble._lommel_block

    def recording_block(v, u):
        pairs.append(v.size * u.size)
        return small_block(v, u)

    def recording_lommel(v, u, jv, ju):
        lommel.append((v, u))
        return lommel_block(v, u, jv, ju)

    monkeypatch.setattr(bubble, "_small_block", recording_block)
    monkeypatch.setattr(bubble, "_lommel_block", recording_lommel)
    spectrum = spectrum_finite(HEADLINE[0], HEADLINE[1],
                               FiniteSpectrumConfig())
    assert 0 < sum(pairs) <= 4 * len(spectrum.values)
    x = np.array(spectrum.dimensionless_x)
    assert all(np.all(v >= bubble._SMALL_ARG) for v, _ in lommel)
    assert np.array_equal(np.unique(np.concatenate([u for _, u in lommel])),
                          x[x < bubble._TINY_ARG])


@pytest.mark.parametrize("tr, geom, cfg, block", [
    HEADLINE + (FiniteSpectrumConfig(), 250),
    # 11 of the 131 points miss the tolerance at order 16 against 24 and
    # are redone at the second level
    (MediumTransition(n_in=2.0, n_out=1.5),
     build_geometry_from_kr(6.0, 1.3),
     FiniteSpectrumConfig(grid_points=100, quad_rel_tol=1e-11), 250),
    # K R 11 538: 919 panels, 36 760 nodes a pass, in two tiles
    (MediumTransition(n_in=2.0, n_out=1.5),
     build_geometry_from_kr(1e4, 1.3), FiniteSpectrumConfig(grid_points=8),
     bubble._BLOCK_ELEMENTS),
], ids=["headline", "second-level", "tiles"])
def test_column_blocks_do_not_change_spectra(monkeypatch, tr, geom, cfg,
                                             block):
    # against one tile and one column block a pass: column blocks of 6
    # points at the headline's first level (6 and 3 at the second case's
    # first and second) cut both small-argument blocks, so the points of
    # each are summed in more than one column block of a pass; at K R
    # 11 538 the default size cuts each pass into tiles
    monkeypatch.setattr(bubble, "_BLOCK_ELEMENTS", 1 << 20)
    want = np.array(spectrum_finite(tr, geom, cfg).values)
    blocks, shapes, small, tiny = [], [], [], []    # per call: its nodes
    closed_form = bubble._closed_form
    small_block, lommel_block = bubble._small_block, bubble._lommel_block

    def recording_closed_form(v, u, tv, tu):
        blocks.append(v)
        shapes.append((v.size, u.size))
        return closed_form(v, u, tv, tu)

    def recording_block(v, u):
        small.append(blocks[-1])
        return small_block(v, u)

    def recording_lommel(v, u, jv, ju):
        tiny.append(blocks[-1])
        return lommel_block(v, u, jv, ju)

    monkeypatch.setattr(bubble, "_closed_form", recording_closed_form)
    monkeypatch.setattr(bubble, "_small_block", recording_block)
    monkeypatch.setattr(bubble, "_lommel_block", recording_lommel)
    monkeypatch.setattr(bubble, "_BLOCK_ELEMENTS", block)
    got = np.array(spectrum_finite(tr, geom, cfg).values)
    assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))
    assert all(rows * cols <= block for rows, cols in shapes)
    if block != 250:    # a pass's nodes in more than one tile
        assert len({id(v) for v in blocks}) >= 2
    else:
        assert [v is blocks[0] for v in blocks].count(True) >= 5
        assert [v is blocks[0] for v in small].count(True) >= 2
        assert [v is blocks[0] for v in tiny].count(True) >= 2
    if cfg.quad_rel_tol == 1e-11:   # a pass of both orders on bisected panels
        panels = blocks[0].size // (_ESTIMATE_ORDER + _VALUE_ORDER)
        assert any(v.size == 2 * panels * (_ESTIMATE_ORDER + _VALUE_ORDER)
                   for v in blocks)


@pytest.mark.xfail(strict=True, reason=(
    "_grid_size rounds (grid_extend - 1) * grid_points up in floating "
    "point, so (1.3 - 1) * 200 = 60.00000000000001 adds one point past "
    "grid_extend * cutoff; the fix changes the benchmark golden files"))
def test_grid_ends_at_grid_extend():
    tr, geom = HEADLINE
    kr = geom.k_gas_cutoff(tr.n_out) * geom.radius
    for grid_points in (50, 200, 800):
        cfg = FiniteSpectrumConfig(grid_points=grid_points)
        _, x = spectral_grid(tr, geom, cfg)
        assert abs(x[-1] - cfg.grid_extend * kr) <= 1e-12 * x[-1]


class TestProblemSizeGuard:
    def test_oversized_problem_refused_before_any_table(self, monkeypatch):
        def no_table(*args):
            raise AssertionError("a Bessel table or a pass was built")

        # K R 2.3e6: 1.9e9 first-pass node pairs on the default grid, above
        # _MAX_NODE_PAIRS.  No output point lies below _TINY_ARG, so only
        # _closed_form, which every pass calls, shows a pass began
        monkeypatch.setattr(bubble, "sph_jn_table", no_table)
        monkeypatch.setattr(bubble, "_closed_form", no_table)
        tr = MediumTransition(n_in=2.0, n_out=1.5)
        geom = build_geometry_from_kr(2e6, 1.3)
        start = time.perf_counter()
        with pytest.raises(DomainError, match="too large"):
            spectrum_finite(tr, geom)
        assert time.perf_counter() - start < 1.0

    def test_too_many_node_pairs_refused(self, monkeypatch):
        def no_table(*args):
            raise AssertionError("a Bessel table or a pass was built")

        # 27 300 output points against 41 400 first-pass nodes: the node
        # pairs pass _MAX_NODE_PAIRS while the arrays (~50 MB) stay below
        # _MAX_ENGINE_BYTES, so the pair guard alone refuses the problem
        monkeypatch.setattr(bubble, "sph_jn_table", no_table)
        monkeypatch.setattr(bubble, "_closed_form", no_table)
        tr = MediumTransition(n_in=2.0, n_out=1.5)
        geom = kr_geometry(13000.0, 1.5)
        cfg = FiniteSpectrumConfig(grid_points=21000)
        kr = geom.k_gas_cutoff(tr.n_out) * geom.radius
        assert _engine_bytes(kr, cfg) < bubble._MAX_ENGINE_BYTES
        start = time.perf_counter()
        with pytest.raises(DomainError, match="node pairs"):
            spectrum_finite(tr, geom, cfg)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("n_in, n_out, radius, lambda_obs, match", [
        (1e-160, 1e-150, 1e-209, 1e191, "output grid not representable"),
        (2.0, 1.5, 1e-209, 1e191, "output grid not representable"),
        (2.0, 1.5, 2e-323, 4.0, "output grid not representable"),
        (1e-4, 1e-317, 5e-7, 2 * math.pi * 5e-6,
         "finite-volume spectrum underflows")],
        ids=["graded", "ungraded", "spacing", "weight"])
    def test_kr_that_underflows_refused(self, n_in, n_out, radius, lambda_obs,
                                        match, monkeypatch):
        # K R ~1e-399 underflows to 0, graded or not, K R ~3e-323 over 200
        # points leaves a grid spacing of 0 (spectral_grid's refusal), and
        # n_in times the spacing ~4e-321 and the lowest edge, 1e-6 K R
        # ~8e-325, underflow to 0 (the weight's): each is refused before
        # the panel edges of a K R of 0 (an IndexError) or a pass (the
        # weight's 0 / 0) are reached.  The weight's refusal reads the
        # lowest edge, so it comes after the edges of its K R above 0
        def no_table(*args):
            raise AssertionError("a Bessel table or a pass was built")

        def positive_edges(kr, graded):
            assert kr > 0.0, "panel edges of a K R of 0"
            return panel_edges(kr, graded)

        panel_edges = bubble._panel_edges
        monkeypatch.setattr(bubble, "sph_jn_table", no_table)
        monkeypatch.setattr(bubble, "_closed_form", no_table)
        monkeypatch.setattr(bubble, "_sums", no_table)
        monkeypatch.setattr(bubble, "_panel_edges", positive_edges)
        tr = MediumTransition(n_in=n_in, n_out=n_out)
        geom = BubbleGeometry(radius, 1.3, lambda_obs)
        with pytest.raises(DomainError, match=match + " at K R"):
            spectrum_finite(tr, geom)

    @pytest.mark.parametrize("build", [spectral_grid, spectrum_finite])
    @pytest.mark.parametrize("n_in, n_out, geom, grid_points, match", [
        # n_out R underflows to 0 while K R does not: omega_out = x c /
        # (n_out R) would be inf
        (1.0, 1e-318, build_geometry_from_kr(15.0, 1.3), 200,
         r"1\.15\d*e-317: omega_out runs from inf to inf"),
        # K R ~1e-399 underflows to 0: the grid's spacing K R / grid_points
        # is 0, and so would be every x and omega_out
        (1.0, 2.0, BubbleGeometry(1e-209, 1.3, 1e191), 200,
         r"0\.0: omega_out runs from 0\.0 to 0\.0"),
        # K R ~6e-200, but the cutoff frequency 2 pi c / (n_liquid
        # lambda_obs) ~2e-382 rad/s underflows: omega_out would be all 0
        (1.0, 1e100, BubbleGeometry(1e91, 1e100, 1e291), 2,
         r"6\.28\d*e-200: omega_out runs from 0\.0 to 0\.0"),
        # K R ~0.8, but omega_out = x c / (n_out R), up to ~x 3e308 rad/s,
        # overflows
        (1.0, 1e-200, BubbleGeometry(1e-100, 1.3, 6e-300), 200,
         r"0\.80\d*: omega_out runs from 1\.2\d*e\+306 to inf"),
    ], ids=["n-out-r", "kr-spacing", "omega-spacing", "omega-overflow"])
    def test_grid_outside_the_float_range_refused(self, build, n_in, n_out,
                                                   geom, grid_points, match):
        # one refusal, from spectral_grid, for either model's grid, naming
        # K R and the omega_out range
        tr = MediumTransition(n_in=n_in, n_out=n_out)
        with pytest.raises(DomainError, match="^output grid not representable "
                                              "at K R " + match + " rad/s"):
            build(tr, geom, FiniteSpectrumConfig(grid_points=grid_points))

    def test_benchmark_table_fits(self):
        # the largest table1 case: K R = 392
        cfg = FiniteSpectrumConfig()
        assert _engine_bytes(392.0, cfg) \
            < bubble._MAX_ENGINE_BYTES / 50

    @pytest.mark.parametrize("kr", [0.0, 5e-324, 1e-310])
    def test_estimate_where_every_point_is_tiny(self, kr):
        # _TINY_ARG grid_points / kr is inf or a division by zero; every
        # point takes a j_l argument
        cfg = FiniteSpectrumConfig(grid_points=2000000, grid_extend=1.0)
        assert _engine_bytes(kr, cfg) \
            > (8 * (36 + 2 * bubble._SMALL_L + 15) + 512) * 2000000

    @pytest.mark.parametrize("kr", [0.5, 12.1, 392.0, 1e6])
    def test_ungraded_estimate_below_graded(self, kr):
        # the node-pair guard counts the panels the run sums (the first one
        # is split only where n_out > n_in); _engine_bytes charges the
        # bisected edges of the split panels for either
        for graded in (False, True):
            assert _panel_total(kr, graded) \
                == len(_panel_edges(kr, graded)) - 1
        assert _panel_total(kr, False) < _panel_total(kr, True)

    @pytest.mark.parametrize("kr, cfg", [
        (1.5, FiniteSpectrumConfig(grid_points=400)),
    ], ids=["fine-grid"])
    def test_ungraded_estimate_bounds_measured_peak(self, monkeypatch, kr,
                                                    cfg):
        # n_in > n_out: the run sums the ungraded panels, and the estimate,
        # which counts the graded ones, still bounds its peak
        tr = MediumTransition(n_in=2.0, n_out=1.5)
        geom = build_geometry_from_kr(kr, 1.3)
        kr = geom.k_gas_cutoff(tr.n_out) * geom.radius
        sizes = []    # per call: the node count of its pass
        closed_form = bubble._closed_form

        def recording_closed_form(v, u, tv, tu):
            sizes.append(v.size)
            return closed_form(v, u, tv, tu)

        monkeypatch.setattr(bubble, "_closed_form", recording_closed_form)
        tracemalloc.start()
        try:
            spectrum_finite(tr, geom, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sizes[0] == _panel_total(kr, False) \
            * (_ESTIMATE_ORDER + _VALUE_ORDER)
        assert peak <= _engine_bytes(kr, cfg)

    @pytest.mark.parametrize("kr, cfg, n_in", [
        (6.0, FiniteSpectrumConfig(grid_points=40), 2.0),
        (1.5, FiniteSpectrumConfig(grid_points=400), 2.0),
        (40.0, FiniteSpectrumConfig(grid_points=60), 2.0),
        (3.0, FiniteSpectrumConfig(grid_points=8, quad_rel_tol=1e-12), 2.0),
        # the grid's per-point tuples and the small arguments' series
        # powers dominate the estimate
        (6.0, FiniteSpectrumConfig(grid_points=40000), 2.0),
        # 521 points: several column blocks at the first level
        (40.0, FiniteSpectrumConfig(grid_points=400), 2.0),
        # n_out > n_in: the graded first panel's nodes join the
        # small-argument series block, at every level
        (1.5, FiniteSpectrumConfig(grid_points=400, quad_rel_tol=1e-12), 1.0),
        # 86 points below _TINY_ARG against 273 nodes above _SMALL_ARG:
        # the Lommel block's j_l table and its pairs
        (40.0, FiniteSpectrumConfig(grid_points=8000), 2.0),
        (0.3, FiniteSpectrumConfig(grid_points=400, quad_rel_tol=1e-12), 2.0),
        (12.1, FiniteSpectrumConfig(), 2.0),
        # K R 11 538: each pass in two tiles, one point a column block
        (1e4, FiniteSpectrumConfig(grid_points=8), 2.0),
        # K R 69 231 at 2 points: 5 510 panels, 7 tiles a pass
        (6e4, FiniteSpectrumConfig(grid_points=2, grid_extend=1.0), 2.0),
    ], ids=["small", "fine-grid", "large-l", "refined", "long-grid",
            "wide-grid", "graded", "tiny-grid", "small-refined",
            "headline-kr", "tiles", "large-kr"])
    def test_estimate_bounds_measured_peak(self, kr, cfg, n_in):
        tr = MediumTransition(n_in=n_in, n_out=1.5)
        geom = build_geometry_from_kr(kr, 1.3)
        kr = geom.k_gas_cutoff(tr.n_out) * geom.radius
        tracemalloc.start()
        try:
            spectrum_finite(tr, geom, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= _engine_bytes(kr, cfg)

    def test_estimate_bounds_bisected_panel_edges(self, monkeypatch):
        # what grows with K R is _sums' bisection of the panel edges: with
        # _rules stubbed so that no point converges, _sums bisects the
        # 79 578 panels of K R 1e6 _LEVELS - 1 times, and the peak is theirs
        def unconverged(u, edges, weight):
            return np.stack((np.zeros(u.size), np.ones(u.size)))

        monkeypatch.setattr(bubble, "_rules", unconverged)
        kr, cfg = 1e6, FiniteSpectrumConfig(grid_points=2, grid_extend=1.0)
        tracemalloc.start()
        try:
            with pytest.raises(NumericalError):
                bubble._sums(np.array([kr / 2, kr]), _panel_edges(kr, False),
                             direct(2.0, 1.5), 1e-6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 10e6 < peak <= _engine_bytes(kr, cfg)
