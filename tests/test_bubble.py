import math
import time
import tracemalloc

import numpy as np
import pytest
from mpmath import mp, mpf

from sonophoton import (BubbleGeometry, DomainError, MediumTransition,
                        NumericalError, build_geometry_from_kr, bubble)
from sonophoton.bubble import (_DIAGONAL_WIDTH, A_NU_SQ_SMOOTH,
                               FiniteSpectrumConfig, _engine_bytes,
                               _gauss_nodes, _grid_size, _l_hard,
                               _lommel_kernel, spectral_grid, spectrum_finite,
                               totals_finite)
from sonophoton.core import SPEED_OF_LIGHT as C, nm_to_m
from sonophoton.homogeneous import POLARIZATIONS, total_photons_closed_form
from sonophoton.specfun import sph_jn_table

import engine_oracle
from kernel_oracle import finite_kernel
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
        # brute-force the l-sum and omega_in integral from the scalar
        # kernel and compare against the vectorized spectrum path
        n_in, n_out, n_liq = 2.0, 1.5, 1.3
        tr = MediumTransition(n_in=n_in, n_out=n_out)
        geom = build_geometry_from_kr(5.0, n_liq, n_out)
        l_max = 10
        cfg = FiniteSpectrumConfig(l_max=l_max, grid_points=12,
                                   grid_extend=1.0, quad_rel_tol=1e-8)
        dens = spectrum_finite(tr, n_liq, geom, cfg)
        k_cut = geom.k_gas_cutoff
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
    """The engine's lambda_l(u, v), l = 1..lmax, at one u and an array v."""
    v = np.asarray(v, dtype=float)
    ju = sph_jn_table(lmax, np.array([u]))[:, 0]
    return _lommel_kernel(u, v, ju, sph_jn_table(lmax, v))


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
        # the engine's direct sum passes one u per column; every column
        # must equal the scalar-u kernel, on both sides of the diagonal
        # switch and on it
        lmax = 40
        offsets = 0.5 * _DIAGONAL_WIDTH * np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
        us, vs = [], []
        for u in (0.7, 6.0, 12.0, 39.5):
            for v in np.concatenate((u * (1.0 + offsets), [0.3, 2.5, 41.0])):
                us.append(u)
                vs.append(v)
        us, vs = np.array(us), np.array(vs)
        batched = _lommel_kernel(us, vs, sph_jn_table(lmax, us),
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


@pytest.mark.parametrize("order", [12, 24])
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
        self.geom = build_geometry_from_kr(6.0, self.n_liq, 1.5)

    def test_no_change_gives_zero(self):
        tr = MediumTransition(n_in=2.0, n_out=2.0)
        geom = build_geometry_from_kr(6.0, self.n_liq, 2.0)
        cfg = FiniteSpectrumConfig(grid_points=20)
        dens = spectrum_finite(tr, self.n_liq, geom, cfg)
        assert all(v == 0.0 for v in dens.values)

    def test_positivity_and_x_column(self):
        cfg = FiniteSpectrumConfig(grid_points=40)
        dens = spectrum_finite(self.tr, self.n_liq, self.geom, cfg)
        assert all(v >= 0.0 for v in dens.values)
        kr = self.geom.k_gas_cutoff * self.geom.radius
        assert any(math.isclose(x, kr, rel_tol=1e-12)
                   for x in dens.dimensionless_x)
        for w, x in zip(dens.grid, dens.dimensionless_x):
            assert rel_err(x, self.tr.n_out * w * self.geom.radius / C) < 1e-12

    def test_grid_independence(self):
        n_a = totals_finite(self.tr, self.n_liq, self.geom,
                            FiniteSpectrumConfig(grid_points=60)).photon_count
        n_b = totals_finite(self.tr, self.n_liq, self.geom,
                            FiniteSpectrumConfig(grid_points=120)).photon_count
        assert rel_err(n_a, n_b) < 5e-3

    def test_tolerance_monotonicity(self):
        n_a = totals_finite(self.tr, self.n_liq, self.geom,
                            FiniteSpectrumConfig(grid_points=60,
                                                 quad_rel_tol=1e-6)).photon_count
        n_b = totals_finite(self.tr, self.n_liq, self.geom,
                            FiniteSpectrumConfig(grid_points=60,
                                                 quad_rel_tol=1e-8)).photon_count
        assert rel_err(n_a, n_b) < 1e-5

    def test_l_truncation(self):
        kr = self.geom.k_gas_cutoff * self.geom.radius
        base = math.ceil(kr) + 6
        n_a = totals_finite(self.tr, self.n_liq, self.geom,
                            FiniteSpectrumConfig(grid_points=60,
                                                 l_max=base)).photon_count
        n_b = totals_finite(self.tr, self.n_liq, self.geom,
                            FiniteSpectrumConfig(grid_points=60,
                                                 l_max=2 * base)).photon_count
        assert rel_err(n_a, n_b) < 1e-2

    def test_auto_matches_generous_explicit(self):
        cfg_auto = FiniteSpectrumConfig(grid_points=60)
        kr = self.geom.k_gas_cutoff * self.geom.radius
        cfg_full = FiniteSpectrumConfig(grid_points=60,
                                        l_max=math.ceil(kr) + 30)
        n_auto = totals_finite(self.tr, self.n_liq, self.geom, cfg_auto)
        n_full = totals_finite(self.tr, self.n_liq, self.geom, cfg_full)
        assert rel_err(n_auto.photon_count, n_full.photon_count) < 5e-4

    def test_rejects_inconsistent_liquid(self):
        with pytest.raises(DomainError):
            spectrum_finite(self.tr, 1.5, self.geom)

    def test_config_validation(self):
        with pytest.raises(DomainError):
            FiniteSpectrumConfig(grid_points=1)
        with pytest.raises(DomainError):
            FiniteSpectrumConfig(quad_rel_tol=2.0)
        with pytest.raises(DomainError):
            FiniteSpectrumConfig(l_max=0)

    def test_spectral_grid_contains_cutoff(self):
        cfg = FiniteSpectrumConfig(grid_points=50, grid_extend=1.3)
        omega_grid, x_grid = spectral_grid(self.geom, cfg)
        kr = self.geom.k_gas_cutoff * self.geom.radius
        assert math.isclose(x_grid[49], kr, rel_tol=1e-12)
        assert x_grid[-1] >= 1.28 * kr

    def test_trapezoid_of_density_matches_totals(self):
        cfg = FiniteSpectrumConfig(grid_points=80)
        dens = spectrum_finite(self.tr, self.n_liq, self.geom, cfg)
        total = totals_finite(self.tr, self.n_liq, self.geom, cfg,
                              spectral=dens)
        # totals adds one Richardson step on the same grid, so plain
        # trapezoid agrees to the quadrature (grid) tolerance
        assert rel_err(trapz(dens.values, dens.grid), total.photon_count) < 2e-3

    def test_bulk_quadratic_rise(self):
        # the smeared curve climbs quadratically through the bulk of the
        # band (steeper only below x ~ l_min where no partial wave fits)
        tr = MediumTransition(n_in=2e4, n_out=1.0)
        geom = build_geometry_from_kr(5.0 * math.pi, 1.3, 1.0)
        dens = spectrum_finite(tr, 1.3, geom)
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
            geom = build_geometry_from_kr(15.0, 1.3, n_out)
            summary = totals_finite(tr, 1.3, geom)
            closed = total_photons_closed_form(tr, geom)
            assert abs(summary.photon_count - closed) / closed < 0.10
            assert 0.74 <= summary.mean_over_cutoff <= 0.82


HEADLINE = (MediumTransition(n_in=2e4, n_out=1.0),
            BubbleGeometry(nm_to_m(500.0), 1.3, nm_to_m(200.0), 1.0))


def engine_and_oracle(tr, geom, cfg):
    got = spectrum_finite(tr, geom.n_liquid, geom, cfg).values
    return np.array(got), np.array(engine_oracle.spectrum_values(tr, geom, cfg))


class TestEngineAgainstOracle:
    """The shared-node engine against the per-point reference engine."""

    @pytest.mark.parametrize("tr, geom, cfg", [
        HEADLINE + (FiniteSpectrumConfig(),),
        # grid spacing 3.5 > pi/2: several panels between output points
        (MediumTransition(n_in=2.0, n_out=1.5),
         build_geometry_from_kr(6.0, 1.3, 1.5), FiniteSpectrumConfig(grid_points=2)),
        # grid spacing 0.009 at K R < pi/2: every point shares the one
        # panel, and every pair is summed directly
        (MediumTransition(n_in=3.0, n_out=1.5),
         build_geometry_from_kr(1.5, 1.3, 1.5), FiniteSpectrumConfig(grid_points=200)),
        (MediumTransition(n_in=2.0, n_out=1.5),
         build_geometry_from_kr(5.0, 1.3, 1.5),
         FiniteSpectrumConfig(grid_points=30, l_max=7)),
    ], ids=["headline", "split-intervals", "fine-grid", "explicit-lmax"])
    def test_pointwise_agreement(self, tr, geom, cfg):
        got, want = engine_and_oracle(tr, geom, cfg)
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-10 * np.abs(want))

    def test_equal_indices_give_zero(self):
        got, want = engine_and_oracle(MediumTransition(n_in=2.0, n_out=2.0),
                                      build_geometry_from_kr(5.0, 1.3, 2.0),
                                      FiniteSpectrumConfig(grid_points=20))
        assert np.all(got == 0.0) and np.all(want == 0.0)

    def failure_messages(self, cfg):
        tr = MediumTransition(n_in=2.0, n_out=1.5)
        geom = build_geometry_from_kr(3.0, 1.3, 1.5)
        messages = []
        for run in (lambda: spectrum_finite(tr, 1.3, geom, cfg),
                    lambda: engine_oracle.spectrum_values(tr, geom, cfg)):
            with pytest.raises(NumericalError) as info:
                run()
            messages.append(str(info.value))
        return messages

    def test_unattainable_tolerance(self):
        got, want = self.failure_messages(
            FiniteSpectrumConfig(grid_points=8, quad_rel_tol=1e-300))
        assert got == want
        assert got.startswith("omega_in quadrature failed to reach rel tol")

    def test_l_tail_failure(self, monkeypatch):
        # every converged point fails the tail test at this threshold
        monkeypatch.setattr(bubble, "_L_TAIL_TOL", 1e-300)
        monkeypatch.setattr(engine_oracle, "_L_TAIL_TOL", 1e-300)
        got, want = self.failure_messages(FiniteSpectrumConfig(grid_points=8))
        assert got == want
        assert got.startswith("l sum not converged by l=")


def test_nodes_do_not_depend_on_output_grid(monkeypatch):
    # the panels depend on K R alone: a 20x finer output grid adds columns
    # to the j_l(u) table and nothing to the j_l(v) node tables
    def node_columns(grid_points):
        columns = []

        def recording_table(lmax, x):
            columns.append(len(x))
            return sph_jn_table(lmax, x)

        monkeypatch.setattr(bubble, "sph_jn_table", recording_table)
        cfg = FiniteSpectrumConfig(grid_points=grid_points)
        spectrum_finite(HEADLINE[0], HEADLINE[1].n_liquid, HEADLINE[1], cfg)
        assert columns[0] == _grid_size(cfg)  # the j_l(u) table
        return sum(columns[1:])

    assert node_columns(50) == node_columns(1000)


class TestProblemSizeGuard:
    def test_oversized_problem_refused_before_any_table(self, monkeypatch):
        def no_table(*args):
            raise AssertionError("a Bessel table was built")

        monkeypatch.setattr(bubble, "sph_jn_table", no_table)
        tr = MediumTransition(n_in=2.0, n_out=1.5)
        geom = build_geometry_from_kr(1e6, 1.3, 1.5)
        start = time.perf_counter()
        with pytest.raises(DomainError, match="too large"):
            spectrum_finite(tr, 1.3, geom)
        assert time.perf_counter() - start < 1.0

    def test_benchmark_table_fits(self):
        # the largest table1 case: K R = 392, l_hard = 463
        cfg = FiniteSpectrumConfig()
        assert _engine_bytes(_l_hard(392.0, cfg), _grid_size(cfg)) \
            < bubble._MAX_ENGINE_BYTES / 50

    @pytest.mark.parametrize("kr, cfg", [
        (6.0, FiniteSpectrumConfig(grid_points=40)),
        (1.5, FiniteSpectrumConfig(grid_points=400)),
        (40.0, FiniteSpectrumConfig(grid_points=60)),
        (3.0, FiniteSpectrumConfig(grid_points=8, quad_rel_tol=1e-12)),
    ], ids=["small", "fine-grid", "large-l", "refined"])
    def test_estimate_bounds_measured_peak(self, kr, cfg):
        tr = MediumTransition(n_in=2.0, n_out=1.5)
        geom = build_geometry_from_kr(kr, 1.3, 1.5)
        kr = geom.k_gas_cutoff * geom.radius
        tracemalloc.start()
        try:
            spectrum_finite(tr, 1.3, geom, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= _engine_bytes(_l_hard(kr, cfg), _grid_size(cfg))
