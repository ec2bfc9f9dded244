import math

import numpy as np
import pytest
from mpmath import mp

from sonophoton import DomainError
from sonophoton.specfun import log_sinh, sph_jn_table

from kernel_oracle import cylinder_j, cylinder_pair_at, wronskian_kernel
from oracles import (assert_close, oracle_j, oracle_j_table_mp,
                     oracle_wronskian_fd, oracle_y, rel_err, spherical_j,
                     spherical_j_prime, spherical_y, spherical_y_prime)


class TestSphericalJ:
    def test_j0_closed_form(self):
        assert_close(spherical_j(0, 1.0), math.sin(1.0) / 1.0, rel=1e-14)

    def test_zero_argument(self):
        assert spherical_j(0, 0.0) == 1.0
        assert spherical_j(1, 0.0) == 0.0
        assert spherical_j(7, 0.0) == 0.0

    def test_against_series_oracle(self):
        # frozen oracle value for the headline case
        assert_close(spherical_j(5, 10.0), -0.05553451162145218, rel=1e-12)
        for l in (0, 1, 2, 5, 10, 20, 30):
            for x in (0.1, 0.5, 1.0, 3.7, 10.0, 34.5, 100.0):
                assert_close(spherical_j(l, x), oracle_j(l, x), rel=1e-12,
                             what=f"j_{l}({x})")

    def test_deep_evanescent(self):
        # x << l: the ratios j_l / j_{l-1} ~ x / (2l+1) are small and
        # their product falls toward the bottom of the double range
        assert_close(spherical_j(10, 0.5), 7.064123963661878e-14, rel=1e-12)
        assert_close(spherical_j(60, 2.0), oracle_j(60, 2.0), rel=1e-11)

    def test_near_sin_zero_normalization(self):
        # j_0(pi) = 0; the Miller normalization must fall back to j_1
        for x in (math.pi, 2.0 * math.pi, 3.0 * math.pi):
            for l in (2, 5, 11):
                assert_close(spherical_j(l, x), oracle_j(l, x), rel=1e-12,
                             what=f"j_{l}({x}) near sin zero")

    def test_table_over_benchmark_range(self):
        # the orders and arguments the benchmark table reaches (l_hard up
        # to 463, x up to the top of the 68/34 output grid, 1.305 K R with
        # K R = 392.3), on both recurrence branches: x < lmax goes
        # downward, x >= lmax upward
        # (the mpmath oracle is slow: each (l, x) is evaluated once)
        xs = np.array([92.0, 137.5, 250.0, 391.9, 462.5, 470.0, 490.0,
                       511.96])
        want = {}
        for lmax in (100, 300, 400, 463):
            tab = sph_jn_table(lmax, xs)
            for l in sorted({0, 1, 100, 250, lmax} & set(range(lmax + 1))):
                for x, got in zip(xs.tolist(), tab[l]):
                    if (l, x) not in want:
                        want[l, x] = oracle_j(l, x)
                    assert_close(got, want[l, x], rel=1e-12,
                                 what=f"j_{l}({x}) in a table to {lmax}")

    def test_small_argument_table_to_lmax_10(self):
        # the engine's small-argument table: lmax 10, every x below 10, so
        # every column recurs downward from _miller_start(10); x just below
        # lmax is the hardest case.  Relative error away from the zeros of
        # j_l, where it measures the zero's position, not the recurrence
        zeros = {l: [float(mp.besseljzero(l + 0.5, m)) for m in range(1, 5)]
                 for l in range(11)}
        xs = np.concatenate((np.geomspace(1e-7, 1.0, 40, endpoint=False),
                             np.linspace(1.0, 9.99, 300), [9.999, 9.9999]))
        tab = sph_jn_table(10, xs)
        for col, x in enumerate(xs.tolist()):
            want = oracle_j_table_mp(10, x)
            for l in range(11):
                if all(abs(x - z) >= 1e-2 for z in zeros[l]):
                    assert_close(tab[l, col], float(want[l]), rel=1e-13,
                                 what=f"j_{l}({x}) in a table to 10")

    def test_table_at_engine_smallest_nodes(self):
        # the engine's first node chunk starts near 1e-6 K R, where the
        # downward ratios j_l / j_{l-1} are smallest and j_l falls fastest.
        # At these x, j_l falls monotonically in l; once it leaves the
        # normal range the table must hold underflowed values only
        xs = [1.2e-5, 3.7e-5, 4e-4, 3e-3]
        normal = np.finfo(float).tiny
        want = {x: [] for x in xs}
        for x in xs:
            while not want[x] or abs(want[x][-1]) >= normal:
                want[x].append(oracle_j(len(want[x]), x))
        for lmax in (47, 63, 463):
            tab = sph_jn_table(lmax, np.array(xs))
            for col, x in enumerate(xs):
                for l, got in enumerate(tab[:, col]):
                    what = f"j_{l}({x}) in a table to {lmax}"
                    if l < len(want[x]) - 1:
                        assert_close(got, want[x][l], rel=1e-12, what=what)
                    else:
                        assert abs(got) < normal, what

    def test_table_at_tiny_arguments(self):
        # the ratio recurrence runs down to x = 0 (where 1/x = inf makes
        # every ratio 0); it must agree with the series oracle at tiny x
        # and underflow to 0, never to NaN, as x^l leaves the double range
        xs = [0.0, 1e-300, 1e-200, 1e-100, 1e-60, 1e-20, 0.99e-8, 1e-8,
              1.01e-8, 1e-6]
        normal = np.finfo(float).tiny
        want = {x: [] for x in xs}
        for x in xs:
            while len(want[x]) <= 463 and (not want[x]
                                           or abs(want[x][-1]) >= normal):
                want[x].append(oracle_j(len(want[x]), x))
        for lmax in (1, 3, 63, 463):
            tab = sph_jn_table(lmax, np.array(xs))
            assert np.all(np.isfinite(tab)), lmax
            for col, x in enumerate(xs):
                for l, got in enumerate(tab[:, col]):
                    what = f"j_{l}({x}) in a table to {lmax}"
                    if l < len(want[x]) and abs(want[x][l]) >= normal:
                        assert_close(got, want[x][l], rel=5e-15, what=what)
                    else:
                        assert abs(got) < normal, what

    def test_mixed_call_equals_one_column_calls(self):
        # both branches and the edges of the downward one in one call:
        # x = 0 and tiny x, the oscillatory region l < x < lmax, x = lmax
        # (upward) and beyond; each column bit for bit as if alone
        xs = np.array([0.0, 1e-300, 1e-9, 0.3, 5.0, 20.5, 47.3, 62.9, 63.0,
                       80.0, 0.0, 400.0])
        tab = sph_jn_table(63, xs)
        assert tab.shape == (64, xs.size)
        for col, x in enumerate(xs.tolist()):
            alone = sph_jn_table(63, np.array([x]))[:, 0]
            assert tab[:, col].tobytes() == alone.tobytes(), x

    def test_random_arguments_below_lmax(self):
        # x < lmax recurs downward on the ratios j_l / j_{l-1}; where
        # l < x their denominators j_{l-1} / j_l pass through zeros.  Every
        # order of each random column, against the column's largest |j_l|
        rng = np.random.default_rng(20240521)
        for lmax, n in ((10, 60), (63, 40), (463, 20)):
            xs = rng.uniform(0.0, lmax, n)
            tab = sph_jn_table(lmax, xs)
            for col, x in enumerate(xs.tolist()):
                want = np.array([float(w) for w in oracle_j_table_mp(lmax, x)])
                err = np.abs(tab[:, col] - want).max()
                assert err <= 1e-13 * np.abs(want).max(), \
                    f"j_l({x}) in a table to {lmax}: {err!r}"

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            spherical_j(-1, 1.0)
        with pytest.raises(DomainError):
            spherical_j(2, -0.5)
        with pytest.raises(DomainError):
            spherical_j(2, math.inf)

    def test_table_domain_errors(self):
        with pytest.raises(DomainError, match="one-dimensional"):
            sph_jn_table(3, np.ones((2, 2)))
        for bad in (-0.5, math.nan, math.inf):
            with pytest.raises(DomainError, match="finite and >= 0"):
                sph_jn_table(3, np.array([1.0, bad]))


class TestSphericalY:
    def test_y0_at_half_pi(self):
        assert abs(spherical_y(0, math.pi / 2.0)) < 1e-14

    def test_y1_closed_form(self):
        want = -math.cos(1.0) - math.sin(1.0)
        assert_close(spherical_y(1, 1.0), want, rel=1e-14)
        assert_close(spherical_y(1, 1.0), -1.3817732906760362, rel=1e-13)

    def test_against_oracle(self):
        assert_close(spherical_y(7, 3.0), -29.476169224453846, rel=1e-12)
        for l in (0, 1, 3, 7, 15, 30):
            for x in (0.1, 1.0, 3.0, 10.0, 100.0):
                assert_close(spherical_y(l, x), oracle_y(l, x), rel=1e-12,
                             what=f"y_{l}({x})")

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            spherical_y(0, 0.0)
        with pytest.raises(DomainError):
            spherical_y(0, -1.0)


class TestIdentities:
    def test_cross_product_wronskian(self):
        # j_l y_{l-1} - j_{l-1} y_l = 1/x^2, an oracle-free self test
        for l in range(1, 31):
            for x in np.geomspace(0.1, 100.0, 25):
                lhs = (spherical_j(l, x) * spherical_y(l - 1, x)
                       - spherical_j(l - 1, x) * spherical_y(l, x))
                assert rel_err(lhs, 1.0 / (x * x)) < 1e-10, (l, x)

    def test_recurrence_residual(self):
        for l in range(1, 31):
            for x in np.geomspace(0.1, 100.0, 17):
                jm, j0, jp = (spherical_j(l - 1, x), spherical_j(l, x),
                              spherical_j(l + 1, x))
                resid = x * (jm + jp) - (2 * l + 1) * j0
                scale = max(abs(x * jm), abs(x * jp), abs((2 * l + 1) * j0))
                assert abs(resid) <= 1e-10 * scale, (l, x)

    def test_spherical_cylinder_consistency(self):
        for l in (0, 2, 9, 30):
            for x in (0.1, 1.0, 14.2, 100.0):
                want = math.sqrt(math.pi / (2.0 * x)) * cylinder_j(l + 0.5, x)
                assert_close(spherical_j(l, x), want, rel=1e-10)

    def test_derivatives_vs_finite_difference(self):
        for l in (1, 4, 9):
            for x in (0.7, 5.0, 40.0):
                h = 1e-6 * x
                fd = (spherical_j(l, x + h) - spherical_j(l, x - h)) / (2 * h)
                assert rel_err(spherical_j_prime(l, x), fd) < 1e-8
                fd = (spherical_y(l, x + h) - spherical_y(l, x - h)) / (2 * h)
                assert rel_err(spherical_y_prime(l, x), fd) < 1e-8


class TestWronskian:
    def test_equal_arguments_vanish(self):
        sample = cylinder_pair_at(2.5, 3e6, 3e6, 5e-7)
        assert sample.value == 0.0

    def test_antisymmetry(self):
        rng = np.random.default_rng(20260810)
        for _ in range(25):
            l = int(rng.integers(1, 12))
            a = float(rng.uniform(0.5, 30.0)) * 1e6
            b = float(rng.uniform(0.5, 30.0)) * 1e6
            r = float(rng.uniform(0.2, 2.0)) * 1e-6
            wab = cylinder_pair_at(l + 0.5, a, b, r).value
            wba = cylinder_pair_at(l + 0.5, b, a, r).value
            assert rel_err(wab, -wba) < 1e-12

    def test_against_finite_difference_oracle(self):
        want = oracle_wronskian_fd(1, 1e7, 2e7, 5e-7)
        got = cylinder_pair_at(1.5, 1e7, 2e7, 5e-7).value
        assert_close(got, want, rel=1e-9)

    def test_kernel_high_precision_quotient(self):
        # frozen from the arbitrary-precision direct quotient
        got = wronskian_kernel(1.5, 1.0e7, 0.5e7, 5e-7)
        assert_close(got, 2.053971901727565e-08, rel=1e-11)

    def test_kernel_symmetry(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            l = int(rng.integers(1, 10))
            a = float(rng.uniform(1.0, 25.0)) * 1e6
            b = float(rng.uniform(1.0, 25.0)) * 1e6
            k1 = wronskian_kernel(l + 0.5, a, b, 5e-7)
            k2 = wronskian_kernel(l + 0.5, b, a, 5e-7)
            assert rel_err(k1, k2) < 1e-10

    def test_kernel_seam_at_switch_boundary(self):
        # evaluation-method seam: limit formula just inside the window vs
        # direct quotient just outside; the probes straddle the boundary
        # closely so genuine kernel variation (O(nu) per relative db in
        # the evanescent regime) stays below the method-error budget
        delta = 1e-6
        for l in (1, 3, 8):
            for a in (4e6, 1.2e7):
                inside = wronskian_kernel(l + 0.5, a, a * (1 + 0.9999 * delta),
                                          5e-7)
                outside = wronskian_kernel(l + 0.5, a, a * (1 + 1.0001 * delta),
                                           5e-7)
                assert rel_err(inside, outside) < 1e-8, (l, a)

    def test_kernel_continuity_across_switch(self):
        # half- vs double-window probes in the oscillatory regime
        # (a r > nu, where the spectrum integrand lives): the genuine
        # first-order kernel variation is O(delta) there
        delta = 1e-6
        for l in (1, 4, 9):
            for ar in (12.0, 20.0):
                a = ar / 5e-7
                inside = wronskian_kernel(l + 0.5, a, a * (1 + 0.5 * delta), 5e-7)
                outside = wronskian_kernel(l + 0.5, a, a * (1 + 2.0 * delta), 5e-7)
                assert rel_err(inside, outside) < 1e-5, (l, ar)

    def test_kernel_finite_on_dense_crossing_grid(self):
        a = 9e6
        for b in a * (1.0 + np.linspace(-5e-6, 5e-6, 101)):
            val = wronskian_kernel(2.5, a, float(b), 5e-7)
            assert math.isfinite(val)

    def test_dw_db_matches_finite_difference(self):
        a, r = 8e6, 5e-7
        h = a * 1e-7
        sample = cylinder_pair_at(3.5, a, a, r)
        fd = (cylinder_pair_at(3.5, a, a + h, r).value
              - cylinder_pair_at(3.5, a, a - h, r).value) / (2 * h)
        assert rel_err(sample.dw_db, fd) < 1e-6

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            cylinder_pair_at(1.5, -1.0, 2.0, 1.0)
        with pytest.raises(DomainError):
            cylinder_pair_at(1.2, 1.0, 2.0, 1.0)  # not a half integer


class TestLogSinh:
    def test_small_argument_matches_log(self):
        assert abs(log_sinh(1e-8) - math.log(1e-8)) < 1e-12

    def test_unit_argument(self):
        assert_close(log_sinh(1.0), math.log(math.sinh(1.0)), rel=1e-14)
        assert_close(log_sinh(1.0), math.log(1.1752011936438014), rel=1e-13)

    def test_large_argument_asymptotic(self):
        assert_close(log_sinh(1000.0), 1000.0 - math.log(2.0), rel=1e-12)
        assert_close(log_sinh(1e6), 1e6 - math.log(2.0), rel=1e-12)

    def test_midrange_continuity(self):
        # seams of the three evaluation branches
        for x0 in (1e-4, 20.0):
            lo = log_sinh(x0 * (1 - 1e-9))
            hi = log_sinh(x0 * (1 + 1e-9))
            assert abs(lo - hi) < 1e-7 * max(abs(lo), 1.0)

    def test_zero_and_negative(self):
        assert log_sinh(0.0) == -math.inf
        with pytest.raises(DomainError):
            log_sinh(-1e-9)
