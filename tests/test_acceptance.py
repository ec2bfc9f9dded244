"""Acceptance suite: every criterion exercised at its stated tolerance,
one printed PASS/FAIL line per criterion (run pytest with -s to see them).

The benchmark table (criterion 1) drives the real command-line tool and
takes a few minutes; everything else runs in seconds.
"""

import math

import numpy as np
import pytest

from sonophoton import (BubbleGeometry, MediumTransition,
                        build_geometry_from_kr)
from sonophoton.bubble import (FiniteSpectrumConfig, spectrum_finite,
                               totals_finite)
from sonophoton.cli import main
from sonophoton.core import HBAR, SPEED_OF_LIGHT
from sonophoton.homogeneous import (beta_sq_density, beta_sq_density_log,
                                    omega_sudden, photons_from_count_formula,
                                    spectrum_infinite, sudden_beta_sq,
                                    tail_log_slope, total_photons_closed_form,
                                    totals_closed_form)
from sonophoton.inverse import solve_n_in

from kernel_oracle import wronskian_kernel
from mode_oracle import R500, match_modes, normalization_slope, omega_for
from oracles import fit_line, oracle_j, rel_err, spherical_j, spherical_y


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} ({name}): {status}  {detail}")
    assert ok, f"acceptance criterion {number} ({name}) failed: {detail}"


TABLE1_CASES = ((2e4, 1.0), (71.0, 25.0), (68.0, 34.0), (9.0, 25.0),
                (1.0, 12.0))
TABLE1_REF_COUNT = (1.06e6, 1.00e6, 1.06e6, 0.955e6, 0.98e6)
TABLE1_REF_RATIO = (0.803, 0.750, 0.751, 0.750, 0.765)


def test_criterion_1_table1_reproduction(tmp_path):
    out = tmp_path / "table1.csv"
    code = main(["table1", "--output", str(out)])
    rows = []
    header = None
    for line in out.read_text().splitlines():
        if line.startswith("#"):
            continue
        if header is None:
            header = line.split(",")
            continue
        rows.append(dict(zip(header, line.split(","))))
    ok = code == 0 and len(rows) == 5
    details = []
    for row, want_n, want_r in zip(rows, TABLE1_REF_COUNT, TABLE1_REF_RATIO):
        n_fin = float(row["N_finite"])
        ratio = float(row["ratio_finite"])
        dev_n = n_fin / want_n - 1.0
        dev_r = ratio - want_r
        fin_over_closed = float(row["finite_over_closed"])
        ok = ok and abs(dev_n) <= 0.10 and abs(dev_r) <= 0.02 \
            and 0.9 <= fin_over_closed <= 1.1
        details.append(f"({row['n_gas_in']},{row['n_gas_out']}): "
                       f"N dev {100 * dev_n:+.1f}%, ratio dev {dev_r:+.4f}")
    report(1, "benchmark table", ok, "; ".join(details))


def test_criterion_2_closed_form_identities():
    rng = np.random.default_rng(8128)
    worst_energy = 0.0
    for _ in range(100):
        n_in, n_out = (float(v) for v in rng.uniform(1.0, 100.0, size=2))
        tr = MediumTransition(n_in=n_in, n_out=n_out)
        geom = build_geometry_from_kr(float(rng.uniform(5.0, 40.0)),
                                      float(rng.uniform(1.0, 1.8)), n_out,
                                      radius=float(rng.uniform(0.2, 2.0)) * 1e-6)
        summary = totals_closed_form(tr, geom)
        want = 0.75 * summary.photon_count * HBAR * geom.omega_max
        if summary.photon_count > 0.0:
            worst_energy = max(worst_energy,
                               rel_err(summary.total_energy, want))
    worst_count = 0.0
    for _ in range(100):
        n_in, n_out = (float(v) for v in rng.uniform(1.0, 100.0, size=2))
        n_liq = float(rng.uniform(1.0, 1.8))
        tr = MediumTransition(n_in=n_in, n_out=n_out)
        geom = build_geometry_from_kr(15.0, n_liq, n_out)
        a = total_photons_closed_form(tr, geom)
        b = photons_from_count_formula(n_in, n_out, n_liq, 15.0)
        if b > 0.0:
            worst_count = max(worst_count, rel_err(a, b))
    ok = worst_energy < 1e-12 and worst_count < 1e-12
    report(2, "closed-form identities", ok,
           f"E=(3/4)N hw err {worst_energy:.2e}; count forms err {worst_count:.2e}")


def test_criterion_3_sudden_limit_equivalence():
    rng = np.random.default_rng(20260810)
    worst = 0.0
    for _ in range(50):
        n_in, n_out = (float(v) for v in rng.uniform(1.0, 100.0, size=2))
        tr = MediumTransition(n_in=n_in, n_out=n_out, t0=1e-15)
        cap = omega_sudden(tr)
        target = sudden_beta_sq(tr)
        got = beta_sq_density(tr, 1e-3 * cap)
        worst = max(worst, rel_err(got, target))
    ok = worst < 1e-4
    report(3, "sudden-limit equivalence", ok, f"worst rel dev {worst:.2e}")


def test_criterion_4_exponential_tail():
    worst = 0.0
    for n_in, n_out in TABLE1_CASES + ((2.0, 3.0), (50.0, 65.0)):
        tr = MediumTransition(n_in=n_in, n_out=n_out, t0=1e-15)
        mean = tr.n_sq_mean
        coeffs = (math.pi * n_out * abs(n_in - n_out) * tr.t0 / (2.0 * mean),
                  math.pi * n_in * n_out * tr.t0 / mean,
                  math.pi * n_out * n_out * tr.t0 / mean)
        lo = max([8.0 / c for c in coeffs]
                 + [10.0 * omega_sudden(tr)])
        grid = np.linspace(lo, 2.0 * lo, 40)
        logs = [beta_sq_density_log(tr, w) for w in grid]
        slope, _ = fit_line(list(grid), logs)
        worst = max(worst, rel_err(slope, tail_log_slope(tr)))
    ok = worst < 0.02
    report(4, "exponential tail", ok, f"worst slope dev {worst:.2%}")


def test_criterion_5_figure2_shape():
    n_liq = 1.3
    tr = MediumTransition(n_in=2e4, n_out=1.0)
    geom = BubbleGeometry(500e-9, n_liq, 200e-9, 1.0)
    kr = geom.k_gas_cutoff * geom.radius
    cfg = FiniteSpectrumConfig()
    dens = spectrum_finite(tr, n_liq, geom, cfg)
    x = np.array(dens.dimensionless_x)
    y = np.array(dens.values)

    inf_vals = np.array([spectrum_infinite(tr, geom, w) for w in dens.grid])
    below = x <= kr * (1.0 + 1e-12)
    base = inf_vals[below][0] / x[below][0] ** 2
    quadratic = bool(np.all(np.abs(inf_vals[below] - base * x[below]**2)
                            <= 1e-10 * inf_vals[below].max()))
    hard_cut = bool(np.all(inf_vals[~below] == 0.0)) and \
        inf_vals[below][-1] > 0.5 * inf_vals[below].max()
    cut_near_11_5 = 11.0 <= kr <= 13.0

    max_jump = float(np.max(np.abs(np.diff(y)))) / float(np.max(y))
    smooth = max_jump <= 0.05

    summary = totals_finite(tr, n_liq, geom, cfg, spectral=dens)
    closed = total_photons_closed_form(tr, geom)
    n_dev = summary.photon_count / closed - 1.0
    n_ok = abs(n_dev) <= 0.10

    ok = quadratic and hard_cut and cut_near_11_5 and smooth and n_ok
    report(5, "spectrum shape", ok,
           f"quadratic={quadratic}, hard cut at x={kr:.2f}={hard_cut}, "
           f"max jump {max_jump:.2%} of peak, N dev vs closed {n_dev:+.1%}")


def test_criterion_6_two_branch_curve():
    pair12 = solve_n_in(12.0, 1e6, 1.3, 15.0)
    pair25 = solve_n_in(25.0, 1e6, 1.3, 15.0)
    resid = 0.0
    for n_out, pair in ((12.0, pair12), (25.0, pair25)):
        for root in (pair.n_in_low, pair.n_in_high):
            back = photons_from_count_formula(root, n_out, 1.3, 15.0)
            resid = max(resid, rel_err(back, 1e6))
    ok = (abs(pair12.n_in_low - 0.95) < 0.05
          and abs(pair12.n_in_high - 151.0) < 1.0
          and abs(pair25.n_in_low - 8.8) < 0.1
          and abs(pair25.n_in_high - 70.7) < 0.2
          and resid < 1e-8
          # the (9, 25) / (71, 25) benchmark pairing
          and abs(pair25.n_in_low - 9.0) < 0.2
          and abs(pair25.n_in_high - 71.0) < 0.5)
    report(6, "two-branch inverse", ok,
           f"n_out=12: ({pair12.n_in_low:.3f}, {pair12.n_in_high:.2f}); "
           f"n_out=25: ({pair25.n_in_low:.3f}, {pair25.n_in_high:.2f}); "
           f"max residual {resid:.1e}")


def test_criterion_7_special_function_suite():
    worst_cross = 0.0
    for l in range(1, 31):
        for x in np.geomspace(0.1, 100.0, 20):
            lhs = (spherical_j(l, x) * spherical_y(l - 1, x)
                   - spherical_j(l - 1, x) * spherical_y(l, x))
            worst_cross = max(worst_cross, rel_err(lhs, 1.0 / (x * x)))
    worst_oracle = 0.0
    for l in (0, 2, 5, 12, 30):
        for x in (0.3, 2.0, 9.4, 57.0):
            worst_oracle = max(worst_oracle,
                               rel_err(spherical_j(l, x), oracle_j(l, x)))
    worst_cont = 0.0
    delta = 1e-6
    for l in (1, 4, 9):
        for ar in (12.0, 20.0):  # oscillatory regime, a r > nu
            a = ar / 5e-7
            inside = wronskian_kernel(l + 0.5, a, a * (1 + 0.5 * delta), 5e-7)
            outside = wronskian_kernel(l + 0.5, a, a * (1 + 2.0 * delta), 5e-7)
            worst_cont = max(worst_cont, rel_err(inside, outside))
    ok = worst_cross < 1e-10 and worst_oracle < 1e-12 and worst_cont < 1e-5
    report(7, "special functions", ok,
           f"cross-product {worst_cross:.1e}, oracle {worst_oracle:.1e}, "
           f"kernel continuity {worst_cont:.1e}")


def test_criterion_8_mode_matching():
    # junction residuals and free-space normalization
    rng = np.random.default_rng(606)
    worst_junction = 0.0
    from oracles import sph_yn_table
    from sonophoton.specfun import sph_jn_table
    for _ in range(15):
        l = int(rng.integers(1, 9))
        n_inside = float(rng.uniform(0.8, 6.0))
        n_outside = float(rng.uniform(1.0, 1.8))
        omega = omega_for(float(rng.uniform(2.0, 18.0)), n_inside)
        mm = match_modes(l, omega, n_inside, n_outside, R500)
        k1 = n_inside * omega / SPEED_OF_LIGHT
        k2 = n_outside * omega / SPEED_OF_LIGHT
        x1, x2 = k1 * R500, k2 * R500
        jt1 = sph_jn_table(l, np.array([x1]))
        f = jt1[l, 0]
        fp = k1 * (jt1[l - 1, 0] - (l + 1) / x1 * jt1[l, 0])
        jt2 = sph_jn_table(l, np.array([x2]))
        yt2 = sph_yn_table(l, np.array([x2]))
        g = mm.amp_regular * jt2[l, 0] + mm.amp_irregular * yt2[l, 0]
        gp = k2 * (mm.amp_regular * (jt2[l - 1, 0] - (l + 1) / x2 * jt2[l, 0])
                   + mm.amp_irregular * (yt2[l - 1, 0] - (l + 1) / x2 * yt2[l, 0]))
        worst_junction = max(worst_junction, rel_err(g, f), rel_err(gp, fp))

    free = match_modes(2, omega_for(8.0, 1.3), 1.3, 1.3, R500)
    free_ok = (abs(free.amp_regular - 1.0) < 1e-12
               and abs(free.amp_irregular) < 1e-12
               and rel_err(free.a_nu_sq,
                           1.0 / (2.0 * SPEED_OF_LIGHT**2)) < 1e-12)

    # numerical delta-normalization oracle on the 5-case sample
    cases = [(1, 6.0, 1.5, 1.3), (2, 9.0, 2.0, 1.3), (1, 5.0, 1.0, 1.3),
             (3, 12.0, 4.0, 1.3), (2, 7.0, 1.2, 1.0)]
    worst_norm = 0.0
    for l, x1, n_inside, n_outside in cases:
        mm = match_modes(l, omega_for(x1, n_inside), n_inside, n_outside, R500)
        slope, want = normalization_slope(mm)
        worst_norm = max(worst_norm, rel_err(slope, want))

    ok = worst_junction < 1e-10 and free_ok and worst_norm < 0.01
    report(8, "mode matching", ok,
           f"junction residual {worst_junction:.1e}, free case {free_ok}, "
           f"delta-normalization oracle dev {worst_norm:.2%}")
