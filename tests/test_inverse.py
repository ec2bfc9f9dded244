import math

import numpy as np
import pytest

from sonophoton import DomainError, NumericalError, inverse
from sonophoton.homogeneous import photons_from_count_formula
from sonophoton.inverse import BranchPair, solve_n_in, sweep_figure1

from oracles import rel_err

# golden rows generated from the closed form at build time
GOLDEN_SWEEP = [
    (5.0, 0.03350360927244621, 746.1882627839835),
    (30.0, 13.428381853383785, 67.0222227686511),
    (60.0, 44.8562162619901, 80.25643489351863),
    (90.0, 76.79052268604241, 105.4817667164059),
]


class TestSolveNIn:
    def test_reference_pair_n_out_12(self):
        pair = solve_n_in(12.0, 1e6, 1.3, 15.0)
        assert rel_err(pair.n_in_low, 0.9545162237081105) < 1e-12
        assert rel_err(pair.n_in_high, 150.86176266400996) < 1e-12

    def test_reference_pair_n_out_25(self):
        pair = solve_n_in(25.0, 1e6, 1.3, 15.0)
        assert rel_err(pair.n_in_low, 8.853239009650653) < 1e-12
        assert rel_err(pair.n_in_high, 70.59563164607959) < 1e-12

    def test_back_substitution(self):
        pair = solve_n_in(25.0, 1e6, 1.3, 15.0)
        for root in (pair.n_in_low, pair.n_in_high):
            back = photons_from_count_formula(root, 25.0, 1.3, 15.0)
            assert rel_err(back, 1e6) < 1e-8

    def test_vieta_product(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n_out = float(rng.uniform(0.5, 120.0))
            target = float(10.0 ** rng.uniform(2.0, 8.0))
            pair = solve_n_in(n_out, target, 1.3, 15.0)
            assert rel_err(pair.n_in_low * pair.n_in_high, n_out**2) < 1e-10

    def test_branch_involution(self):
        # the two roots are exchanged by n_in -> n_out^2 / n_in
        pair = solve_n_in(40.0, 2.5e6, 1.2, 12.0)
        assert rel_err(40.0**2 / pair.n_in_high, pair.n_in_low) < 1e-12

    def test_vanishing_target_double_root(self):
        pair = solve_n_in(12.0, 1e-12, 1.3, 15.0)
        assert abs(pair.n_in_low / 12.0 - 1.0) < 1e-5
        assert abs(pair.n_in_high / 12.0 - 1.0) < 1e-5

    def test_discriminant_positive(self):
        # a positive discriminant: two distinct roots
        pair = solve_n_in(12.0, 1e6, 1.3, 15.0)
        assert pair.n_in_low < pair.n_in_high

    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            solve_n_in(-1.0, 1e6)
        with pytest.raises(DomainError):
            solve_n_in(12.0, 0.0)

    @pytest.mark.parametrize("n_out, n_liquid", [
        (25.0, 0.5), (1e-160, 1e-110)])
    def test_n_liquid_below_one_is_refused(self, n_out, n_liquid):
        # as every geometry refuses it, so n_liquid^3 cannot underflow to 0
        # and leave the back-substituted count to divide by it
        with pytest.raises(DomainError, match="n_liquid must be >= 1"):
            solve_n_in(n_out, 1e6, n_liquid=n_liquid)

    def test_branch_pair_ordering_enforced(self):
        with pytest.raises(DomainError):
            BranchPair(n_in_low=2.0, n_in_high=1.0)


class TestSweep:
    def test_contains_reference_points(self):
        rows = sweep_figure1(1e6, 1.3, 15.0, [12.0, 25.0])
        assert rel_err(rows[0][1], 0.9545162237081105) < 1e-12
        assert rel_err(rows[1][2], 70.59563164607959) < 1e-12

    def test_vieta_every_row(self):
        grid = list(np.linspace(1.0, 100.0, 34))
        for n_out, low, high in sweep_figure1(1e6, 1.3, 15.0, grid):
            assert rel_err(low * high, n_out**2) < 1e-10

    def test_golden_regression(self):
        grid = [row[0] for row in GOLDEN_SWEEP]
        rows = sweep_figure1(1e6, 1.3, 15.0, grid)
        for got, want in zip(rows, GOLDEN_SWEEP):
            assert rel_err(got[1], want[1]) < 1e-12
            assert rel_err(got[2], want[2]) < 1e-12

    def test_rejects_unsorted_grid(self):
        with pytest.raises(DomainError):
            sweep_figure1(1e6, 1.3, 15.0, [2.0, 1.0])

    def test_empty_grid(self):
        assert sweep_figure1(1e6, 1.3, 15.0, []) == []


def pointwise_sweep(n_target, n_liquid, k_obs_r, grid):
    """The sweep as one solve_n_in per point, each followed by its Vieta
    check."""
    rows = []
    for n_out in grid:
        pair = solve_n_in(n_out, n_target, n_liquid, k_obs_r)
        product = pair.n_in_low * pair.n_in_high
        if abs(product - n_out * n_out) > inverse._VIETA_TOL * n_out * n_out:
            raise NumericalError(
                f"Vieta identity violated at n_out={n_out!r}: {product!r}")
        rows.append((n_out, pair.n_in_low, pair.n_in_high))
    return rows


def outcome(run):
    """("ok", the result of run()) or (exception type, message)."""
    try:
        return "ok", run()
    except (DomainError, NumericalError) as exc:
        return type(exc), str(exc)


class TestSweepErrors:
    """A failing grid raises what one solve_n_in per point raises first."""

    @pytest.mark.parametrize("grid", [
        [0.0, 1.0], [-1.0, 2.0], [math.nan], [1.0, math.nan, 3.0],
        [5.0, math.nan, 3.0], [1.0, math.nan, -1.0], [1.0, 2.0, math.inf],
        [math.inf]])
    def test_invalid_n_out(self, grid):
        got = outcome(lambda: sweep_figure1(1e6, 1.3, 15.0, grid))
        assert got[0] is DomainError
        assert got == outcome(lambda: pointwise_sweep(1e6, 1.3, 15.0, grid))

    def test_passing_double_root_points_before_a_failing_one(self):
        # both roots lie within 1e-7 of n_out at 1e3 and 1e4, so the array
        # pass hands them to solve_n_in, which passes them; inf then fails
        grid = [1e3, 1e4, math.inf]
        for n_out in grid[:2]:
            pair = solve_n_in(n_out, 1e-14, 1.3, 15.0)
            assert not inverse._far_from_double_root(pair.n_in_low, n_out)
            assert not inverse._far_from_double_root(pair.n_in_high, n_out)
        got = outcome(lambda: sweep_figure1(1e-14, 1.3, 15.0, grid))
        assert got[0] is DomainError
        assert got == outcome(lambda: pointwise_sweep(1e-14, 1.3, 15.0, grid))

    @pytest.mark.parametrize("bad", [0.0, -2.0, math.nan, math.inf])
    @pytest.mark.parametrize("name", ["n_target", "n_liquid", "k_obs_r"])
    def test_invalid_scalar_argument(self, name, bad):
        args = {"n_target": 1e6, "n_liquid": 1.3, "k_obs_r": 15.0, name: bad}
        got = outcome(lambda: sweep_figure1(**args, n_out_grid=[12.0, 25.0]))
        assert got[0] is DomainError and name in got[1]
        assert got == outcome(lambda: pointwise_sweep(**args, grid=[12.0, 25.0]))

    @pytest.mark.parametrize("tol, target, start", [
        ("RESIDUAL_TOL", 1e6, 1), ("_QUADRATIC_TOL", 1e-14, 2),
        ("_VIETA_TOL", 1e6, 0)])
    def test_failing_check_at_lowest_n_out(self, monkeypatch, tol, target,
                                           start):
        # a zero tolerance fails a check wherever rounding leaves any
        # residual: on this grid at some points after the first, not all
        grid = (1.0 + 99.0 * np.arange(50) / 49).tolist()[start:]
        assert outcome(lambda: sweep_figure1(target, 1.3, 15.0, grid))[0] == "ok"
        monkeypatch.setattr(inverse, tol, 0.0)
        assert outcome(lambda: pointwise_sweep(target, 1.3, 15.0, grid[:1]))[0] == "ok"
        want = outcome(lambda: pointwise_sweep(target, 1.3, 15.0, grid))
        assert want[0] is NumericalError
        assert outcome(lambda: sweep_figure1(target, 1.3, 15.0, grid)) == want

    def test_double_root_points_get_the_quadratic_check(self, monkeypatch):
        # with the count check off, only the quadratic residual, which
        # solve_n_in alone tests, can fail these points near the double root
        grid = (1.0 + 99.0 * np.arange(50) / 49).tolist()[2:]
        monkeypatch.setattr(inverse, "RESIDUAL_TOL", math.inf)
        monkeypatch.setattr(inverse, "_QUADRATIC_TOL", 0.0)
        want = outcome(lambda: pointwise_sweep(1e-14, 1.3, 15.0, grid))
        assert want[0] is NumericalError and "quadratic residual" in want[1]
        assert outcome(lambda: sweep_figure1(1e-14, 1.3, 15.0, grid)) == want

    @pytest.mark.parametrize("n_out, target, n_liquid, k_obs_r", [
        (1e-170, 1e6, 1.3, 15.0), (12.0, 1e6, 1e200, 15.0),
        (12.0, 1e6, 1.3, 1e120), (1e155, 1e300, 1e3, 15.0)],
        ids=["c0-underflow", "n-liquid-cube", "k-obs-r-cube",
             "nan-discriminant"])
    def test_over_and_underflow_are_typed(self, n_out, target, n_liquid,
                                          k_obs_r):
        # outcome() lets anything but DomainError and NumericalError out
        want = outcome(lambda: solve_n_in(n_out, target, n_liquid, k_obs_r))
        assert want[0] in (DomainError, NumericalError)
        for grid in ([n_out], [0.5 * n_out, n_out]):
            got = outcome(lambda: sweep_figure1(target, n_liquid, k_obs_r, grid))
            assert got == outcome(
                lambda: pointwise_sweep(target, n_liquid, k_obs_r, grid))
            assert got[0] is want[0]

    @pytest.mark.parametrize("n_liquid", [0.5, 1e-120])
    def test_n_liquid_below_one_refused_as_pointwise(self, n_liquid):
        # refused before any solve, so before n_liquid^3 could underflow
        want = (DomainError,
                f"n_liquid must be >= 1 and finite, got {n_liquid!r}")
        assert outcome(lambda: solve_n_in(1.0, 1e6, n_liquid, 15.0)) == want
        for sweep in (sweep_figure1, pointwise_sweep):
            for grid in ([1.0, 2.0, 50.0], [1.0, 1e200]):
                assert outcome(lambda: sweep(1e6, n_liquid, 15.0, grid)) \
                    == want

    def test_double_root_and_overflow_match_pointwise(self):
        # a target of 5e-324 puts L at 0 and the roots on the double root,
        # except where n_out^2 overflows and the low root becomes inf
        on_double_root = [1.0, 2.0, 50.0]
        assert (sweep_figure1(5e-324, 1.3, 15.0, on_double_root)
                == pointwise_sweep(5e-324, 1.3, 15.0, on_double_root))
        for sweep in (sweep_figure1, pointwise_sweep):
            with pytest.raises(NumericalError):
                sweep(5e-324, 1.3, 15.0, [1.0, 1e200])
