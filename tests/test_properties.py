"""Property tests of the finite-volume spectrum and the inverse solve over
their parameter domains, and of the CLI's plain-argv parse against
argparse.

Small bubbles (K R <= 8) and coarse grids keep each example to a few
milliseconds, so the per-point reference engine can referee every one.
Examples are derived from the test itself (derandomize), so a run is
reproducible.
"""

import math
import sys

import numpy as np
from hypothesis import assume, example, given, settings, strategies as st
from mpmath import mpf, workprec

from sonophoton import (DomainError, MediumTransition, NumericalError,
                        build_geometry_from_kr)
from sonophoton import cli
from sonophoton.bubble import FiniteSpectrumConfig, spectrum_finite
from sonophoton.core import SPEED_OF_LIGHT
from sonophoton.homogeneous import (POLARIZATIONS, _spectrum_root,
                                    photons_from_count_formula,
                                    total_photons_closed_form)
from sonophoton.inverse import RESIDUAL_TOL, solve_n_in, sweep_figure1

import engine_oracle

PROPERTY = settings(max_examples=25, deadline=None, derandomize=True,
                    database=None)
INDEX = st.floats(1.0, 50.0)
KR = st.floats(0.1, 4.0)
N_LIQUID = st.floats(1.0, 2.0)
GRID_POINTS = st.integers(4, 24)
N_OUT = st.floats(1.0, 100.0)
TARGET = st.floats(4.0, 8.0).map(lambda e: 10.0**e)


def spectrum(n_in, n_out, n_liquid, kr, grid_points):
    tr = MediumTransition(n_in=n_in, n_out=n_out)
    geom = build_geometry_from_kr(kr, n_liquid)
    cfg = FiniteSpectrumConfig(grid_points=grid_points)
    return tr, geom, cfg


def outcome(run):
    """("ok", values) or ("error", message) of a spectrum evaluation."""
    try:
        return "ok", np.array(run())
    except NumericalError as exc:
        return "error", str(exc)


def assert_matches_oracle(tr, geom, cfg):
    got = outcome(lambda: spectrum_finite(tr, geom, cfg).values)
    want = outcome(lambda: engine_oracle.spectrum_values(tr, geom, cfg))
    assert got[0] == want[0]
    if got[0] == "error":
        assert got[1] == want[1]
    else:
        assert np.all(np.abs(got[1] - want[1]) <= 1e-10 * np.abs(want[1]))


@PROPERTY
@given(n_in=INDEX, n_out=INDEX, n_liquid=N_LIQUID, kr=KR,
       grid_points=GRID_POINTS)
def test_finite_and_non_negative(n_in, n_out, n_liquid, kr, grid_points):
    tr, geom, cfg = spectrum(n_in, n_out, n_liquid, kr, grid_points)
    kind, values = outcome(lambda: spectrum_finite(tr, geom, cfg).values)
    if kind == "ok":
        assert np.all(np.isfinite(values)) and np.all(values >= 0.0)


@PROPERTY
@given(n=INDEX, n_liquid=N_LIQUID, kr=KR, grid_points=GRID_POINTS)
def test_no_index_change_gives_zero(n, n_liquid, kr, grid_points):
    tr, geom, cfg = spectrum(n, n, n_liquid, kr, grid_points)
    assert all(v == 0.0 for v in spectrum_finite(tr, geom, cfg).values)


@PROPERTY
@given(n_in=INDEX, n_out=INDEX, n_liquid=N_LIQUID, kr=st.floats(0.1, 8.0),
       grid_points=GRID_POINTS)
# n_in / n_out = 1/39 puts the weight's pole close below the first panel;
# without its grading the engine is 1.06e-10 from the oracle here
@example(n_in=1.0, n_out=39.0, n_liquid=1.75, kr=0.5, grid_points=4)
def test_engine_matches_per_point_oracle(n_in, n_out, n_liquid, kr,
                                         grid_points):
    assert_matches_oracle(*spectrum(n_in, n_out, n_liquid, kr, grid_points))


# Every accepted index (n_in^2 + n_out^2 a normal float) and radius (up to
# 5.6e102 m), log-uniform, and indices that differ by a relative 1e-15..1.
LOG_INDEX = st.floats(-323.3, 153.97).map(lambda e: 10.0**e)
LOG_RADIUS = st.floats(-323.3, 102.74).map(lambda e: 10.0**e)
# The first-order bound on the relative error of the squared root: 12
# roundings inside it count twice or once, and the squaring once.
ROOT_SQ_TOL = 13 * 2.0**-53


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(n_in=LOG_INDEX, n_out=LOG_INDEX, radius=LOG_RADIUS,
       near=st.one_of(st.none(), st.floats(-15.0, 0.0)))
def test_spectrum_root_squared_matches_mpmath(n_in, n_out, radius, near):
    # the square of _spectrum_root against POLARIZATIONS (Dn)^2 R /
    # (4 c n_in) at 200 bits: within ROOT_SQ_TOL wherever that is a normal
    # float, and above the float range only where it is
    if near is not None:
        n_out = n_in * (1.0 + 10.0**near)
    assume(sys.float_info.min <= n_in * n_in + n_out * n_out < math.inf)
    with workprec(200):
        exact = (POLARIZATIONS * (mpf(n_in) - mpf(n_out))**2 * mpf(radius)
                 / (4 * mpf(SPEED_OF_LIGHT) * mpf(n_in)))
        try:
            root = _spectrum_root(MediumTransition(n_in=n_in, n_out=n_out),
                                  radius)
        except NumericalError:
            root = math.inf
        square = root * root
        top = sys.float_info.max
        if sys.float_info.min <= exact <= top * (1 - ROOT_SQ_TOL):
            assert abs(square - exact) <= ROOT_SQ_TOL * exact
        elif exact >= top * (1 + ROOT_SQ_TOL):
            assert square == math.inf


def plain_count(tr, geom):
    """The closed-form count in the operation order it had before its
    mantissa form, (Dn)^2 / (9 pi n_in n_out) (RK)^3, and whether every step
    of it is a normal float."""
    dn = tr.delta_n
    steps = [dn * dn, 9.0 * math.pi * tr.n_in]
    steps.append(steps[1] * tr.n_out)
    steps.append(steps[0] / steps[2] if steps[2] else math.inf)
    steps.append((geom.radius * geom.k_gas_cutoff(tr.n_out))**3)
    steps.append(steps[3] * steps[4])
    return steps[-1], all(sys.float_info.min <= x < math.inf for x in steps)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(n_in=st.floats(-200.0, 153.97).map(lambda e: 10.0**e),
       n_out=st.floats(-200.0, 153.97).map(lambda e: 10.0**e),
       k_obs_r=st.floats(-100.0, 50.0).map(lambda e: 10.0**e))
def test_count_keeps_the_plain_quotients_bits(n_in, n_out, k_obs_r):
    # scaling by a power of two is exact, so wherever the plain quotient's
    # steps are normal floats the mantissa form rounds as they do
    assume(sys.float_info.min <= n_in * n_in + n_out * n_out < math.inf)
    tr = MediumTransition(n_in=n_in, n_out=n_out)
    geom = build_geometry_from_kr(k_obs_r, 1.3)
    try:
        want, normal = plain_count(tr, geom)
    except DomainError:     # K R or K has no finite cube
        normal = False
    assume(normal)
    assert total_photons_closed_form(tr, geom) == want


def test_small_bubble_matches_per_point_oracle():
    # at K R = 0.1 every u and v lies below 2, so the explicit l sum of
    # the small-argument block replaces the closed form, which cancels
    # there, at every node pair
    assert_matches_oracle(*spectrum(1.0, 1.5, 1.0, 0.1, 24))


@PROPERTY
@given(n_out=N_OUT, target=TARGET)
def test_branch_pair_obeys_vieta_and_back_substitutes(n_out, target):
    pair = solve_n_in(n_out, target)
    product = pair.n_in_low * pair.n_in_high
    assert abs(product - n_out * n_out) <= 1e-12 * n_out * n_out
    for root in (pair.n_in_low, pair.n_in_high):
        back = photons_from_count_formula(root, n_out, 1.3, 15.0)
        assert abs(back - target) <= RESIDUAL_TOL * target


@PROPERTY
@given(grid=st.lists(N_OUT, min_size=1, max_size=8, unique=True),
       target=TARGET)
def test_sweep_rows_equal_pointwise_solves(grid, target):
    grid = sorted(grid)
    want = []
    for n_out in grid:
        pair = solve_n_in(n_out, target, 1.3, 15.0)
        want.append((n_out, pair.n_in_low, pair.n_in_high))
    assert sweep_figure1(target, 1.3, 15.0, grid) == want


def cli_grid(lo, span, points):
    """An n_out grid built as the sweep command builds it."""
    return lo + span * np.arange(points) / (points - 1)


@PROPERTY
@given(grid=st.one_of(
           st.lists(N_OUT, min_size=1, max_size=200, unique=True).map(sorted),
           st.builds(cli_grid, st.floats(0.5, 50.0), st.floats(0.1, 500.0),
                     st.integers(2, 200))),
       target=st.floats(-16.0, 9.0).map(lambda e: 10.0**e))
@example(grid=cli_grid(1.0, 99.0, 200), target=1e-11)
def test_sweep_equals_pointwise_solves_near_double_root(grid, target):
    # below a target of ~1e-11 the roots lie within 1e-7 of n_out, where
    # the quadratic's residual replaces the back-substituted count; at
    # 1e-11 on the sweep command's default grid they do so from n_out ~ 3
    want = []
    for n_out in np.asarray(grid).tolist():
        pair = solve_n_in(n_out, target, 1.3, 15.0)
        want.append((n_out, pair.n_in_low, pair.n_in_high))
    rows = sweep_figure1(target, 1.3, 15.0, grid)
    assert rows == want
    assert all(type(value) is float for row in rows for value in row)


CLI = cli._build_parser()
# argparse keeps the subparsers action, and each parser's options, in _actions
COMMANDS = next(action.choices for action in CLI._actions
                if action.dest == "command")
# values no option accepts plain: non-numbers, a bad choice, values that
# start with "-" (argparse takes "-5" and "-1e5" as values), option strings
BAD_VALUES = st.sampled_from(["abc", "", "1e", "1.5.2", "0x10", "bogus",
                              "Both", "-5", "-1e5", "-", "--", "--tol"])
FORMS = ("exact", "abbreviated", "equals", "unknown")


def valid_value(action):
    """Values the option's type converts and its choices admit."""
    if action.choices is not None:
        return st.sampled_from(action.choices)
    if action.type is int:
        return st.integers(2, 10**6).map(str)
    if action.type is float:
        return st.one_of(st.floats(1e-3, 1e6).map(repr),
                         st.integers(1, 10**4).map(str),
                         st.sampled_from(["2e4", "1E-3", "inf", " 7", "1_0"]))
    return st.sampled_from(["out.csv", "run.cfg", "a=b"])


@st.composite
def cli_argvs(draw):
    """(argv, plain): a command and pairs of its declared options and values.
    A plain argv has every required option, exact option strings and valid
    values.  Any other has about a quarter of them changed: an
    abbreviation, --option=value, an unknown option or a bad value in a
    pair, a required option left out, or the last token dropped.  Options
    may repeat in either."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    actions = [action for action in COMMANDS[command]._actions
               if action.option_strings and action.nargs is None]
    plain = draw(st.booleans())

    def change():
        return not plain and draw(st.integers(0, 3)) == 0

    chosen = [action for action in actions
              if action.required and not change()]
    chosen += draw(st.lists(st.sampled_from(actions), max_size=5))
    argv = [command]
    for action in chosen:
        flag, value = action.option_strings[-1], draw(valid_value(action))
        form = draw(st.sampled_from(FORMS)) if change() else "exact"
        if change():
            value = draw(BAD_VALUES)
        if form == "abbreviated":
            flag = flag[:draw(st.integers(3, len(flag) - 1))]
        elif form == "unknown":
            flag = "--frequency"
        argv += [f"{flag}={value}"] if form == "equals" else [flag, value]
    if len(argv) > 1 and change():
        argv.pop()
    return argv, plain


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=cli_argvs())
@example(case=([], False))
@example(case=(["--version"], False))
@example(case=(["spectrum", "-h"], False))
@example(case=(["table1"], True))
@example(case=(["sweep", "--n-out-points", "-5"], False))
@example(case=(["totals", "--n-in", "2", "--n-out", "12", "--model", "bogus"],
               False))
def test_plain_parse_equals_argparse(case):
    argv, plain = case
    got = cli._parse_plain(argv)
    if plain:
        assert got is not None
    if got is not None:
        assert got == vars(CLI.parse_args(argv))
