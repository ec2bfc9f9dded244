"""Property tests of the finite-volume spectrum over its parameter domain.

Small bubbles (K R <= 8) and coarse grids keep each example to a few
milliseconds, so the per-point reference engine can referee every one.
Examples are derived from the test itself (derandomize), so a run is
reproducible.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from sonophoton import MediumTransition, NumericalError, build_geometry_from_kr
from sonophoton.bubble import FiniteSpectrumConfig, spectrum_finite

import engine_oracle

PROPERTY = settings(max_examples=25, deadline=None, derandomize=True,
                    database=None)
INDEX = st.floats(1.0, 50.0)
KR = st.floats(0.1, 4.0)
N_LIQUID = st.floats(1.0, 2.0)
GRID_POINTS = st.integers(4, 24)


def spectrum(n_in, n_out, n_liquid, kr, grid_points):
    tr = MediumTransition(n_in=n_in, n_out=n_out)
    geom = build_geometry_from_kr(kr, n_liquid, n_out)
    cfg = FiniteSpectrumConfig(grid_points=grid_points)
    return tr, geom, cfg


def outcome(run):
    """("ok", values) or ("error", message) of a spectrum evaluation."""
    try:
        return "ok", np.array(run())
    except NumericalError as exc:
        return "error", str(exc)


def assert_matches_oracle(tr, geom, cfg):
    got = outcome(lambda: spectrum_finite(tr, geom.n_liquid, geom, cfg).values)
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
    kind, values = outcome(
        lambda: spectrum_finite(tr, n_liquid, geom, cfg).values)
    if kind == "ok":
        assert np.all(np.isfinite(values)) and np.all(values >= 0.0)


@PROPERTY
@given(n=INDEX, n_liquid=N_LIQUID, kr=KR, grid_points=GRID_POINTS)
def test_no_index_change_gives_zero(n, n_liquid, kr, grid_points):
    tr, geom, cfg = spectrum(n, n, n_liquid, kr, grid_points)
    assert all(v == 0.0 for v in spectrum_finite(tr, n_liquid, geom,
                                                 cfg).values)


@PROPERTY
@given(n_in=INDEX, n_out=INDEX, n_liquid=N_LIQUID, kr=st.floats(0.1, 8.0),
       grid_points=GRID_POINTS)
def test_engine_matches_per_point_oracle(n_in, n_out, n_liquid, kr,
                                         grid_points):
    assert_matches_oracle(*spectrum(n_in, n_out, n_liquid, kr, grid_points))


def test_small_bubble_matches_per_point_oracle():
    # at K R <= pi/2 there is one panel and every node pair is summed
    # directly, so the GEMM split of lambda^2, which cancels when u and v
    # are both small, never runs
    assert_matches_oracle(*spectrum(1.0, 1.5, 1.0, 0.1, 24))
