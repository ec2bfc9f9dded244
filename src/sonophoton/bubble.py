"""Finite-volume photon spectrum of a dielectric sphere in an ambient liquid.

Physical setup and derivation
-----------------------------

A sphere of radius R holds gas whose refractive index jumps suddenly
from n_gas_in to n_gas_out; the surrounding liquid (index n_liquid)
does not change.  The scalar field obeys eps(r,t) d2E/dt2 = c^2 lap E,
so across the sudden jump both E and eps dE/dt are continuous (the
equation linearizes in the pseudo-time d/dtau = eps d/dt).  Expanding
the field in the "in" eigenmodes before the jump and the "out"
eigenmodes after it, projecting the two matching conditions onto an
out mode v_i (frequency w_out) against an in mode u_j (frequency w_in)
gives the pair-creation coefficient

    beta_ij = (eps_out - eps_in) * [w_in w_out / (w_in + w_out)] * I_ij,
    I_ij    = integral over the bubble of v_i u_j d3x,

where eps = n^2 and the eps-difference is nonzero only inside r < R.
(The same algebra in unbounded space reproduces the textbook sudden
result |beta|^2 = (n_in - n_out)^2 / (4 n_in n_out) per polarization.)

Radial eigenmodes are A_nu J_nu(k r) / sqrt(r) Y_lm inside (regular at
the origin, k = n_gas w / c, nu = l + 1/2) and a combination of
J_nu / sqrt(r) and Y_nu / sqrt(r) with the liquid wavenumber outside.
For two interior modes the overlap integral is a Lommel integral,

    int_0^R J_nu(a r) J_nu(b r) r dr = R W[J_nu(a r), J_nu(b r)]_R
                                        / (a^2 - b^2),

which is where the wall Wronskian enters; a = n_gas_out w_out / c and
b = n_gas_in w_in / c.

Normalization.  Modes are delta-normalized in frequency under the
eps-weighted inner product.  Matching the interior solution to
B j_l + C y_l in the liquid and using the large-r asymptotics fixes

    |A_nu|^2 = n_liquid / (2 c^2 n_gas (B^2 + C^2)),

the free-space value 1/(2 c^2) when the indices match (match_modes in
the test suite's tests/mode_oracle.py computes this exact form).  As a
function of frequency 1/(B^2 + C^2) oscillates through narrow interface
(Mie-type) resonances whose peaks grow and narrow without bound as
n_gas / n_liquid grows; integrating them directly is numerically
hopeless for the index ratios of interest.
The spectrum integral only ever sees the product of this factor with a
kernel whose oscillation shares the same wall phase, and averaging
1/(B^2 + C^2) over one phase period has the exact value n_gas/n_liquid
independent of the amplitudes (the cross determinant of the matching
map is fixed by the j/y Wronskian).  The sinc^2-shaped Lommel kernel
filters out every oscillating harmonic of that period (its Fourier
transform vanishes at the harmonic spacing), so replacing |A_nu|^2 by
its phase average

    <|A_nu|^2> = 1 / (2 c^2)

is exact up to O(1/(K R)) edge corrections.  The smooth form is what
spectrum_finite integrates; the exact spiky form stays with the tests,
where the delta-normalization oracle checks it.

Assembled spectrum (both photon polarizations, applied here and only
here):

    dN/dw_out = 2 * (1/4) R^2 (Dn)^2 * sum_{l>=1} (2l+1) *
                int dw_in  K_l(w_in, w_out),
    K_l = [(n_gas_out w_out^2 + n_gas_in w_in^2) / (w_out + w_in)]^2
          * <|A|^2>_in <|A|^2>_out * 4 * [W/(a^2-b^2)]^2 ,

with the gas-side sharp cutoff applied to the in-side integration
range (b <= K) while the output grid extends smoothly past a = K: the
transparency cutoff lives in the mode content of the changing medium,
and cutting the out grid as well would discard the spectral weight
that finite-volume smearing pushes across the edge.  The l sum
self-truncates near l ~ K R because J_nu(a r) dies inside the bubble
for nu > a R ("emission bounded in angular momentum").

On the wavevector resonance b = a the frequency bracket reduces to
(c k)^2, which together with the 4 <|A|^2>^2 = 1/c^4 normalization is
fixed by requiring the R -> infinity limit to reproduce the closed-form
quadratic spectrum exactly (checked analytically via
sum_l (2l+1) J_nu(x)^2 = 2x/pi, and numerically in the test suite).
Off resonance the bracket pairs each index with its own frequency,
(n_out w_out^2 + n_in w_in^2); the alternative cross pairing
(n_in + n_out) w_in w_out agrees on resonance (and therefore in every
closed-form limit) but disagrees in the smeared-edge region, and the
benchmark emission scenarios with extreme index asymmetry single out
the direct pairing (see the decision notes shipped with the test
suite; the benchmark table itself is regression-tested).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (HBAR, SPEED_OF_LIGHT, BubbleGeometry, DomainError,
                   EmissionSummary, MediumTransition, NumericalError,
                   SpectralDensity)
from .homogeneous import POLARIZATIONS, _check_consistent
from .specfun import sph_jn_table

# Smooth (phase-averaged) mode normalization, per side; see module docstring.
A_NU_SQ_SMOOTH = 1.0 / (2.0 * SPEED_OF_LIGHT**2)

# Target quadrature panel width in units of the wall phase (radians).
_PANEL_WIDTH = 0.5 * math.pi
# In-side integration starts at this fraction of the cutoff; the kernel
# vanishes like a power of w_in at the origin so nothing is lost.
_OMEGA_IN_FLOOR = 1e-6
# AUTO l truncation fails when the l_hard term is at least this fraction
# of the l sum.
_L_TAIL_TOL = 1e-4
# |u^2 - v^2| < _DIAGONAL_WIDTH * max(u^2, 1e3) selects the geometric
# mean of the analytic diagonals of the Lommel kernel (_lommel_kernel).
# At the switch the direct quotient and the mean err alike, by up to
# ~3e-10 for u below ~30 and ~2e-9 at u = 400.
_DIAGONAL_WIDTH = 5e-7
# Panels per node chunk of the engine: one j_l(v) table serves this many
# panels of every rule, long enough to amortize the table's recurrence.
_CHUNK_PANELS = 8
# Elements per column block of the engine's weight matrix W.  Larger
# GEMMs wake a second BLAS thread, which costs more than it saves here.
_BLOCK_ELEMENTS = 1 << 12
# Kernel values per batch of the touching panels' direct sum.
_DIRECT_ELEMENTS = 1 << 13
# spectrum_finite refuses a problem whose engine arrays (_engine_bytes)
# would need more bytes than this, and spectral_grid a grid whose points
# would (at _POINT_BYTES each).
_MAX_ENGINE_BYTES = 1 << 30
# Upper estimate of the bytes a caller holds per output grid point: the
# two float tuples, the value columns and one CSV row (~380 B measured
# for `spectrum --model infinite`).
_POINT_BYTES = 512


@dataclass(frozen=True)
class FiniteSpectrumConfig:
    """Controls for the finite-volume spectrum evaluation.

    l_max=None means AUTO truncation: sum every l up to
    l_hard = ceil(K R) + 40 + ceil(4 (K R)^(1/3)) and raise NumericalError
    if the l_hard term is still 1e-4 of the sum or more.  An explicit
    l_max sums l = 1..l_max.  grid_points sets the number of samples up
    to the cutoff; the grid continues at the same spacing to
    grid_extend * cutoff so the smeared roll-off is part of the curve.
    """

    l_max: int | None = None
    quad_rel_tol: float = 1e-6
    grid_points: int = 200
    grid_extend: float = 1.3

    def __post_init__(self) -> None:
        if self.l_max is not None and self.l_max < 1:
            raise DomainError("explicit l_max must be >= 1")
        if not (0.0 < self.quad_rel_tol < 1.0):
            raise DomainError(
                f"quad_rel_tol must lie in (0, 1), got {self.quad_rel_tol!r}")
        if self.grid_points < 2:
            raise DomainError("grid_points must be >= 2")
        if not (1.0 <= self.grid_extend <= 4.0):
            raise DomainError("grid_extend must lie in [1, 4]")


_GAUSS_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gauss_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1].

    Newton's method on the three-term recurrence of P_order, from the
    Tricomi-style initial guess; no eigensolver, so numpy.polynomial is
    not imported and no LAPACK routine runs.
    """
    if order not in _GAUSS_CACHE:
        x = -np.cos(math.pi * (np.arange(order) + 0.75) / (order + 0.5))
        for _ in range(8):
            p_lo, p = np.ones_like(x), x.copy()
            for n in range(2, order + 1):
                p_lo, p = p, ((2 * n - 1) * x * p - (n - 1) * p_lo) / n
            dp = order * (x * p - p_lo) / (x * x - 1.0)
            x -= p / dp
        w = 2.0 / ((1.0 - x * x) * dp * dp)
        _GAUSS_CACHE[order] = (0.5 * (x - x[::-1]), 0.5 * (w + w[::-1]))
    return _GAUSS_CACHE[order]


def _l_hard(kr: float, config: FiniteSpectrumConfig) -> int:
    """Highest l of the angular sum (see FiniteSpectrumConfig)."""
    if config.l_max is not None:
        return config.l_max
    return math.ceil(kr) + 40 + math.ceil(4.0 * kr**(1.0 / 3.0))


def _grid_size(config: FiniteSpectrumConfig) -> int:
    """Number of output points of spectral_grid."""
    return config.grid_points + math.ceil(
        (config.grid_extend - 1.0) * config.grid_points)


def _engine_bytes(l_hard: int, n_points: int) -> int:
    """Upper estimate of the engine's live array bytes.

    Nine (l_hard + 1) x n_points arrays span the whole spectrum: the j_l(u)
    table and, for each of the first level's two rules, its direct sums
    and its three GEMM sums.  One node chunk adds its j_l(v) table and the
    one being built, M1..M3, the W block with two temporaries, the GEMM
    result, one direct-sum batch (up to eight arrays of _DIRECT_ELEMENTS)
    and four index arrays over two order-24 panels per point.
    """
    rows = l_hard + 1
    nodes = 36 * _CHUNK_PANELS                 # orders 12 and 24
    block = max(_BLOCK_ELEMENTS, 24 * _CHUNK_PANELS)
    columns = min(n_points, max(1, _BLOCK_ELEMENTS // (12 * _CHUNK_PANELS)))
    return 8 * rows * (9 * n_points + 2 * nodes + 3 * 24 * _CHUNK_PANELS
                       + 3 * columns) + 8 * (3 * block + 8 * _DIRECT_ELEMENTS
                                             + 4 * 2 * 24 * n_points)


def _panel_edges(v_min: float, v_max: float) -> np.ndarray:
    """Edges of the fewest equal panels on [v_min, v_max] no wider than
    _PANEL_WIDTH."""
    return np.linspace(v_min, v_max,
                       math.ceil((v_max - v_min) / _PANEL_WIDTH) + 1)


def _touching_panels(edges: np.ndarray,
                     u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First and last index of the panels that touch the edge nearest each
    u (panel k spans edges[k]..edges[k + 1])."""
    right = np.clip(np.searchsorted(edges, u), 1, edges.size - 1)
    near = right - ((u - edges[right - 1]) <= (edges[right] - u))
    return np.maximum(near - 1, 0), np.minimum(near, edges.size - 2)


def _diagonal(x: float | np.ndarray, jx: np.ndarray) -> np.ndarray:
    """lambda_l(x, x) for l = 1..L from jx = j_l(x), l = 0..L, of shape
    (L + 1, 1) or (L + 1, len(x))."""
    nu = (np.arange(1, jx.shape[0], dtype=float)[:, None] + 0.5) / x
    return (x / math.pi) * ((jx[:-1] - nu * jx[1:])**2
                            + (1.0 - nu**2) * jx[1:]**2)


def _lommel_kernel(u: float | np.ndarray, v: np.ndarray, ju: np.ndarray,
                   jv: np.ndarray) -> np.ndarray:
    """Dimensionless Lommel kernel lambda_l(u, v) for l = 1..L.

    lambda_l(u, v) = (2 sqrt(uv)/pi) [v j_l(u) j_{l-1}(v) - u j_{l-1}(u) j_l(v)]
                     / (u^2 - v^2),
    the wall-Wronskian overlap of the module docstring in the variables
    u = a R, v = b R; symmetric in (u, v).  jv holds j_l(v) for
    l = 0..L, shape (L + 1, len(v)).  u is one point with ju = j_l(u) of
    shape (L + 1,), or one point per column of v with ju of the shape of
    jv.  The result has shape (L, len(v)).

    The quotient loses digits as u^2 / |u^2 - v^2| (its two terms agree
    to that fraction) and, for u below ~1, as 1 / |u^2 - v^2| (their
    leading powers of u and v cancel).  Within
    |u^2 - v^2| < _DIAGONAL_WIDTH max(u^2, 1e3), lambda_l(u, v) is the
    geometric mean of the analytic diagonals lambda_l(u, u) and
    lambda_l(v, v) instead.  Its error is second order in v - u, since
    lambda_l is symmetric, and it keeps the (u v)^(l + 1/2) law of small
    arguments exactly.
    """
    if ju.ndim == 1:
        ju = ju[:, None]
    pref = 2.0 * np.sqrt(u * v) / math.pi
    denom = (u - v) * (u + v)
    # row l-1 holds v j_l(u) j_{l-1}(v) - u j_{l-1}(u) j_l(v); in place,
    # so a batch holds two (L, len(v)) arrays at most
    lam = v * jv[0:-1]
    lam *= ju[1:]
    cross = u * jv[1:]
    cross *= ju[0:-1]
    lam -= cross
    del cross
    with np.errstate(divide="ignore", invalid="ignore"):
        lam *= pref / denom
    close = np.abs(denom) < _DIAGONAL_WIDTH * np.maximum(u * u, 1e3)
    if np.any(close):
        # each root apart, so deep rows do not underflow; the diagonal is
        # >= 0, and abs() only guards its rounding
        lam = np.where(close, np.sqrt(np.abs(_diagonal(u, ju)))
                       * np.sqrt(np.abs(_diagonal(v, jv))), lam)
    return lam


class _SpectrumEngine:
    """The l-summed omega_in integral at every output point at once.

    Works in the dimensionless variables u = n_gas_out w_out R / c (the
    output points) and v = n_gas_in w_in R / c on [v_min, K R].  All
    points share one set of equal Gauss-Legendre panels no wider than
    _PANEL_WIDTH (_panel_edges), which depends on K R alone, not on the
    output grid; so j_l(u) is tabulated once per spectrum and j_l(v) once
    per node chunk and rule.  Expanding lambda^2,

        I_l(u) = j_l(u)^2 (M1 W) - 2u j_l(u) j_{l-1}(u) (M2 W)
                 + u^2 j_{l-1}(u)^2 (M3 W),

    with M1 = v^2 j_{l-1}(v)^2, M2 = v j_{l-1}(v) j_l(v), M3 = j_l(v)^2
    and W(v, u) = weight * Gauss weight * 4uv / (pi^2 (u^2 - v^2)^2):
    three GEMMs (one BLAS call on M1..M3 stacked), summed over node chunks
    of _CHUNK_PANELS panels and column blocks of W before the j_l(u)
    factors are applied.  The split cancels as v -> u, so the two panels
    that touch the edge nearest each u, which cover u +- half a panel,
    are zeroed in W and summed directly with _lommel_kernel, in batches
    of (point, node) pairs (every pair at K R <= pi/2: one panel).  Order
    12 against 24 on the same panels estimates the error; points that
    miss quad_rel_tol are redone on bisected panels, twice at most.
    """

    def __init__(self, n_gas_in: float, n_gas_out: float, kr: float,
                 u: np.ndarray, config: FiniteSpectrumConfig):
        self.n_in = n_gas_in
        self.n_out = n_gas_out
        self.config = config
        self.l_hard = _l_hard(kr, config)
        self.l_weights = 2.0 * np.arange(1, self.l_hard + 1) + 1.0
        self.u = u
        self.ju = sph_jn_table(self.l_hard, u)
        self.edges = _panel_edges(_OMEGA_IN_FLOOR * kr, kr)

    def _rules(self, edges: np.ndarray, orders: tuple[int, ...],
               cols: np.ndarray) -> list[np.ndarray]:
        """I_l(u), l = 1..l_hard, at the points u[cols]: one (l_hard, cols)
        array per Gauss-Legendre order, each rule on every panel of edges.
        Each chunk of _CHUNK_PANELS panels builds one j_l(v) table for the
        nodes of all the orders.  The GEMM outputs M1 W, M2 W, M3 W add up
        over every chunk and block and are combined once per rule."""
        u = self.u[cols]
        # no copy of the j_l(u) table while every point is still open
        ju = self.ju if cols.size == self.u.size else self.ju[:, cols]
        first, last = _touching_panels(edges, u)
        n_panels = edges.size - 1
        totals = [np.zeros((self.l_hard, u.size)) for _ in orders]
        sums = [np.zeros((3, self.l_hard, u.size)) for _ in orders]
        rules = [_gauss_nodes(order) for order in orders]
        for p0 in range(0, n_panels, _CHUNK_PANELS):
            p1 = min(p0 + _CHUNK_PANELS, n_panels)
            mids = 0.5 * (edges[p0 + 1:p1 + 1] + edges[p0:p1])
            halves = 0.5 * (edges[p0 + 1:p1 + 1] - edges[p0:p1])
            nodes = [(mids[:, None] + halves[:, None] * x[None, :]).ravel()
                     for x, _ in rules]
            jv_all = sph_jn_table(self.l_hard, np.concatenate(nodes))
            touching = np.flatnonzero((last >= p0) & (first < p1))
            lo = np.maximum(first[touching], p0) - p0
            hi = np.minimum(last[touching], p1 - 1) + 1 - p0
            start = 0
            for (_, ref_w), v, acc, s in zip(rules, nodes, totals, sums):
                order = ref_w.size
                jv = jv_all[:, start:start + v.size]
                start += v.size
                gw = (halves[:, None] * ref_w[None, :]).ravel()
                # (column, node) pairs of the touching panels, by column
                count = (hi - lo) * order
                pair_col = np.repeat(touching, count)
                pair_row = np.arange(pair_col.size) + np.repeat(
                    lo * order - (np.cumsum(count) - count), count)
                self._direct(acc, u, ju, v, gw, jv, pair_col, pair_row)
                self._split(s, u, v, gw, jv, pair_col, pair_row)
            del jv, jv_all  # before the next chunk builds its table
        jl, jlm1 = ju[1:], ju[:-1]
        for acc, (s1, s2, s3) in zip(totals, sums):
            s1 *= jl
            s1 *= jl
            acc += s1
            s2 *= jl
            s2 *= jlm1
            s2 *= 2.0 * u
            acc -= s2
            s3 *= jlm1
            s3 *= jlm1
            s3 *= u * u
            acc += s3
        return totals

    def _weight(self, v: np.ndarray, u: np.ndarray) -> np.ndarray:
        """((n_out v^2 + n_in u^2) / (n_out v + n_in u))^2, broadcast."""
        w = v * v * self.n_out + u * u * self.n_in
        w /= v * self.n_out + u * self.n_in
        w *= w
        return w

    def _direct(self, acc: np.ndarray, u: np.ndarray, ju: np.ndarray,
                v: np.ndarray, gw: np.ndarray, jv: np.ndarray,
                pair_col: np.ndarray, pair_row: np.ndarray) -> None:
        """Adds lambda^2 * weight * Gauss weight over the (column, node)
        pairs of the touching panels to acc, in batches of at most
        _DIRECT_ELEMENTS kernel values."""
        step = max(1, _DIRECT_ELEMENTS // (self.l_hard + 1))
        for b0 in range(0, pair_col.size, step):
            col = pair_col[b0:b0 + step]
            row = pair_row[b0:b0 + step]
            uc, vr = u[col], v[row]
            lam = _lommel_kernel(uc, vr, ju[:, col], jv[:, row])
            lam *= lam
            lam *= self._weight(vr, uc) * gw[row]
            starts = np.flatnonzero(np.diff(col, prepend=-1))
            acc[:, col[starts]] += np.add.reduceat(lam, starts, axis=1)

    def _split(self, s: np.ndarray, u: np.ndarray, v: np.ndarray,
               gw: np.ndarray, jv: np.ndarray, pair_col: np.ndarray,
               pair_row: np.ndarray) -> None:
        """Adds one node chunk's M1 W, M2 W, M3 W to s, the touching
        (column, node) pairs left out."""
        n_l = self.l_hard
        m = np.empty((3, n_l, v.size))
        np.multiply(jv[:-1], v, out=m[0])
        m[0] *= m[0]
        np.multiply(jv[:-1], jv[1:], out=m[1])
        m[1] *= v
        np.multiply(jv[1:], jv[1:], out=m[2])
        m = m.reshape(3 * n_l, v.size)
        width = max(1, _BLOCK_ELEMENTS // v.size)
        cuts = np.searchsorted(pair_col, np.arange(0, u.size + width, width))
        for k, c0 in enumerate(range(0, u.size, width)):
            c1 = min(c0 + width, u.size)
            ub = u[c0:c1]
            w = self._weight(v[:, None], ub)
            w *= gw[:, None]
            if cuts[k + 1] > cuts[k]:
                block = slice(cuts[k], cuts[k + 1])
                w[pair_row[block], pair_col[block] - c0] = 0.0
            # times 4uv / (pi^2 (u^2 - v^2)^2); Gauss nodes lie inside their
            # panels, so v != u off the touching panels
            d = np.subtract.outer(v, ub)
            d *= np.add.outer(v, ub)
            d *= d
            w /= d
            w *= ((4.0 / math.pi**2) * v)[:, None]
            w *= ub
            s[:, :, c0:c1] += (m @ w).reshape(3, n_l, c1 - c0)

    def sums(self) -> np.ndarray:
        """sum_l (2l+1) I_l(u) over every l = 1..l_hard at every point u.

        Raises NumericalError for the lowest point whose quadrature or
        l sum does not converge.
        """
        cfg = self.config
        cols = np.arange(self.u.size)
        edges = self.edges
        prev, cur = self._rules(edges, (12, 24), cols)
        out = np.empty(self.u.size)
        failures: dict[int, str] = {}
        for level in (1, 2, 3):
            if level >= 2:
                edges = np.linspace(edges[0], edges[-1], 2 * edges.size - 1)
                prev, (cur,) = cur, self._rules(edges, (24,), cols)
            # numpy sums, not BLAS, so the result cannot depend on threads
            total = np.sum(self.l_weights[:, None] * cur, axis=0)
            scale = np.where(total != 0.0, np.abs(total), 1.0)
            diff = np.abs(cur - prev)
            diff *= self.l_weights[:, None]
            err = np.sum(diff, axis=0)
            done = err <= cfg.quad_rel_tol * scale
            if cfg.l_max is None:
                top = self.l_weights[-1] * cur[-1]
                tail = done & (total > 0.0) & (top >= _L_TAIL_TOL * total)
                for j in np.flatnonzero(tail):
                    failures[int(cols[j])] = (
                        f"l sum not converged by l={self.l_hard} at "
                        f"x_out={float(self.u[cols[j]])!r} (last relative "
                        f"term {top[j] / total[j]:.3e})")
            out[cols[done]] = total[done]
            cols, prev, cur = cols[~done], prev[:, ~done], cur[:, ~done]
            if cols.size == 0:
                break
        for j, col in enumerate(cols):
            worst = int(np.argmax(np.abs(cur[:, j] - prev[:, j]))) + 1
            failures[int(col)] = (
                f"omega_in quadrature failed to reach rel tol "
                f"{cfg.quad_rel_tol} at x_out={float(self.u[col])!r} "
                f"(worst l={worst})")
        if failures:
            raise NumericalError(failures[min(failures)])
        return out


def spectral_grid(geometry: BubbleGeometry,
                  config: FiniteSpectrumConfig | None = None
                  ) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Output grid for spectra: (omega_out in rad/s, x = k_out R).

    Runs from one spacing above zero to grid_extend times the gas-side
    cutoff, with a sample exactly at the cutoff.  A grid whose points
    would need more than _MAX_ENGINE_BYTES is refused with DomainError
    before it is built.
    """
    config = config or FiniteSpectrumConfig()
    n_points = _grid_size(config)
    if n_points * _POINT_BYTES > _MAX_ENGINE_BYTES:
        raise DomainError(
            f"output grid too large: {n_points} points need "
            f"~{n_points * _POINT_BYTES / 2**30:.3g} GiB, above the "
            f"{_MAX_ENGINE_BYTES / 2**30:g} GiB limit; lower grid_points")
    kr = geometry.k_gas_cutoff * geometry.radius
    h = kr / config.grid_points
    x_grid = h * np.arange(1, n_points + 1)
    omega_grid = x_grid * SPEED_OF_LIGHT / (geometry.n_out * geometry.radius)
    return (tuple(float(w) for w in omega_grid),
            tuple(float(x) for x in x_grid))


def spectrum_finite(transition: MediumTransition, n_liquid: float,
                    geometry: BubbleGeometry,
                    config: FiniteSpectrumConfig | None = None) -> SpectralDensity:
    """Sampled finite-volume dN/d omega_out (both polarizations).

    The grid runs from one spacing above zero up to grid_extend times
    the gas-side cutoff frequency, with a sample exactly at the cutoff.
    All points are evaluated together on one shared node set (see
    _SpectrumEngine).  A problem whose engine arrays would exceed
    _MAX_ENGINE_BYTES is refused with DomainError before any is built.
    """
    config = config or FiniteSpectrumConfig()
    _check_consistent(transition, geometry)
    if not math.isclose(n_liquid, geometry.n_liquid, rel_tol=1e-12):
        raise DomainError(
            f"n_liquid={n_liquid!r} disagrees with geometry "
            f"({geometry.n_liquid!r})")
    n_in, n_out = transition.n_in, transition.n_out
    radius = geometry.radius
    kr = geometry.k_gas_cutoff * radius
    c = SPEED_OF_LIGHT
    l_hard, n_points = _l_hard(kr, config), _grid_size(config)
    need = _engine_bytes(l_hard, n_points)
    if need > _MAX_ENGINE_BYTES:
        raise DomainError(
            f"finite-volume spectrum too large: l up to {l_hard} at "
            f"{n_points} output points needs ~{need / 2**30:.3g} GiB of "
            f"arrays, above the {_MAX_ENGINE_BYTES / 2**30:g} GiB limit; "
            f"lower K R or grid_points")

    omega_tuple, x_tuple = spectral_grid(geometry, config)
    engine = _SpectrumEngine(n_in, n_out, kr, np.asarray(x_tuple), config)
    dn = transition.delta_n
    prefactor = POLARIZATIONS * 0.25 * dn * dn * radius / (c * n_in)
    values = tuple(float(prefactor * s) for s in engine.sums())
    return SpectralDensity(grid=omega_tuple, values=values,
                           dimensionless_x=x_tuple)


def _trapz_richardson(x: np.ndarray, y: np.ndarray) -> float:
    """Trapezoid with one Richardson step against the half-resolution grid."""
    fine = float(np.trapezoid(y, x))
    idx = list(range(0, x.size, 2))
    if idx[-1] != x.size - 1:
        idx.append(x.size - 1)
    coarse = float(np.trapezoid(y[idx], x[idx]))
    return fine + (fine - coarse) / 3.0


def totals_finite(transition: MediumTransition, n_liquid: float,
                  geometry: BubbleGeometry,
                  config: FiniteSpectrumConfig | None = None,
                  spectral: SpectralDensity | None = None) -> EmissionSummary:
    """Photon number and energy from the finite-volume spectrum.

    Integrates the sampled spectrum (trapezoid plus Richardson
    refinement); mean photon energy is reported against hbar times the
    cutoff frequency.  A precomputed SpectralDensity for the same
    parameters may be passed to avoid recomputation.
    """
    if spectral is None:
        spectral = spectrum_finite(transition, n_liquid, geometry, config)
    x = np.asarray(spectral.grid)
    y = np.asarray(spectral.values)
    count = _trapz_richardson(x, y)
    energy = _trapz_richardson(x, HBAR * x * y)
    return EmissionSummary.from_totals(count, energy, HBAR * geometry.omega_max)
