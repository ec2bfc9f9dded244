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

Assembled spectrum (both photon polarizations, entered once, through
homogeneous._spectrum_root, as in spectrum_infinite):

    dN/dw_out = 2 * (1/4) R^2 (Dn)^2 * sum_{l>=1} (2l+1) *
                int dw_in  K_l(w_in, w_out),
    K_l = [(n_gas_out w_out^2 + n_gas_in w_in^2) / (w_out + w_in)]^2
          * <|A|^2>_in <|A|^2>_out * 4 * [W/(a^2-b^2)]^2 ,

with the gas-side sharp cutoff applied to the in-side integration
range (b <= K) while the output grid extends smoothly past a = K: the
transparency cutoff lives in the mode content of the changing medium,
and cutting the out grid as well would discard the spectral weight
that finite-volume smearing pushes across the edge.  The terms of the
l sum die off past l ~ K R because J_nu(a r) dies inside the bubble for
nu > a R ("emission bounded in angular momentum"); the sum itself is
taken in closed form (below), with no truncation.

On the wavevector resonance b = a the frequency bracket reduces to
(c k)^2, which together with the 4 <|A|^2>^2 = 1/c^4 normalization is
fixed by requiring the R -> infinity limit to reproduce the closed-form
quadratic spectrum exactly (checked analytically via
sum_l (2l+1) J_nu(x)^2 = 2x/pi, and numerically in the test suite).
Off resonance the bracket pairs each index with its own frequency,
(n_out w_out^2 + n_in w_in^2), in _direct_weight, its one home: the
quadrature (_sums) integrates the weight spectrum_finite hands it.  The
cross pairing (n_in + n_out) w_in w_out agrees on resonance (so in every
closed-form limit) but not in the smeared-edge region; the benchmark
table's regression test pins the direct one (the cross pairing moves its
2e4/1 row out of bounds), and no first-principles check exists (ROADMAP).

Angular sum in closed form.  In u = a R and v = b R the kernel is
lambda_l(u, v) = (2 sqrt(uv) / pi) L_l(u, v), with the Lommel integral
L_l(u, v) = int_0^1 j_l(u r) j_l(v r) r^2 dr.  The addition theorem
sin(k|x - x'|) / (k|x - x'|) = sum_l (2l+1) j_l(k r) j_l(k r') P_l(cos g)
(DLMF 10.60), integrated with x and x' over the unit ball, sums every l:

    sum_{l>=0} (2l+1) L_l^2 = (1/(48 u v)) int_0^2 (4 + s)(2 - s)^2
                                            sin(u s) sin(v s) ds,

where (pi/12)(4 + s)(2 - s)^2 is the volume in which two unit balls a
distance s apart overlap: the bubble's autocorrelation smears the
infinite-volume spectrum.  Without the l = 0 term this is elementary,

    F(u, v) = sum_{l>=1} (2l+1) lambda_l(u, v)^2
            = [G(u-v) - G(u+v)] / (24 pi^2)
              - [sinc(u-v) - sinc(u+v)]^2 / (pi^2 u v),
    G(k)    = int_0^2 (s^3 - 12 s + 16) cos(k s) ds
            = 12/k^2 - 12 sin(2k)/k^3 + 12 sin(k)^2/k^4,   G(0) = 12,

so the spectrum carries no l-truncation error (_closed_form).  F is a
difference of the whole series and its l = 0 term, which cancel at
least as 1/min(u, v)^2.  Where u and v are both below 2 the engine sums
l = 1..10 term by term instead (_small_block), each L_l by the series
j_l(x) = sum_a c_la x^(l+2a) (DLMF 10.53.1) integrated term by term in r,

    L_l(u, v) = sum_{a,b>=0} c_la c_lb u^(l+2a) v^(l+2b) / (2l+2a+2b+3),
    c_la      = (-1/2)^a / (a! (2l+2a+1)!!),

and so it does for the output points below 1/2 against the nodes above 2
(_lommel_block, by the Lommel quotient), where the terms fall as u^(2l).
"""

from __future__ import annotations

import functools
import math
import sys

import numpy as np

from .core import (_MAX_ENGINE_BYTES, _POINT_BYTES, HBAR, SPEED_OF_LIGHT,
                   BubbleGeometry, DomainError, EmissionSummary,
                   FiniteSpectrumConfig, MediumTransition, NumericalError,
                   SpectralDensity, check_grid_points)
from .homogeneous import _finite, _spectrum_root
from .specfun import sph_jn_table

# Target quadrature panel width in units of the wall phase (radians).  The
# integrand is entire in v on the whole range; at this width the order
# _VALUE_ORDER rule errs by up to ~2e-11, and the order _ESTIMATE_ORDER
# rule's difference from it is >= 300x inside the default tolerance
# (README).
_PANEL_WIDTH = 4.0 * math.pi
# Gauss-Legendre orders: at every level, the value and its error estimate
# |I^_VALUE_ORDER - I^_ESTIMATE_ORDER| on the same panels.
_VALUE_ORDER = 24
_ESTIMATE_ORDER = 16
# Each level after the first bisects every panel; the finest panels are
# pi/2 wide.
_LEVELS = 4
# spectrum_finite refuses a first pass of more (node, point) pairs, for time.
_MAX_NODE_PAIRS = 1 << 30
# In-side integration starts at this fraction of the cutoff; the kernel
# vanishes like a power of w_in at the origin so nothing is lost.
_OMEGA_IN_FLOOR = 1e-6
# If n_out exceeds n_in, the direct weight's pole at v = -(n_in / n_out) u
# lies a small fraction of the first panel's width below its left end, and
# the order-24 rule there errs by up to ~1.6e-9 (n_in / n_out = 1/25 at K R
# 138); that panel is split at these fractions of its width, and then errs
# <= 1.5e-14.
_GRADING = 0.25**np.arange(3, 0, -1)
# The most (node, output point) pairs in a column block of the engine and
# nodes in a tile of a pass, small enough for OpenBLAS to use one thread.
_BLOCK_ELEMENTS = 1 << 15
# The closed form cancels against its l = 0 term: with one argument small
# to ~4e-16 / min(u, v)^2 relative, with both far worse (1e-4 at u, v ~
# 0.05).  The pairs with u and v both below _SMALL_ARG are summed over
# l = 1.._SMALL_L term by term, each Lommel integral from its double power
# series (_small_block, _LOMMEL_SERIES); for u v < 4 the l = _SMALL_L term
# is < 1e-25 of the sum.  The output points below _TINY_ARG against the
# nodes at or above _SMALL_ARG take the same l sum from the Lommel
# quotient (_lommel_block).  The nodes below _TINY_ARG against the points
# at or above _SMALL_ARG keep the closed form: their pairs carry a weight
# ~v^3, so its 1/v^2 loss stays below roundoff of the sum.
_SMALL_ARG = 2.0
_TINY_ARG = 0.5
_SMALL_L = 10
# Taylor coefficients in k^2, to below 1e-17 at |k| = 1, of
# G(k) = int_0^2 (s^3 - 12 s + 16) cos(k s) ds, whose moments are
# int_0^2 s^j (s^3 - 12 s + 16) ds = 96 2^j / ((j + 1)(j + 2)(j + 4)),
# and of sinc k = sin(k) / k.
_G_TAYLOR = np.array([(-4.0)**n * 96.0 / math.factorial(2 * n)
                      / ((2 * n + 1) * (2 * n + 2) * (2 * n + 4))
                      for n in range(13)])
_SINC_TAYLOR = np.array([(-1.0)**n / math.factorial(2 * n + 1)
                         for n in range(10)])
# The double series of L_l (module docstring) to a < 12 (below _SMALL_ARG
# the next terms are < 1e-17 of the sum): the exponents l + 2a and
# _LOMMEL_SERIES[l - 1, a, b] = c_la c_lb / (2l+2a+2b+3).
_SERIES_POWERS = np.arange(1, _SMALL_L + 1)[:, None] + 2 * np.arange(12)
_SERIES_C = np.array([[(-1)**a / (2**a * math.factorial(a) * math.prod(
    range(1, 2 * l + 2 * a + 2, 2))) for a in range(12)]
    for l in range(1, _SMALL_L + 1)])
_LOMMEL_SERIES = (_SERIES_C[:, :, None] * _SERIES_C[:, None, :]
                  / (_SERIES_POWERS[:, :, None] + _SERIES_POWERS[:, None, :]
                     + 3))


@functools.cache
def _gauss_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1].

    Newton's method on the three-term recurrence of P_order, from the
    Tricomi-style initial guess; no eigensolver, so numpy.polynomial is
    not imported and no LAPACK routine runs.
    """
    x = -np.cos(math.pi * (np.arange(order) + 0.75) / (order + 0.5))
    for _ in range(8):
        p_lo, p = np.ones_like(x), x.copy()
        for n in range(2, order + 1):
            p_lo, p = p, ((2 * n - 1) * x * p - (n - 1) * p_lo) / n
        dp = order * (x * p - p_lo) / (x * x - 1.0)
        x -= p / dp
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    return 0.5 * (x - x[::-1]), 0.5 * (w + w[::-1])


def _grid_size(config: FiniteSpectrumConfig) -> int:
    """Number of output points of spectral_grid."""
    return config.grid_points + math.ceil(
        (config.grid_extend - 1.0) * config.grid_points)


def _panel_total(kr: float, graded: bool) -> int:
    """len(_panel_edges(kr, graded)) - 1, without building the edges."""
    return (math.ceil((kr - _OMEGA_IN_FLOOR * kr) / _PANEL_WIDTH)
            + (_GRADING.size if graded else 0))


def _panel_edges(kr: float, graded: bool) -> np.ndarray:
    """Edges of the fewest equal panels on [_OMEGA_IN_FLOOR K R, K R] no
    wider than _PANEL_WIDTH, the first one split at the _GRADING fractions
    of its width if graded."""
    edges = np.linspace(_OMEGA_IN_FLOOR * kr, kr, _panel_total(kr, False) + 1)
    if graded:
        edges = np.insert(edges, 1,
                          edges[0] + (edges[1] - edges[0]) * _GRADING)
    return edges


def _engine_bytes(kr: float, config: FiniteSpectrumConfig) -> int:
    """Upper estimate of the engine's live array bytes, graded or not.

    Per output point: _POINT_BYTES for the output grid; u, its
    _point_factors with temporaries and their copy in a pass, the rule sums
    and level bookkeeping (36 floats); a j_l argument below _TINY_ARG.  Per
    j_l argument: sph_jn_table's table, the branch table it fills that
    from, j_0, j_1 and the ratio buffers (2 _SMALL_L + 15).  Per graded
    first-pass panel: its edges after the _LEVELS - 1 bisections, with
    np.insert's indices and midpoints (8 a piece).  Per node of a tile (at
    most _BLOCK_ELEMENTS, and the last pass's): v, two Gauss weights,
    _node_factors with temporaries (45) and a j_l argument.  Per node below
    _SMALL_ARG, all in the first panel's last-level pieces: its series
    powers and their product with _LOMMEL_SERIES (2 _SERIES_POWERS.size).
    Per column block: 16 arrays of _BLOCK_ELEMENTS pairs (_closed_form's 6
    on far pairs, 14 if all are near; _small_block's and _lommel_block's
    _SMALL_L + 4).
    """
    n_points = _grid_size(config)
    # the points below _TINY_ARG: all of them unless the last one is above
    n_tiny = (n_points if kr * n_points < _TINY_ARG * config.grid_points
              else math.ceil(_TINY_ARG * config.grid_points / kr))
    nodes = _ESTIMATE_ORDER + _VALUE_ORDER      # a panel's, both orders
    pieces = 2**(_LEVELS - 1) * _panel_total(kr, True)  # at the last level
    tile = min(_BLOCK_ELEMENTS, nodes * pieces)
    floats = (36 * n_points + (2 * _SMALL_L + 15) * (n_tiny + tile) + 45 * tile
              + 8 * pieces + 16 * _BLOCK_ELEMENTS + 2 * _SERIES_POWERS.size
              * nodes * 2**(_LEVELS - 1) * (_GRADING.size + 1))
    return 8 * floats + _POINT_BYTES * n_points


def _trig(x: np.ndarray) -> tuple[np.ndarray, ...]:
    """sin x, cos x, sin 2x and cos 2x."""
    return np.sin(x), np.cos(x), np.sin(2.0 * x), np.cos(2.0 * x)


def _node_factors(v: np.ndarray) -> np.ndarray:
    """Rows of the nodes v: _trig(v), then their factors in _closed_form's
    2N (2 rows), X and Y (7 rows each; 3 of X's are zero)."""
    # filled row by row, so that one row's temporaries are live at a time:
    # ~25 floats a node at the peak, ~39 for a stack of the rows
    t = np.empty((20, v.size))
    t[0], t[1], t[2], t[3] = _trig(v)
    (s, c, s2, c2), v2 = t[:4], v * v
    t[4] = 2.0 * v * c
    t[5] = -2.0 * s
    t[6] = -3.0 * v2 * s2
    t[7] = -s2
    t[8:10] = 0.0
    t[10] = v2 * v * c2
    t[11] = 3.0 * v * c2
    t[12] = 0.0
    t[13] = 4.0 * v2 * v * s * s
    t[14] = 4.0 * v * s * s
    t[15] = 4.0 * v2 * v
    t[16] = 4.0 * v
    t[17] = -0.5 * v2 * v2 * s2
    t[18] = -3.0 * v2 * s2
    t[19] = -0.5 * s2
    return t


def _point_factors(u: np.ndarray) -> np.ndarray:
    """Rows of the output points u: _trig(u), then their factors in
    _closed_form's N (2 rows) and in X and Y (7 rows, shared)."""
    # filled row by row, as _node_factors's rows are
    t = np.empty((13, u.size))
    t[0], t[1], t[2], t[3] = _trig(u)
    (s, c, s2, c2), u2 = t[:4], u * u
    t[4] = s
    t[5] = u * c
    t[6] = u * c2
    t[7] = u2 * u * c2
    t[8] = u * s * s
    t[9] = u2 * u * s * s
    t[10] = s2
    t[11] = u2 * s2
    t[12] = u2 * u2 * s2
    return t


def _even_series(coeffs: np.ndarray, k2: np.ndarray) -> np.ndarray:
    """sum_n coeffs[n] k2^n by Horner's rule."""
    acc = np.full_like(k2, coeffs[-1])
    for c in coeffs[-2::-1]:
        acc *= k2
        acc += c
    return acc


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _closed_form(v: np.ndarray, u: np.ndarray, nodes: np.ndarray,
                 points: np.ndarray) -> np.ndarray:
    """pi^2 F(u, v) (module docstring) on the (len(v), len(u)) grid of node
    pairs, from the _node_factors of v and the _point_factors of u.

    Where |u - v| >= 1 it is (((2p - 4 N^2 / p) a - X) a + Y) / a^4, with
    a = (u - v)(u + v), p = u v, and sin and cos of u +- v expanded by
    angle addition into sums of products of a function of v and one of u,
    of rank 2, 4 and 7, each taken as one matrix product:

        N = v cos v sin u - sin v u cos u     (the l = 0 term's),
        X = (v^2 + 3u^2) v cos 2v sin 2u - (3v^2 + u^2) sin 2v u cos 2u,
        Y = 4 u v (u^2 + v^2) (sin^2 v cos 2u + sin^2 u)
            - (u^4 + 6 u^2 v^2 + v^4) sin 2v sin 2u / 2.

    Only sums of same-signed powers are expanded; a, N^2 and the powers of a
    stay factored, since expanding them would cancel.  Where |u - v| < 1, G
    and sinc of u - v are Taylor series (exact at v = u), on those pairs
    only.  Either way the result is the l >= 0 series less its l = 0 term:
    it loses digits at least as 1/min(u, v)^2 (_small_block, _lommel_block).
    """
    vc = v[:, None]
    a = u - vc
    near = np.abs(a) < 1.0
    a *= u + vc                                 # u^2 - v^2
    p = vc * u
    f = np.matmul(nodes[4:6].T, points[4:6])    # 2N
    x, y = np.matmul(nodes[6:].reshape(2, 7, -1).transpose(0, 2, 1),
                     points[6:])
    f *= f
    f /= p
    np.subtract(p + p, f, out=f)
    f *= a
    f -= x
    f *= a
    f += y
    a *= a
    a *= a
    f /= a                      # 0 / 0 at v = u; near pairs redone below
    del a, p, x, y
    rows, cols = divmod(np.flatnonzero(near), u.size)
    if rows.size:
        ur, vr = u[cols], v[rows]
        k2 = (ur - vr)**2
        sp = (points[0, cols] * nodes[1, rows]
              + points[1, cols] * nodes[0, rows])
        s2p = (points[2, cols] * nodes[3, rows]
               + points[3, cols] * nodes[2, rows])
        kp = ur + vr
        g_plus = 12.0 / kp**2 * (1.0 - s2p / kp + (sp / kp)**2)
        lam0 = _even_series(_SINC_TAYLOR, k2) - sp / kp
        f[rows, cols] = ((_even_series(_G_TAYLOR, k2) - g_plus) / 24.0
                         - lam0 * lam0 / (ur * vr))
    return f


def _small_block(v: np.ndarray, u: np.ndarray) -> np.ndarray:
    """pi^2 F(u, v) summed over l = 1.._SMALL_L on the (len(v), len(u))
    grid: 4 u v sum_l (2l+1) L_l(u, v)^2 with the Lommel integral
    L_l(u, v) = int_0^1 j_l(u r) j_l(v r) r^2 dr summed from its double
    power series (_LOMMEL_SERIES), for u and v below _SMALL_ARG.  Every
    term is positive, so the sum holds its digits at any such u, v and on
    v = u."""
    pv = v[:, None] ** _SERIES_POWERS[:, None, :]
    pu = u[:, None] ** _SERIES_POWERS[:, None, :]
    lommel = np.matmul(pv @ _LOMMEL_SERIES, pu.transpose(0, 2, 1))
    lommel *= lommel
    f = _l_weighted_sum(lommel)
    f *= 4.0 * np.multiply.outer(v, u)
    return f


def _lommel_block(v: np.ndarray, u: np.ndarray, jv: np.ndarray,
                  ju: np.ndarray) -> np.ndarray:
    """pi^2 F(u, v) summed over l = 1.._SMALL_L on the (len(v), len(u))
    grid by the Lommel quotient,

        pi^2 lambda_l^2 = 4 u v [v j_l(u) j_{l-1}(v) - u j_{l-1}(u) j_l(v)]^2
                          / (u^2 - v^2)^2,

    from jv = j_l(v) and ju = j_l(u), l = 0.._SMALL_L.  For u below
    _TINY_ARG and v at least _SMALL_ARG the quotient holds its digits and
    its terms fall by ~u^2 / (2l + 3)^2 from one l to the next."""
    # the bracket for every l at once, as a product over a length-2 axis:
    # [v j_{l-1}(v), -j_l(v)] . [j_l(u), u j_{l-1}(u)]
    t = np.matmul(np.stack((v * jv[:-1], -jv[1:]), axis=2),
                  np.stack((ju[1:], u * ju[:-1]), axis=1))
    t *= t
    f = _l_weighted_sum(t)
    vc = v[:, None]
    f *= 4.0 * vc * u / (vc * vc - u * u)**2
    return f


def _l_weighted_sum(terms: np.ndarray) -> np.ndarray:
    """sum_l (2l+1) terms[l - 1] over l = 1.._SMALL_L."""
    weights = np.arange(3.0, 2 * _SMALL_L + 2, 2.0)
    return (weights @ terms.reshape(_SMALL_L, -1)).reshape(terms.shape[1:])


def _direct_weight(n_in: float, n_out: float, v: np.ndarray):
    """The direct pairing's bracket ((n_out v^2 + n_in u^2) /
    (n_out v + n_in u))^2 at the nodes v, as a function of the points u that
    gives it on the (len(v), len(u)) grid, its parts in v formed once."""
    wv2, wv = (v * v * n_out)[:, None], (v * n_out)[:, None]

    def at(u: np.ndarray) -> np.ndarray:
        w = wv2 + u * u * n_in
        w /= wv + u * n_in
        w *= w
        return w
    return at


def _rules(u: np.ndarray, edges: np.ndarray, weight) -> np.ndarray:
    """sum over the nodes of weight * Gauss weight * F(u, v) at the points
    u, by the orders _ESTIMATE_ORDER and _VALUE_ORDER on every panel of
    edges: rows I^16 and I^24, from one pass over the nodes of both;
    weight(v), once a tile, gives the weight at a block's points u."""
    points = _point_factors(u)
    rules = [_gauss_nodes(_ESTIMATE_ORDER), _gauss_nodes(_VALUE_ORDER)]
    out = np.zeros((2, u.size))
    tile = _BLOCK_ELEMENTS // (_ESTIMATE_ORDER + _VALUE_ORDER)
    for p0 in range(0, edges.size - 1, tile):
        e = edges[p0:p0 + tile + 1]
        mids = 0.5 * (e[1:] + e[:-1])[:, None]
        halves = 0.5 * (e[1:] - e[:-1])[:, None]
        v = np.concatenate([(mids + halves * x).ravel() for x, _ in rules])
        # Gauss weights / pi^2 (see _closed_form), a row per order
        gauss = np.repeat(np.eye(2), [x.size * mids.size for x, _ in rules],
                          axis=1)
        gauss *= np.concatenate([(halves * w).ravel() / math.pi**2
                                 for _, w in rules])
        nodes = _node_factors(v)
        w_at = weight(v)
        # the pairs the closed form cannot take: the first n_small points
        # (u ascends) against the nodes v_small, and the first n_tiny
        # points against the nodes v_large, the latter from one j_l table
        below = v < _SMALL_ARG
        v_small, v_large = np.flatnonzero(below), np.flatnonzero(~below)
        n_small = int(np.searchsorted(u, _SMALL_ARG)) if v_small.size else 0
        n_tiny = int(np.searchsorted(u, _TINY_ARG)) if v_large.size else 0
        if n_tiny:
            jl = sph_jn_table(_SMALL_L, np.append(u[:n_tiny], v[v_large]))
            ju_tiny, jv_large = jl[:, :n_tiny], jl[:, n_tiny:]
        width = _BLOCK_ELEMENTS // v.size
        for c0 in range(0, u.size, width):
            c1 = min(c0 + width, u.size)
            # finite where u or v is >= _SMALL_ARG; the rest is replaced
            f = _closed_form(v, u[c0:c1], nodes, points[:, c0:c1])
            if c0 < n_small:
                m = min(c1, n_small)
                f[v_small, :m - c0] = _small_block(v[v_small], u[c0:m])
            if c0 < n_tiny:
                m = min(c1, n_tiny)
                f[v_large, :m - c0] = _lommel_block(
                    v[v_large], u[c0:m], jv_large, ju_tiny[:, c0:m])
            f *= w_at(u[c0:c1])
            out[:, c0:c1] += gauss @ f
    return out


def _sums(u: np.ndarray, edges: np.ndarray, weight, tol: float) -> np.ndarray:
    """sum_l (2l+1) I_l(u) over every l >= 1 at every output point u, I_l
    the integral of weight times lambda_l(u, v)^2 on the panels of edges.

    Works in u = n_gas_out w_out R / c (the output points, ascending) and
    v = n_gas_in w_in R / c; the caller chooses the edges and the weight
    (_rules).  The integrand at a (node, point) pair is weight times
    F(u, v) = sum_{l>=1} (2l+1) lambda_l(u, v)^2, summed over every l in
    closed form (_closed_form) from factors of u and of v tabulated once
    per pass and tile, so no transcendental function runs per pair.  A
    pass (_rules) sums both rules of a level in tiles of whole panels, each
    over column blocks, of at most _BLOCK_ELEMENTS nodes and pairs, each
    block in one product with their Gauss weights.  The pairs with u and v
    both below _SMALL_ARG take _small_block's explicit l sum instead (each
    L_l from its power series), and the points below _TINY_ARG against the
    nodes at or above _SMALL_ARG _lommel_block's, from one j_l table per
    tile.  Every level estimates the error of its order _VALUE_ORDER value
    by order _ESTIMATE_ORDER on the same panels, |I^24 - I^16| with I the
    l-summed integral (no single l is formed).  Points where that exceeds
    tol |I^24| go on to bisected panels, for _LEVELS levels in all.

    Raises NumericalError for the lowest point whose quadrature does not
    converge.
    """
    cols = np.arange(u.size)
    out = np.empty(u.size)
    for _ in range(_LEVELS):
        low, cur = _rules(u[cols], edges, weight)
        scale = np.where(cur != 0.0, np.abs(cur), 1.0)
        done = np.abs(cur - low) <= tol * scale
        out[cols[done]] = cur[done]
        cols = cols[~done]
        if cols.size == 0:
            return out
        edges = np.insert(edges, np.arange(1, edges.size),
                          0.5 * (edges[1:] + edges[:-1]))
    raise NumericalError(
        f"omega_in quadrature failed to reach rel tol {tol} at "
        f"x_out={float(u[cols[0]])!r}")


def spectral_grid(transition: MediumTransition, geometry: BubbleGeometry,
                  config: FiniteSpectrumConfig | None = None
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Output grid for spectra, as read-only float arrays (omega_out, x).

    Runs from one spacing above zero to grid_extend times the gas-side
    cutoff geometry.k_gas_cutoff(transition.n_out), with a sample exactly
    at the cutoff; omega_out is in rad/s and x = k_out R.  A grid whose
    points would need more than _MAX_ENGINE_BYTES is refused with
    DomainError, and so is one whose omega_out = x c / (n_out R) does not
    run from a normal float to a finite one: a spacing in x, in omega_out
    or an n_out R that underflows, or an omega_out that overflows.
    """
    config = config or FiniteSpectrumConfig()
    kr = geometry.k_gas_cutoff(transition.n_out) * geometry.radius
    n_points = _grid_size(config)
    check_grid_points(n_points, "grid_points")
    with np.errstate(all="ignore"):
        x_grid = kr / config.grid_points * np.arange(1, n_points + 1)
        omega_grid = (x_grid * SPEED_OF_LIGHT
                      / (transition.n_out * geometry.radius))
    # an x of 0 gives an omega_out of 0 or NaN, so this holds x above 0
    # too; from a normal float, omega_out and omega_out / (2 pi) rise
    # strictly
    lo, hi = float(omega_grid[0]), float(omega_grid[-1])
    if not (lo >= sys.float_info.min and hi < math.inf):
        raise DomainError(f"output grid not representable at K R {kr!r}: "
                          f"omega_out runs from {lo!r} to {hi!r} rad/s, not "
                          f"from a normal float to a finite one")
    x_grid.flags.writeable = omega_grid.flags.writeable = False
    return omega_grid, x_grid


def spectrum_finite(transition: MediumTransition, geometry: BubbleGeometry,
                    config: FiniteSpectrumConfig | None = None) -> SpectralDensity:
    """Sampled finite-volume dN/d omega_out (both polarizations).

    The grid (spectral_grid) runs from one spacing above zero up to
    grid_extend times the gas-side cutoff frequency, with a sample exactly
    at the cutoff.  All points share one node set (_sums).  A first pass
    that would sum more than _MAX_NODE_PAIRS (node, point) pairs, or
    arrays (_engine_bytes: points, panel edges, one tile) above
    _MAX_ENGINE_BYTES, is refused with DomainError before any array is
    built; a grid that spectral_grid refuses, or a weight of 0 / 0, is
    refused with DomainError before any pass.  A value above the float
    range raises NumericalError.
    """
    config = config or FiniteSpectrumConfig()
    n_in, n_out = transition.n_in, transition.n_out
    kr = geometry.k_gas_cutoff(n_out) * geometry.radius
    graded = n_out > n_in
    n_points = _grid_size(config)
    pairs = ((_ESTIMATE_ORDER + _VALUE_ORDER)
             * _panel_total(kr, graded) * n_points)
    if pairs > _MAX_NODE_PAIRS:
        raise DomainError(
            f"finite-volume spectrum too large: {n_points} output points "
            f"against {pairs // n_points} omega_in nodes are {pairs:.3g} "
            f"node pairs, above the limit of {_MAX_NODE_PAIRS:.3g}; lower "
            f"K R or grid_points")
    need = _engine_bytes(kr, config)
    if need > _MAX_ENGINE_BYTES:
        raise DomainError(
            f"finite-volume spectrum too large: {n_points} output points at "
            f"K R {kr:.6g} need ~{need / 2**30:.3g} GiB of arrays, above "
            f"the {_MAX_ENGINE_BYTES / 2**30:g} GiB limit; lower K R or "
            f"grid_points")

    omega_grid, x_grid = spectral_grid(transition, geometry, config)
    edges = _panel_edges(kr, graded)
    # n_in times the lowest point and n_out times the lowest edge, the
    # least terms of the weight's denominator n_out v + n_in u, must not
    # both underflow, or a pass divides 0 by 0
    if not n_in * float(x_grid[0]) + n_out * float(edges[0]) > 0.0:
        raise DomainError(f"finite-volume spectrum underflows at K R {kr!r}, "
                          f"n_in {n_in!r}, n_out {n_out!r}; raise K R")
    sums = _sums(x_grid, edges, functools.partial(_direct_weight, n_in, n_out),
                 config.quad_rel_tol)
    root = _spectrum_root(transition, geometry.radius)
    _finite("finite-volume spectrum", root * (root * float(sums.max())))
    return SpectralDensity(grid=omega_grid, values=root * (root * sums),
                           dimensionless_x=x_grid)


def _trapz_richardson(x: np.ndarray, y: np.ndarray) -> float:
    """Trapezoid with one Richardson step against the half-resolution grid."""
    fine = float(np.trapezoid(y, x))
    idx = list(range(0, x.size, 2))
    if idx[-1] != x.size - 1:
        idx.append(x.size - 1)
    coarse = float(np.trapezoid(y[idx], x[idx]))
    return fine + (fine - coarse) / 3.0


def totals_finite(transition: MediumTransition, geometry: BubbleGeometry,
                  config: FiniteSpectrumConfig | None = None) -> EmissionSummary:
    """Photon number and energy from the finite-volume spectrum.

    Integrates spectrum_finite's samples (trapezoid plus Richardson
    refinement); mean photon energy is reported against hbar times the
    cutoff frequency.  Totals above the float range raise NumericalError.
    """
    spectral = spectrum_finite(transition, geometry, config)
    x, y = spectral.grid, spectral.values
    with np.errstate(over="ignore"):
        count = _trapz_richardson(x, y)
        energy = _trapz_richardson(x, HBAR * x * y)
    if not (math.isfinite(count) and math.isfinite(energy)):
        raise NumericalError("finite-volume totals exceed the float range")
    return EmissionSummary.from_totals(count, energy, HBAR * geometry.omega_max)
