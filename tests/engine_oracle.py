"""Per-point, per-l reference for the finite-volume spectrum engine.

The spectrum's omega_in integral evaluated one output point at a time
and one l at a time: the Lommel kernel lambda_l(u, v) from Bessel tables,
summed over l = 1..l_hard, and panel Gauss-Legendre quadrature no wider
than pi/2 with the resonance v = u as a panel edge, order 12 against
order 24 and then two bisections, refined until the l-summed integral is
stable to quad_rel_tol.  It rebuilds its Bessel tables at every u, so it
is slow, but it shares no panels, no closed form and no kernel with
bubble.spectrum_finite, whose 4 pi panels and closed-form angular sum
the tests hold to it pointwise.
"""

import math

import numpy as np

from sonophoton.bubble import (_OMEGA_IN_FLOOR, FiniteSpectrumConfig,
                               _gauss_nodes, spectral_grid)
from sonophoton.core import SPEED_OF_LIGHT, NumericalError
from sonophoton.homogeneous import POLARIZATIONS
from sonophoton.specfun import sph_jn_table

# Panel width in units of the wall phase: an eighth of the engine's.
_PANEL_WIDTH = 0.5 * math.pi
# The l sum fails when its l_hard term is at least this fraction of it.
_L_TAIL_TOL = 1e-4
# |u^2 - v^2| < _DIAGONAL_WIDTH * max(u^2, 1e3) selects the geometric
# mean of the analytic diagonals of the Lommel kernel (lommel_kernel).
# At the switch the direct quotient and the mean err alike, by up to
# ~3e-10 for u below ~30 and ~2e-9 at u = 400.
_DIAGONAL_WIDTH = 5e-7
# diagonal() sums the power series below this argument, to this many terms.
_SERIES_BELOW = 1.0
_SERIES_TERMS = 12


def l_hard(kr: float) -> int:
    """Highest l of the oracle's angular sum when none is given."""
    return math.ceil(kr) + 40 + math.ceil(4.0 * kr**(1.0 / 3.0))


def diagonal(x: float | np.ndarray, jx: np.ndarray) -> np.ndarray:
    """lambda_l(x, x) for l = 1..L from jx = j_l(x), l = 0..L, of shape
    (L + 1, 1) or (L + 1, len(x)).

    The analytic form cancels its two leading terms, and loses digits as
    1/x^2; below _SERIES_BELOW the power series (_diagonal_series) is
    taken instead.
    """
    nu = (np.arange(1, jx.shape[0], dtype=float)[:, None] + 0.5) / x
    lam = (x / math.pi) * ((jx[:-1] - nu * jx[1:])**2
                           + (1.0 - nu**2) * jx[1:]**2)
    xs = np.broadcast_to(x, (jx.shape[1],))
    small = xs < _SERIES_BELOW
    if np.any(small):
        lam[:, small] = _diagonal_series(xs[small], jx.shape[0] - 1)
    return lam


def _diagonal_series(x: np.ndarray, n_l: int) -> np.ndarray:
    """lambda_l(x, x) = (2x/pi) int_0^1 j_l(x r)^2 r^2 dr for l = 1..n_l,
    shape (n_l, len(x)), by the power series of j_l squared,

        j_l(z) = z^l / (2l+1)!! sum_k c_k z^(2k),
        c_0 = 1,  c_k = -c_{k-1} / (2k (2l + 2k + 1)),

    integrated term by term; for x < 1 its terms fall at least 20-fold
    each, and _SERIES_TERMS of them reach roundoff."""
    x2 = x * x
    lead = 2.0 * x / math.pi        # times x^(2l) / ((2l+1)!!)^2 below
    out = np.empty((n_l, x.size))
    for l in range(1, n_l + 1):
        lead = lead * x2 / (2 * l + 1)**2
        c = [1.0]
        for k in range(1, _SERIES_TERMS):
            c.append(-c[-1] / (2 * k * (2 * l + 2 * k + 1)))
        d = np.convolve(c, c)[:_SERIES_TERMS]
        acc = np.zeros_like(x)
        for n in range(_SERIES_TERMS - 1, -1, -1):
            acc = acc * x2 + d[n] / (2 * l + 2 * n + 3)
        out[l - 1] = lead * acc
    return out


def lommel_kernel(u: float | np.ndarray, v: np.ndarray, ju: np.ndarray,
                  jv: np.ndarray) -> np.ndarray:
    """Dimensionless Lommel kernel lambda_l(u, v) for l = 1..L.

    lambda_l(u, v) = (2 sqrt(uv)/pi) [v j_l(u) j_{l-1}(v) - u j_{l-1}(u) j_l(v)]
                     / (u^2 - v^2),
    the wall-Wronskian overlap of the bubble module docstring in the
    variables u = a R, v = b R; symmetric in (u, v).  jv holds j_l(v) for
    l = 0..L, shape (L + 1, len(v)).  u is one point with ju = j_l(u) of
    shape (L + 1, 1), or one point per column of v with ju of the shape
    of jv.  The result has shape (L, len(v)).

    The quotient loses digits as u^2 / |u^2 - v^2| (its two terms agree
    to that fraction) and, for u below ~1, as 1 / |u^2 - v^2| (their
    leading powers of u and v cancel).  Within
    |u^2 - v^2| < _DIAGONAL_WIDTH max(u^2, 1e3), lambda_l(u, v) is the
    geometric mean of the analytic diagonals lambda_l(u, u) and
    lambda_l(v, v) instead.  Its error is second order in v - u, since
    lambda_l is symmetric, and it keeps the (u v)^(l + 1/2) law of small
    arguments exactly.
    """
    pref = 2.0 * np.sqrt(u * v) / math.pi
    denom = (u - v) * (u + v)
    lam = v * jv[0:-1] * ju[1:] - u * jv[1:] * ju[0:-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        lam *= pref / denom
    close = np.abs(denom) < _DIAGONAL_WIDTH * np.maximum(u * u, 1e3)
    if np.any(close):
        # each root apart, so deep rows do not underflow; the diagonal is
        # >= 0, and abs() only guards its rounding
        lam = np.where(close, np.sqrt(np.abs(diagonal(u, ju)))
                       * np.sqrt(np.abs(diagonal(v, jv))), lam)
    return lam


def _panel_breaks(v_min: float, v_max: float, resonance: float,
                  width: float) -> np.ndarray:
    """Panel edges covering [v_min, v_max] with the resonance as an edge."""
    anchor = resonance if v_min < resonance < v_max else v_max
    below = np.arange(anchor, v_min, -width)
    above = np.arange(anchor, v_max, width)[1:] if anchor < v_max else np.array([])
    breaks = np.concatenate((below[::-1], above, [v_min, v_max]))
    breaks = np.unique(np.clip(breaks, v_min, v_max))
    return breaks


class _SpectrumEngine:
    """Vectorized evaluation of the l-summed omega_in integral at one u.

    Works in the dimensionless variables u = n_gas_out w_out R / c and
    v = n_gas_in w_in R / c; panel Gauss-Legendre quadrature with the
    resonance v = u as a mandatory panel edge, refined until the summed
    integral is stable to quad_rel_tol.  l_max=None sums l up to
    l_hard(K R) and fails if the last term is _L_TAIL_TOL of the sum or
    more; an explicit l_max sums l = 1..l_max with no tail test.
    weight(u, v) is the frequency bracket at one u and the nodes v; None
    gives the direct pairing's (direct_weight).
    """

    def __init__(self, n_gas_in: float, n_gas_out: float, kr: float,
                 config: FiniteSpectrumConfig, l_max: int | None = None,
                 weight=None):
        self.n_in = n_gas_in
        self.n_out = n_gas_out
        self.weight = weight or self.direct_weight
        self.config = config
        self.auto = l_max is None
        self.l_hard = l_hard(kr) if l_max is None else l_max
        self.l_weights = 2.0 * np.arange(1, self.l_hard + 1) + 1.0
        self.v_min = _OMEGA_IN_FLOOR * kr
        self.v_max = kr

    def direct_weight(self, u: float, v: np.ndarray) -> np.ndarray:
        """((n_in u^2 + n_out v^2) / (n_in u + n_out v))^2."""
        return ((u * u * self.n_in + v * v * self.n_out)
                / (u * self.n_in + v * self.n_out))**2

    def _integrals_per_l(self, u: float, breaks: np.ndarray,
                         order: int) -> np.ndarray:
        """I_l = int dv weight(v) lambda_l(u, v)^2 for l = 1..l_hard."""
        ref_x, ref_w = _gauss_nodes(order)
        mids = 0.5 * (breaks[1:] + breaks[:-1])
        halves = 0.5 * (breaks[1:] - breaks[:-1])
        v = (mids[:, None] + halves[:, None] * ref_x[None, :]).ravel()
        gw = (halves[:, None] * ref_w[None, :]).ravel()

        ju = sph_jn_table(self.l_hard, np.array([u]))
        jv = sph_jn_table(self.l_hard, v)
        lam = lommel_kernel(u, v, ju, jv)
        return (lam * lam) @ (self.weight(u, v) * gw)

    def sum_at(self, u: float) -> float:
        """sum_l (2l+1) I_l(u) over every l = 1..l_hard."""
        cfg = self.config
        breaks = _panel_breaks(self.v_min, self.v_max, u, _PANEL_WIDTH)
        prev = None
        for level, order in ((0, 12), (1, 24), (2, 24), (3, 24)):
            if level >= 2:
                refined = np.empty(2 * breaks.size - 1)
                refined[0::2] = breaks
                refined[1::2] = 0.5 * (breaks[1:] + breaks[:-1])
                breaks = refined
            cur = self._integrals_per_l(u, breaks, order)
            if prev is not None:
                terms = self.l_weights * cur
                total = float(np.sum(terms))
                scale = abs(total) if total != 0.0 else 1.0
                err = float(np.sum(self.l_weights * np.abs(cur - prev)))
                if err <= cfg.quad_rel_tol * scale:
                    if self.auto and total > 0.0 \
                            and terms[-1] >= _L_TAIL_TOL * total:
                        raise NumericalError(
                            f"l sum not converged by l={self.l_hard} at "
                            f"x_out={u!r} (last relative term "
                            f"{terms[-1] / total:.3e})")
                    return total
            prev = cur
        raise NumericalError(
            f"omega_in quadrature failed to reach rel tol "
            f"{cfg.quad_rel_tol} at x_out={u!r}")


def spectrum_values(transition, geometry, config=None,
                    l_max=None) -> list[float]:
    """dN/d omega_out on spectral_grid, one engine call per output point,
    with the prefactor of bubble.spectrum_finite; l_max as in
    _SpectrumEngine."""
    config = config or FiniteSpectrumConfig()
    n_in, n_out = transition.n_in, transition.n_out
    kr = geometry.k_gas_cutoff(n_out) * geometry.radius
    engine = _SpectrumEngine(n_in, n_out, kr, config, l_max)
    dn = transition.delta_n
    prefactor = (POLARIZATIONS * 0.25 * dn * dn * geometry.radius
                 / (SPEED_OF_LIGHT * n_in))
    _, x_grid = spectral_grid(transition, geometry, config)
    return [prefactor * engine.sum_at(u) for u in x_grid.tolist()]
