"""Per-point reference for the finite-volume spectrum engine.

The spectrum's omega_in integral evaluated one output point at a time:
panel Gauss-Legendre quadrature with the resonance v = u as a panel
edge, order 12 against order 24 and then two bisections, refined until
the l-summed integral is stable to quad_rel_tol.  It rebuilds its
Bessel tables at every u, so it is slow, but it shares no panels, no
weight matrix and no GEMM split with bubble.spectrum_finite; the tests
hold the shared-node engine to it pointwise.
"""

import math

import numpy as np

from sonophoton.bubble import (_L_TAIL_TOL, _OMEGA_IN_FLOOR, _PANEL_WIDTH,
                               FiniteSpectrumConfig, _gauss_nodes,
                               _lommel_kernel, spectral_grid)
from sonophoton.core import SPEED_OF_LIGHT, NumericalError
from sonophoton.homogeneous import POLARIZATIONS
from sonophoton.specfun import sph_jn_table


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
    integral is stable to quad_rel_tol.
    """

    def __init__(self, n_gas_in: float, n_gas_out: float, kr: float,
                 config: FiniteSpectrumConfig):
        self.n_in = n_gas_in
        self.n_out = n_gas_out
        self.config = config
        self.l_hard = config.l_max if config.l_max is not None else \
            math.ceil(kr) + 40 + math.ceil(4.0 * kr**(1.0 / 3.0))
        self.l_weights = 2.0 * np.arange(1, self.l_hard + 1) + 1.0
        self.v_min = _OMEGA_IN_FLOOR * kr
        self.v_max = kr

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
        lam = _lommel_kernel(u, v, ju, jv)
        weight = ((u * u * self.n_in + v * v * self.n_out)
                  / (u * self.n_in + v * self.n_out))**2
        return (lam * lam) @ (weight * gw)

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
                    if cfg.l_max is None and total > 0.0 \
                            and terms[-1] >= _L_TAIL_TOL * total:
                        raise NumericalError(
                            f"l sum not converged by l={self.l_hard} at "
                            f"x_out={u!r} (last relative term "
                            f"{terms[-1] / total:.3e})")
                    return total
            prev = cur
        worst = int(np.argmax(np.abs(cur - prev))) + 1
        raise NumericalError(
            f"omega_in quadrature failed to reach rel tol "
            f"{cfg.quad_rel_tol} at x_out={u!r} (worst l={worst})")


def spectrum_values(transition, geometry, config=None) -> list[float]:
    """dN/d omega_out on spectral_grid, one engine call per output point,
    with the prefactor of bubble.spectrum_finite."""
    config = config or FiniteSpectrumConfig()
    n_in, n_out = transition.n_in, transition.n_out
    kr = geometry.k_gas_cutoff * geometry.radius
    engine = _SpectrumEngine(n_in, n_out, kr, config)
    dn = transition.delta_n
    prefactor = (POLARIZATIONS * 0.25 * dn * dn * geometry.radius
                 / (SPEED_OF_LIGHT * n_in))
    _, x_grid = spectral_grid(geometry, config)
    return [prefactor * engine.sum_at(u) for u in x_grid]
