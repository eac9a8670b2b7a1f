"""Admissible-pair arithmetic and space-time norm scaling sweeps.

The bookkeeping side is exact exponent arithmetic: which (p, q) pairs are
admissible in dimension d, the smoothing exponent gamma and the
compact-domain loss (sigma - 1)/p.  The measurement side sweeps dyadic h,
builds frequency-localized Gaussian states, propagates them with the exact
multiplier on the periodic box, and fits the L^p_t L^q_x / L^2 norm ratio
against h.  Every estimate under test is an upper bound, so fits are judged
one-sided: the measured slope must not fall below minus the predicted
exponent by more than the margin.
"""

from dataclasses import dataclass

import numpy as np

from .fio import ResolutionError
from .metric import FLAT_BOX_LENGTH, check_h, loglog_fit
from .spectral import (flat_operator, localized_gaussian, lp_lq_norm, make_grid,
                       propagate)

__all__ = [
    "AdmissiblePair",
    "ScalingFit",
    "classify_pair",
    "measure_semiclassical_scaling",
    "measure_unscaled_scaling",
    "rescaling_identity_gap",
    "SLOPE_MARGIN",
    "DYADIC_SWEEP",
]

SLOPE_MARGIN = 0.1
DYADIC_SWEEP = tuple(2.0**-k for k in range(3, 10))
GRID_CAP = 1 << 15       # most grid points a sweep's state may take
POINTS_PER_MODE = 4
RESCALING_T0 = 0.5      # half-width of rescaling_identity_gap's window
RESCALING_N_T = 33      # time nodes of that window


@dataclass(frozen=True)
class AdmissiblePair:
    """Exponent bookkeeping for one (p, q) pair in dimension d.

    gamma, loss and total are None when the pair is not admissible; total is
    computed directly as d/2 - d/q - 1/p (not gamma + loss) so that its value
    is independent of sigma down to the last bit.
    """

    p: float
    q: float
    d: int
    sigma: float
    valid: bool
    gamma: float = None
    loss: float = None
    total: float = None


def classify_pair(p, q, d, sigma):
    """Admissibility of (p, q) in dimension d with dispersion exponent sigma.

    The conditions are p in [2, inf], q in [2, inf), (p, q, d) != (2, inf, 2)
    and the scaling line 2/p + d/q <= d/2.  Invalid pairs come back with
    valid=False and no exponents rather than raising.
    """
    p = float(p)
    q = float(q)
    d = int(d)
    sigma = float(sigma)
    if not 0.0 < sigma < np.inf:
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    inv_p = 0.0 if p == np.inf else 1.0 / p
    inv_q = 0.0 if q == np.inf else 1.0 / q
    ok = (
        p >= 2.0
        and 2.0 <= q < np.inf
        and not (p == 2.0 and q == np.inf and d == 2)
        and 2.0 * inv_p + d * inv_q <= 0.5 * d
    )
    if not ok:
        return AdmissiblePair(p=p, q=q, d=d, sigma=sigma, valid=False)
    gamma = 0.5 * d - d * inv_q - sigma * inv_p
    loss = (sigma - 1.0) * inv_p if sigma > 1.0 else 0.0
    total = 0.5 * d - d * inv_q - inv_p
    return AdmissiblePair(p=p, q=q, d=d, sigma=sigma, valid=True,
                          gamma=gamma, loss=loss, total=total)


@dataclass
class ScalingFit:
    """Log-log fit of the space-time norm ratio against h."""

    slope: float
    intercept: float
    r2: float
    exponent_bound: float
    h: np.ndarray
    ratios: np.ndarray

    def passes(self, margin=SLOPE_MARGIN):
        return self.slope >= -self.exponent_bound - margin


def _localized_state(cut, h):
    """Gaussian at frequency ~1/h, localized by phi(h^2 P), on an adequate flat-torus grid."""
    k_max = np.sqrt(cut.support[1]) / h
    need = int(np.ceil(POINTS_PER_MODE * k_max * FLAT_BOX_LENGTH / (2.0 * np.pi)))
    n = 256
    while n < need:
        n *= 2
    if n > GRID_CAP:
        raise ResolutionError(
            f"h={h} needs {need} grid points, above the cap {GRID_CAP}"
        )
    grid = make_grid(1, n, FLAT_BOX_LENGTH)
    op = flat_operator(grid)
    return localized_gaussian(grid, cut, h), op


def _sweep(sigma, pair, cut, h_sweep, times, rescaled):
    """Norm ratio of each h's localized state over `times`, fitted against h.

    The states are 1-D, so `pair` must be classified for d = 1 (ValueError
    otherwise).  `rescaled` propagates with the semiclassical group
    e^{i t h^{sigma-1} Lambda^sigma} and bounds the slope by pair.total =
    d/2 - d/q - 1/p; otherwise the group is e^{i t Lambda^sigma} and the
    bound is gamma + loss.  Every h must be positive and finite
    (`metric.check_h`) and `times` at least 2 finite, strictly increasing
    nodes, both checked before the first state.
    """
    if not pair.valid:
        raise ValueError(f"pair (p={pair.p}, q={pair.q}) is not admissible")
    if pair.d != 1:
        raise ValueError(f"the sweep measures 1-D states; the pair needs d = 1, got {pair.d}")
    if len(h_sweep) < 5:
        raise ValueError("need at least 5 dyadic h values for the sweep fit")
    times = np.asarray(times, dtype=float)
    if times.size < 2 or not (np.all(np.isfinite(times)) and np.all(np.diff(times) > 0.0)):
        raise ValueError(f"the time grid needs at least 2 finite, strictly increasing nodes, "
                         f"got {times}")
    bound = pair.total if rescaled else pair.gamma + pair.loss
    h_sweep = np.asarray(sorted((check_h(h) for h in h_sweep), reverse=True))
    ratios = np.empty_like(h_sweep)
    for i, h in enumerate(h_sweep):
        u, op = _localized_state(cut, h)
        states = propagate(u, op, sigma, times, h=h if rescaled else None)
        ratios[i] = lp_lq_norm(states, times, pair.p, pair.q) / u.l2_norm()
    return ScalingFit(*loglog_fit(h_sweep, ratios), exponent_bound=float(bound),
                      h=h_sweep, ratios=ratios)


def measure_semiclassical_scaling(sigma, pair, cut, h_sweep=DYADIC_SWEEP, t0=1.0, n_t=65):
    """Norm-ratio growth of the h-rescaled group over [-t0, t0].

    Each h propagates a frequency-localized Gaussian with the multiplier
    e^{i t h^{sigma-1} Lambda^sigma} and records the L^p L^q norm over the
    fixed window divided by the initial L^2 norm.  The slope bound is the
    sigma-independent exponent d/2 - d/q - 1/p.
    """
    return _sweep(sigma, pair, cut, h_sweep, np.linspace(-t0, t0, int(n_t)), rescaled=True)


def measure_unscaled_scaling(sigma, pair, cut, h_sweep=DYADIC_SWEEP, interval=(0.0, 1.0),
                             n_t=65):
    """Norm-ratio growth of the unrescaled group over a fixed interval.

    Same state family as the semiclassical sweep, but the propagator is
    e^{i t Lambda^sigma} and the window does not shrink with h, so the
    cumulated bound gamma + loss is the relevant exponent.
    """
    times = np.linspace(float(interval[0]), float(interval[1]), int(n_t))
    return _sweep(sigma, pair, cut, h_sweep, times, rescaled=False)


def rescaling_identity_gap(sigma, v, h, p, q):
    """Relative gap in the change-of-variables identity between the two groups.

    With t0 = RESCALING_T0, the unrescaled group over the shrunk window
    h^{sigma-1}[-t0, t0] must match h^{(sigma-1)/p} times the rescaled group
    over [-t0, t0] (RESCALING_N_T nodes each); with the time grids mapped
    through the same scale factor the quadratures agree to rounding, so the
    gap is a pure floating-point check.
    """
    op = flat_operator(v.grid)
    times = np.linspace(-RESCALING_T0, RESCALING_T0, RESCALING_N_T)
    scaled_times = h ** (sigma - 1.0) * times
    lhs = lp_lq_norm(propagate(v, op, sigma, scaled_times), scaled_times, p, q)
    factor = 1.0 if p == np.inf else h ** ((sigma - 1.0) / p)
    rhs = factor * lp_lq_norm(propagate(v, op, sigma, times, h=h), times, p, q)
    return abs(lhs - rhs) / max(rhs, 1e-300)
