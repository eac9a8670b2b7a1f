"""Smooth cutoffs, dyadic partitions and phase-space symbols.

Cutoffs are built from glued exponentials, so they are genuinely C^infinity
with closed-form support and plateau intervals.  Phase-space symbols carry a
value and one jet of partial derivatives up to second order; the central
factory is :func:`fractional_symbol`, which realizes q0(x, xi) = p(x, xi)^{sigma/2}
with fully analytic derivatives assembled from `metric.principal_jet`.
"""

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .metric import as_pairs, as_points, check_sigma, principal_jet

__all__ = [
    "CutoffFunction",
    "LowPassCutoff",
    "LittlewoodPaleyPartition",
    "Jet",
    "SymbolFunction",
    "GaussianWindow",
    "ConstantWindow",
    "make_bump",
    "littlewood_paley_partition",
    "fractional_symbol",
    "localized_amplitude",
]


def _glue(t):
    """exp(-1/t) continued by 0 for t <= 0;  C^infinity on the line."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    pos = t > 0.0
    with np.errstate(over="ignore"):
        out[pos] = np.exp(-1.0 / t[pos])
    return out


def smooth_step(t):
    """Monotone C^infinity step: 0 for t <= 0, 1 for t >= 1."""
    a = _glue(t)
    b = _glue(1.0 - np.asarray(t, dtype=float))
    with np.errstate(invalid="ignore"):
        out = np.where(a + b > 0.0, a / (a + b), 0.0)
    return out


def _smooth_step_jet(t):
    """smooth_step s and its first two derivatives at t.

    With g = 1/t^2 + 1/(1-t)^2 the logit of s has derivative g, so
    s' = s(1-s) g and s'' = s(1-s)((1-2s) g^2 + g'); both are evaluated only
    where s(1-s) > 0 and vanish elsewhere.
    """
    t = np.asarray(t, dtype=float)
    a, b = _glue(t), _glue(1.0 - t)
    s = a / (a + b)
    ds, d2s = np.zeros_like(s), np.zeros_like(s)
    on = (a > 0.0) & (b > 0.0)
    u, total = t[on], a[on] + b[on]
    p, q = s[on], b[on] / total                # s and 1 - s, free of cancellation
    g = 1.0 / u**2 + 1.0 / (1.0 - u)**2
    dg = 2.0 / (1.0 - u)**3 - 2.0 / u**3
    ds[on] = p * q * g
    d2s[on] = p * q * ((q - p) * g**2 + dg)
    return s, ds, d2s


class CutoffFunction:
    """Smooth bump equal to 1 on a plateau and 0 outside a compact support.

    Values rise from 0 at r1 to 1 at the plateau's left edge and fall back to 0
    at r2.  The function is monotone on each ramp.  Edges that are not
    ordered as 0 < r1 < plateau < r2 < inf raise ValueError.
    """

    def __init__(self, r1, r2, plateau):
        p1, p2 = float(plateau[0]), float(plateau[1])
        if not (0.0 < r1 < p1 < p2 < r2 < np.inf):
            raise ValueError(
                f"cutoff needs 0 < r1 < plateau < r2 < inf, "
                f"got r1={r1}, plateau=({p1},{p2}), r2={r2}"
            )
        self.support = (float(r1), float(r2))
        self.plateau = (p1, p2)

    def __call__(self, lam):
        lam = np.asarray(lam, dtype=float)
        r1, r2 = self.support
        p1, p2 = self.plateau
        rise = smooth_step((lam - r1) / (p1 - r1))
        fall = smooth_step((r2 - lam) / (r2 - p2))
        return rise * fall

    def _jet(self, lam):
        """The value and the first two derivatives, in closed form.

        Each ramp is a smooth step of an affine argument, and the ramps do not
        overlap, so the product rule has no cross term.
        """
        lam = np.asarray(lam, dtype=float)
        r1, r2 = self.support
        p1, p2 = self.plateau
        a, b = p1 - r1, r2 - p2
        rise = _smooth_step_jet((lam - r1) / a)
        fall = _smooth_step_jet((r2 - lam) / b)
        return (rise[0] * fall[0],
                rise[1] / a * fall[0] - rise[0] * fall[1] / b,
                rise[2] / a**2 * fall[0] + rise[0] * fall[2] / b**2)

    def __repr__(self):
        return f"CutoffFunction(support={self.support}, plateau={self.plateau})"


class LowPassCutoff:
    """Smooth low-pass profile: 1 on (-inf, r1], 0 on [r2, inf), for finite 0 < r1 < r2.

    As a cutoff of P (lam >= 0) its support is [0, r2] and its plateau [0, r1].
    """

    def __init__(self, r1, r2):
        if not 0.0 < r1 < r2 < np.inf:
            raise ValueError(f"cutoff needs 0 < r1 < r2 < inf, got r1={r1}, r2={r2}")
        self.support = (0.0, float(r2))
        self.plateau = (0.0, float(r1))

    def __call__(self, lam):
        lam = np.asarray(lam, dtype=float)
        return smooth_step((self.support[1] - lam) / (self.support[1] - self.plateau[1]))

    def _jet(self, lam):
        """The value and the first two derivatives, in closed form: one
        falling smooth step of an affine argument."""
        lam = np.asarray(lam, dtype=float)
        b = self.support[1] - self.plateau[1]
        fall = _smooth_step_jet((self.support[1] - lam) / b)
        return fall[0], -fall[1] / b, fall[2] / b**2

    def __repr__(self):
        return f"LowPassCutoff({self.plateau[1]}, {self.support[1]})"


def make_bump(r1, r2, plateau):
    """Construct a smooth cutoff with support [r1, r2] and value 1 on `plateau`."""
    return CutoffFunction(r1, r2, plateau)


@dataclass
class LittlewoodPaleyPartition:
    """Dyadic partition of unity phi0(lam) + sum_k phi(4^{-k} lam) = 1.

    Built by telescoping a low-pass chi: phi(lam) = chi(lam) - chi(4 lam), so
    phi(4^{-k} lam) = chi(4^{-k} lam) - chi(4^{-(k-1)} lam) and the sum to
    k_max collapses to chi(4^{-k_max} lam), which equals 1 exactly for lam up
    to chi's plateau edge times 4^{k_max}.
    """

    phi0: LowPassCutoff
    k_max: int

    def phi(self, lam):
        lam = np.asarray(lam, dtype=float)
        return self.phi0(lam) - self.phi0(4.0 * lam)


def littlewood_paley_partition(k_max):
    """Dyadic partition with k_max retained blocks; see the partition class.

    The low-pass chi is LowPassCutoff(1, 4): it falls from 1 to 0 on [1, 4],
    so phi(lam) = chi(lam) - chi(4 lam) lives on [1/4, 4].
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    return LittlewoodPaleyPartition(phi0=LowPassCutoff(1.0, 4.0), k_max=int(k_max))


# One evaluation of a symbol: its first and second partials, its value and
# the principal symbol p = xi^T G(x) xi it lives on, the guard band's coordinate.
Jet = namedtuple("Jet", "grad_x grad_xi hess_xx hess_xixi hess_xxi value p")


class SymbolFunction:
    """Phase-space symbol a(x, xi) with derivatives up to order 2 from one jet.

    `fn` and `jet` receive (n, d) point batches.  `jet` returns the seven
    parts of a `Jet` from one evaluation.  The value and p are required: a
    jet without the seven parts, or with None for its value or p, raises
    ValueError naming them.  A derivative the symbol does not carry may be
    None: each derivative method reads its part off the jet, and a missing
    part raises NotImplementedError.  `xi_band` is the compact p-interval
    the symbol is meant to live on (the guard band of its flows), and
    `metric` the metric p is built on, None for a symbol on no metric.

    Index conventions: `grad_x`/`grad_xi` return (n, d); the Hessians return
    (n, d, d) with `hess_xxi[m, i, j] = d^2 a / dx_i dxi_j`.
    """

    def __init__(self, dim, fn, jet, xi_band=None, metric=None, label=""):
        self.dim = int(dim)
        self._fn = fn
        self._jet = jet
        self.xi_band = None if xi_band is None else (float(xi_band[0]), float(xi_band[1]))
        self.metric = metric
        self.label = label

    def __call__(self, x, xi):
        pts, cov = as_pairs(x, xi, self.dim)
        return self._fn(pts, cov)

    def jet(self, x, xi):
        """The `Jet` of the symbol at the points."""
        pts, cov = as_pairs(x, xi, self.dim)
        parts = self._jet(pts, cov)
        jet = Jet(*parts) if len(parts) == len(Jet._fields) else None
        if jet is None or jet.value is None or jet.p is None:
            raise ValueError(f"jet of symbol {self.label!r} must return the seven parts "
                             f"{Jet._fields}, with a value and p")
        return jet

    def _part(self, name, x, xi):
        part = getattr(self.jet(x, xi), name)
        if part is None:
            raise NotImplementedError(f"symbol {self.label!r} has no {name} evaluator")
        return part

    def grad_x(self, x, xi):
        return self._part("grad_x", x, xi)

    def grad_xi(self, x, xi):
        return self._part("grad_xi", x, xi)

    def hess_xx(self, x, xi):
        return self._part("hess_xx", x, xi)

    def hess_xixi(self, x, xi):
        return self._part("hess_xixi", x, xi)

    def hess_xxi(self, x, xi):
        """Mixed Hessian, [m, i, j] = d^2 a / dx_i dxi_j."""
        return self._part("hess_xxi", x, xi)


def fractional_symbol(metric, sigma, xi_band=None):
    """q0(x, xi) = p(x, xi)^{sigma/2} with analytic derivatives from the metric.

    All first and second partials are the chain rule of f(p) = p^{sigma/2}
    applied to `principal_jet`, so no finite differencing enters the flow
    right-hand sides and one jet evaluates G and its two derivative tables
    once for all five, and carries q0 and p besides.  `xi_band` optionally
    records the compact p-interval J on which the construction is meant to
    live (the guard band for flows).
    """
    sigma = check_sigma(sigma)
    s = 0.5 * sigma
    d = metric.dim

    def _fn(pts, cov):
        G = metric.inverse_metric(pts)
        p = np.einsum("ni,nij,nj->n", cov, G, cov)
        return p**s

    def _jet(pts, cov):
        G, p, px, pxi, pxx, pxxi = principal_jet(metric, pts, cov)
        c1 = s * p ** (s - 1.0)                             # f'(p) for f(p) = p^s
        c2 = s * (s - 1.0) * p ** (s - 2.0)                 # f''(p)
        c1m, c2m = c1[:, None, None], c2[:, None, None]
        return (c1[:, None] * px,
                c1[:, None] * pxi,
                c2m * px[:, :, None] * px[:, None, :] + c1m * pxx,
                c2m * pxi[:, :, None] * pxi[:, None, :] + 2.0 * c1m * G,
                c2m * px[:, :, None] * pxi[:, None, :] + c1m * pxxi,
                p**s,
                p)

    sym = SymbolFunction(d, _fn, _jet, xi_band=xi_band, metric=metric,
                         label=f"p^{{{sigma}/2}}")
    sym.sigma = sigma
    return sym


class GaussianWindow:
    """Spatial envelope exp(-|x - center|^2 / (2 width^2)) with analytic derivatives."""

    def __init__(self, dim=1, center=0.0, width=1.0):
        self.dim = int(dim)
        self.center = np.broadcast_to(np.asarray(center, dtype=float), (self.dim,)).copy()
        self.width = float(width)

    def __call__(self, pts):
        z = (as_points(pts, self.dim) - self.center) / self.width
        return np.exp(-0.5 * np.sum(z**2, axis=1))

    def grad(self, pts):
        p = as_points(pts, self.dim)
        z = (p - self.center) / self.width
        return -(z / self.width) * self(p)[:, None]

    def hess(self, pts):
        p = as_points(pts, self.dim)
        z = (p - self.center) / self.width
        outer = z[:, :, None] * z[:, None, :]
        return (outer - np.eye(self.dim)) / self.width**2 * self(p)[:, None, None]


class ConstantWindow:
    """Envelope identically 1 (x-independent amplitudes)."""

    def __init__(self, dim=1):
        self.dim = int(dim)

    def __call__(self, pts):
        return np.ones(as_points(pts, self.dim).shape[0])

    def grad(self, pts):
        return np.zeros((as_points(pts, self.dim).shape[0], self.dim))

    def hess(self, pts):
        return np.zeros((as_points(pts, self.dim).shape[0], self.dim, self.dim))


def localized_amplitude(metric, cut, window=None):
    """Initial symbol a(x, xi) = window(x) * cut(p(x, xi)).

    The cutoff rides on the principal symbol, so the support automatically sits
    inside p^{-1}(supp cut) for any metric.  Its jet carries the x-derivatives
    only, which combine the analytic window derivatives with the cutoff
    profile's closed-form derivatives, and the value and p.
    """
    window = window or ConstantWindow(metric.dim)

    def _fn(pts, cov):
        G = metric.inverse_metric(pts)
        return window(pts) * cut(np.einsum("ni,nij,nj->n", cov, G, cov))

    def _jet(pts, cov):
        _, p, px, _, pxx, _ = principal_jet(metric, pts, cov)
        c, dc, d2c = cut._jet(p)
        w = window(pts)
        gw = window.grad(pts)
        grad_x = gw * c[:, None] + w[:, None] * dc[:, None] * px
        hess_xx = window.hess(pts) * c[:, None, None]
        hess_xx += (gw[:, :, None] * px[:, None, :] + gw[:, None, :] * px[:, :, None]) * dc[:, None, None]
        hess_xx += w[:, None, None] * (
            d2c[:, None, None] * px[:, :, None] * px[:, None, :]
            + dc[:, None, None] * pxx
        )
        return grad_x, None, hess_xx, None, None, w * c, p

    sym = SymbolFunction(metric.dim, _fn, _jet, xi_band=cut.support, metric=metric,
                         label="window*cut(p)")
    sym.cut = cut
    return sym
