"""Exact phase data on the 1-D Gaussian bump metric, from its arclength map.

In one dimension every metric is flat in arclength: with G = 1 + eps e^{-x^2}
and s(x) = int_0^x G^{-1/2}, -Delta_g is -d^2/ds^2 and the periodic box is a
circle of length L' = int G^{-1/2} over the box.  The covector eta = xi G^{1/2}
is conserved along the flow of q0 = |eta|^sigma, which moves s at the constant
speed sigma |eta|^{sigma-1} sgn xi.  So the phase pass's backward base point
Y solves the scalar equation

    s(x) = s(Y) - t sigma |eta|^{sigma-1} sgn xi,   eta = xi G(Y)^{1/2},

and S = Y xi - t (sigma - 1) |eta|^sigma, grad_x S = sgn xi |eta| / G(x)^{1/2},
while dY/dxi and dY/dx follow from the implicit-function theorem.  The a_0
transport rate f = (1/2) d_xi^2 q0 d_x^2 S then integrates in closed form,

    int_0^t f = (1/2) ln|dY/dx| + (sigma/4) ln(G(x) / G(Y)),

since along the flow from (Y, xi), which reaches x at tau = -t,
d ln(dX/dY) / dtau = hess_xxi q0 + 2 f and hess_xxi q0 = (sigma/2) d ln G(X) / dtau.
s has the series
x + sum_k binom(-1/2, k) eps^k sqrt(pi / 4k) erf(sqrt(k) x).  This module uses
numpy and the standard library only, and none of fracwkb.
"""

import math

import numpy as np

SERIES_TOL = 1e-18      # last |binom(-1/2, k)| eps^k kept in the series
NEWTON_STEPS = 60


def _series(eps):
    """The coefficients binom(-1/2, k) eps^k, k = 1, 2, ..., down to SERIES_TOL."""
    coef, k, out = 1.0, 0, []
    while True:
        coef *= (-0.5 - k) / (k + 1) * eps
        k += 1
        if abs(coef) < SERIES_TOL:
            return out
        out.append((k, coef))


def G(x, eps):
    return 1.0 + eps * np.exp(-np.asarray(x, dtype=float) ** 2)


def arclength(x, eps):
    """s(x) = int_0^x G^{-1/2} by its series."""
    x = np.asarray(x, dtype=float)
    erf = np.vectorize(math.erf)
    s = x.copy()
    for k, coef in _series(eps):
        s = s + coef * math.sqrt(math.pi / (4.0 * k)) * erf(math.sqrt(k) * x)
    return s


def circle_length(eps, box_length):
    """L' = s(L/2) - s(-L/2), the box's length in arclength."""
    return float(2.0 * arclength(0.5 * box_length, eps))


def phase(eps, sigma, t, x, xi):
    """(Y, S, grad_x S, dY/dxi, dY/dx) at 1-D arrays x, xi and a scalar time t."""
    x, xi = np.asarray(x, dtype=float), np.asarray(xi, dtype=float)
    c = t * sigma * np.sign(xi) * np.abs(xi) ** (sigma - 1.0)
    target = arclength(x, eps)

    def residual(Y):
        """F(Y) = s(Y) - c G(Y)^{(sigma-1)/2} - s(x) and dF/dY."""
        g = G(Y, eps)
        dg = -2.0 * Y * (g - 1.0)
        F = arclength(Y, eps) - c * g ** (0.5 * (sigma - 1.0)) - target
        return F, g ** -0.5 - c * 0.5 * (sigma - 1.0) * g ** (0.5 * (sigma - 3.0)) * dg

    Y = x.copy()
    for _ in range(NEWTON_STEPS):
        F, dF = residual(Y)
        step = F / dF
        Y = Y - step
        if np.max(np.abs(step)) <= 1e-16 * max(1.0, float(np.max(np.abs(Y)))):
            break
    dF_dY = residual(Y)[1]
    g = G(Y, eps)
    eta = np.abs(xi) * np.sqrt(g)
    S = Y * xi - t * (sigma - 1.0) * eta ** sigma
    grad_x = np.sign(xi) * eta / np.sqrt(G(x, eps))
    dF_dxi = -t * sigma * (sigma - 1.0) * np.abs(xi) ** (sigma - 2.0) * g ** (0.5 * (sigma - 1.0))
    return Y, S, grad_x, -dF_dxi / dF_dY, G(x, eps) ** -0.5 / dF_dY


def rate_integral(eps, sigma, t, x, xi):
    """(Y, int_0^t f) at 1-D arrays x, xi and a scalar time t."""
    Y, *_, dY_dx = phase(eps, sigma, t, x, xi)
    return Y, 0.5 * np.log(np.abs(dY_dx)) + 0.25 * sigma * np.log(G(x, eps) / G(Y, eps))
