"""Hamiltonian flow, variational system and the inverse spatial map.

The flow solves Xdot = grad_xi H, Xidot = -grad_x H with a classical
fixed-step 4th order scheme.  The variational system propagates the full
2d x 2d Jacobian Z(t) of the flow map with Z(0) = Id alongside the
trajectory, which downstream modules use both for phase Hessians and for the
Newton iteration inverting x -> X(t, x, xi).  :func:`integrate_flow` is the
one integrator: it returns either the final state or the whole uniform node
path, and it holds every node inside the guard band.

Everything is vectorized over batches of phase-space points: positions and
covectors are (n, d) arrays, Jacobians (n, 2d, 2d).
"""

import numpy as np

from .metric import as_pairs, as_points, principal_symbol

__all__ = [
    "GuardBandError",
    "CausticError",
    "integrate_flow",
    "inverse_map",
    "flow_horizon",
    "DT_DEFAULT",
    "NEWTON_TOL",
]

DT_DEFAULT = 0.01
NEWTON_TOL = 1e-11
NEWTON_MAX_ITER = 50
NEWTON_DAMPING = 0.5


class GuardBandError(RuntimeError):
    """A trajectory left the compact xi-support guard band."""


class CausticError(RuntimeError):
    """The damped Newton iteration for the inverse map failed to converge."""


def _rhs(H, X, Xi):
    return H.grad_xi(X, Xi), -H.grad_x(X, Xi)


def _variational_rhs(H, X, Xi, Z):
    """A(t) Z with A the linearization of the flow field at (X, Xi)."""
    d = X.shape[1]
    Hxxi = H.hess_xxi(X, Xi)      # [n, i, j] = d2H/dx_i dxi_j
    Hxixi = H.hess_xixi(X, Xi)
    Hxx = H.hess_xx(X, Xi)
    n = X.shape[0]
    A = np.empty((n, 2 * d, 2 * d))
    A[:, :d, :d] = np.swapaxes(Hxxi, 1, 2)
    A[:, :d, d:] = Hxixi
    A[:, d:, :d] = -Hxx
    A[:, d:, d:] = -Hxxi
    return np.einsum("nij,njk->nik", A, Z)


def _step_count(t, dt):
    return max(1, int(np.ceil(abs(t) / dt - 1e-12)))


def _check_guard(H, X, Xi, where):
    band = getattr(H, "xi_band", None)
    metric = getattr(H, "metric", None)
    if band is None or metric is None:
        return
    p = principal_symbol(metric, X, Xi)
    lo, hi = band
    if (p < lo).any() or (p > hi).any():
        raise GuardBandError(
            f"trajectory left the guard band p in [{lo}, {hi}] "
            f"(range [{p.min():.6g}, {p.max():.6g}]){where}"
        )


def integrate_flow(H, t, x, xi, dt=DT_DEFAULT, n_steps=None, with_variational=False,
                   path=False):
    """Flow (x, xi) to time t; returns (X, Xi), (X, Xi, Z) or the node path.

    Parameters
    ----------
    H : SymbolFunction
        Hamiltonian with gradient and Hessian evaluators.
    t : float
        Target time, may be negative.
    x, xi : arrays
        Batches of initial positions / covectors, promoted to (n, d).
    dt : float
        Nominal step size; the actual count is ceil(|t| / dt).
    n_steps : int, optional
        Overrides the step count (used by quadrature callers that need a
        specific node layout).
    path : bool
        Return (times, X, Xi, Z) over the n_steps + 1 uniform nodes from 0
        to t, the state arrays with a leading node axis (Z is None without
        `with_variational`), for quadrature along the path.  Without it only
        the final state is kept.

    Every RK4 node is checked against the guard band of H (when H carries
    one), so a path that leaves the band and returns raises
    :class:`GuardBandError` too.
    """
    d = H.dim
    X, Xi = (a.copy() for a in as_pairs(x, xi, d))
    n = X.shape[0]
    Z = np.broadcast_to(np.eye(2 * d), (n, 2 * d, 2 * d)).copy() if with_variational else None
    if t == 0.0:
        steps = 0
    else:
        steps = n_steps if n_steps is not None else _step_count(t, dt)
    hstep = t / steps if steps else 0.0

    if path:
        times = np.linspace(0.0, t, steps + 1)
        Xs = np.empty((steps + 1, n, d))
        Xis = np.empty((steps + 1, n, d))
        Zs = np.empty((steps + 1, n, 2 * d, 2 * d)) if with_variational else None
        Xs[0], Xis[0] = X, Xi
        if with_variational:
            Zs[0] = Z
    for k in range(steps):
        X, Xi, Z = _rk4_step(H, X, Xi, Z, hstep)
        _check_guard(H, X, Xi, f" at step {k + 1} of {steps} toward t={t}")
        if path:
            Xs[k + 1], Xis[k + 1] = X, Xi
            if with_variational:
                Zs[k + 1] = Z
    if path:
        return times, Xs, Xis, Zs
    return (X, Xi, Z) if with_variational else (X, Xi)


def _rk4_step(H, X, Xi, Z, h):
    k1x, k1p = _rhs(H, X, Xi)
    k2x, k2p = _rhs(H, X + 0.5 * h * k1x, Xi + 0.5 * h * k1p)
    k3x, k3p = _rhs(H, X + 0.5 * h * k2x, Xi + 0.5 * h * k2p)
    k4x, k4p = _rhs(H, X + h * k3x, Xi + h * k3p)
    Xn = X + (h / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
    Xin = Xi + (h / 6.0) * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
    Zn = None
    if Z is not None:
        k1z = _variational_rhs(H, X, Xi, Z)
        k2z = _variational_rhs(H, X + 0.5 * h * k1x, Xi + 0.5 * h * k1p, Z + 0.5 * h * k1z)
        k3z = _variational_rhs(H, X + 0.5 * h * k2x, Xi + 0.5 * h * k2p, Z + 0.5 * h * k2z)
        k4z = _variational_rhs(H, X + h * k3x, Xi + h * k3p, Z + h * k3z)
        Zn = Z + (h / 6.0) * (k1z + 2.0 * k2z + 2.0 * k3z + k4z)
    return Xn, Xin, Zn


def inverse_map(H, t, x, xi, n_steps, y0=None):
    """Solve X(t, Y, xi) = x for Y by damped Newton started at x (or `y0`).

    Every Newton flow is the variational path on `n_steps` RK4 steps (none
    at t = 0), so the Jacobian grad_y X is its last node and the caller
    gets back the flow it accepted: returns (Y, (times, X, Xi, Z)) with the
    path ending on x to NEWTON_TOL.  Steps that do not reduce the residual
    are repeatedly scaled by the damping factor; a batch that still violates
    the tolerance after NEWTON_MAX_ITER sweeps raises :class:`CausticError`
    with the worst offending point.
    """
    d = H.dim
    xt, cov = as_pairs(x, xi, d)
    Y = xt.copy() if y0 is None else as_points(y0, d).copy()

    def forward(Yc):
        return integrate_flow(H, t, Yc, cov, n_steps=n_steps, with_variational=True,
                              path=True)

    path = forward(Y)
    _, Xs, Xis, Zs = path
    res = np.max(np.abs(Xs[-1] - xt), axis=1)
    for _ in range(NEWTON_MAX_ITER):
        if np.all(res <= NEWTON_TOL):
            return Y, path
        R = Xs[-1] - xt
        delta = np.linalg.solve(Zs[-1, :, :d, :d], R[..., None])[..., 0]
        lam = np.ones(Y.shape[0])
        active = res > NEWTON_TOL
        for _ in range(10):
            Y_try = Y - lam[:, None] * delta
            _, Xs_try, Xis_try, Zs_try = forward(Y_try)
            res_try = np.max(np.abs(Xs_try[-1] - xt), axis=1)
            improved = res_try < res
            take = active & improved
            Y[take] = Y_try[take]
            Xs[:, take] = Xs_try[:, take]
            Xis[:, take] = Xis_try[:, take]
            Zs[:, take] = Zs_try[:, take]
            res[take] = res_try[take]
            active = active & ~improved
            if not active.any():
                break
            lam[active] *= NEWTON_DAMPING
    if np.any(res > NEWTON_TOL):
        worst = int(np.argmax(res))
        raise CausticError(
            f"inverse map did not converge at t={t}: residual {res[worst]:.3e} "
            f"at x={xt[worst]}, xi={cov[worst]} (caustic proximity?)"
        )
    return Y, path


def scan_horizon(t_grid, passes):
    """Largest |t| on the grid such that every grid time of magnitude <= |t| passes.

    `passes(k)` tells whether the k-th grid time meets the condition; it is
    asked in increasing |t| order and only until the first failure.  t = 0
    always passes, and a grid whose smallest nonzero time fails gives 0.
    """
    mags = np.abs(np.asarray(t_grid, dtype=float))
    t0 = 0.0
    for m in np.unique(mags[mags > 0.0]):
        if not all(passes(k) for k in np.flatnonzero(mags == m)):
            break
        t0 = float(m)
    return t0


def flow_horizon(H, t_grid, x, xi, dt=DT_DEFAULT, threshold=0.5):
    """Largest grid time with ||grad_x X - Id|| <= threshold at every sample.

    Scans |t| in increasing order over the grid; the returned horizon is the
    largest magnitude for which all smaller grid times also satisfy the bound.
    """
    d = H.dim
    t_grid = np.asarray(t_grid, dtype=float)

    def passes(k):
        _, _, Z = integrate_flow(H, t_grid[k], x, xi, dt=dt, with_variational=True)
        dev = np.linalg.norm(Z[:, :d, :d] - np.eye(d), ord=2, axis=(1, 2))
        return not np.any(dev > threshold)

    return scan_horizon(t_grid, passes)
