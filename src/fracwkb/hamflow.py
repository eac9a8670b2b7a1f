"""Hamiltonian flow, variational system and the inverse spatial map.

The flow solves Xdot = grad_xi H, Xidot = -grad_x H with a classical
fixed-step 4th order scheme.  The variational system propagates the full
2d x 2d Jacobian Z(t) of the flow map with Z(0) = Id alongside the
trajectory, which downstream modules use both for phase Hessians and for the
Newton iteration inverting x -> X(t, x, xi).  :func:`integrate_flow` is the
one integrator: it returns the whole uniform node path of the state and its
Jacobian, and it holds every node inside the guard band.

Everything is vectorized over batches of phase-space points: positions and
covectors are (n, d) arrays, Jacobians (n, 2d, 2d).
"""

import numpy as np

from .metric import as_pairs, as_points, principal_symbol, solve_blocks

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


def _stage(H, X, Xi, Z):
    """The flow field at (X, Xi) and A(t) Z, with A the linearization of the
    field there, all read off one jet of H."""
    gx, gxi, hxx, hxixi, hxxi = H.jet(X, Xi)
    d = X.shape[1]
    A = np.empty((X.shape[0], 2 * d, 2 * d))
    A[:, :d, :d] = np.swapaxes(hxxi, 1, 2)
    A[:, :d, d:] = hxixi
    A[:, d:, :d] = -hxx
    A[:, d:, d:] = -hxxi
    return gxi, -gx, A @ Z


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


def integrate_flow(H, t, x, xi, n_steps):
    """Flow (x, xi) and the variational Jacobian Z to time t in `n_steps` RK4 steps.

    Returns (times, X, Xi, Z) over the n_steps + 1 uniform nodes from 0 to
    t, each state array with a leading node axis: X and Xi are (nodes, n, d)
    and Z is (nodes, n, 2d, 2d) with Z = Id at the first node.  At t = 0 the
    path is the single starting node.  `t` may be negative, and the inputs
    are promoted to matched (n, d) batches.

    Every RK4 node is checked against the guard band of H (when H carries
    one), so a path that leaves the band and returns raises
    :class:`GuardBandError` too.
    """
    d = H.dim
    X, Xi = as_pairs(x, xi, d)
    n = X.shape[0]
    steps = n_steps if t != 0.0 else 0
    hstep = t / steps if steps else 0.0

    times = np.linspace(0.0, t, steps + 1)
    Xs = np.empty((steps + 1, n, d))
    Xis = np.empty((steps + 1, n, d))
    Zs = np.empty((steps + 1, n, 2 * d, 2 * d))
    Xs[0], Xis[0], Zs[0] = X, Xi, np.eye(2 * d)
    for k in range(steps):
        X, Xi, Z = _rk4_step(H, Xs[k], Xis[k], Zs[k], hstep)
        _check_guard(H, X, Xi, f" at step {k + 1} of {steps} toward t={t}")
        Xs[k + 1], Xis[k + 1], Zs[k + 1] = X, Xi, Z
    return times, Xs, Xis, Zs


def _rk4_step(H, X, Xi, Z, h):
    """One classical RK4 step of (X, Xi) and Z."""
    state = (X, Xi, Z)

    def shifted(c, k):
        return tuple(y + c * dy for y, dy in zip(state, k))

    k1 = _stage(H, *state)
    k2 = _stage(H, *shifted(0.5 * h, k1))
    k3 = _stage(H, *shifted(0.5 * h, k2))
    k4 = _stage(H, *shifted(h, k3))
    return tuple(y + (h / 6.0) * (a + 2.0 * b + 2.0 * c + e)
                 for y, a, b, c, e in zip(state, k1, k2, k3, k4))


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

    path = integrate_flow(H, t, Y, cov, n_steps)
    _, Xs, _, Zs = path
    res = np.max(np.abs(Xs[-1] - xt), axis=1)
    for _ in range(NEWTON_MAX_ITER):
        if np.all(res <= NEWTON_TOL):
            return Y, path
        # trials flow only the points a trial may still update
        active = np.flatnonzero(res > NEWTON_TOL)
        R = Xs[-1, active] - xt[active]
        delta = solve_blocks(Zs[-1, active, :d, :d], R[..., None])[..., 0]
        lam = np.ones(active.size)
        for _ in range(10):
            Y_try = Y[active] - lam[:, None] * delta
            trial = integrate_flow(H, t, Y_try, cov[active], n_steps)
            res_try = np.max(np.abs(trial[1][-1] - xt[active]), axis=1)
            improved = res_try < res[active]
            take = active[improved]
            Y[take], res[take] = Y_try[improved], res_try[improved]
            for nodes, nodes_try in zip(path[1:], trial[1:]):
                nodes[:, take] = nodes_try[:, improved]
            active, delta, lam = active[~improved], delta[~improved], lam[~improved]
            if not active.size:
                break
            lam *= NEWTON_DAMPING
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


def flow_horizon(H, t_grid, x, xi, threshold=0.5):
    """Largest grid time with ||grad_x X - Id|| <= threshold at every sample.

    Scans |t| in increasing order over the grid; the returned horizon is the
    largest magnitude for which all smaller grid times also satisfy the bound.
    """
    d = H.dim
    t_grid = np.asarray(t_grid, dtype=float)

    def passes(k):
        *_, Zs = integrate_flow(H, t_grid[k], x, xi, _step_count(t_grid[k], DT_DEFAULT))
        dev = np.linalg.norm(Zs[-1, :, :d, :d] - np.eye(d), ord=2, axis=(1, 2))
        return not np.any(dev > threshold)

    return scan_horizon(t_grid, passes)
