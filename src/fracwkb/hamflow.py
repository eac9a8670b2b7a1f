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

from .metric import as_pairs, principal_symbol, solve_blocks

__all__ = [
    "GuardBandError",
    "CausticError",
    "integrate_flow",
    "inverse_map",
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
    field there, all read off one jet of H, and the jet's p for the guard.

    For d = 1 the two rows of A Z are products of the three scalar Hessians
    with the rows of Z, written out entry by entry (one long loop over the
    batch each), so no A is built; larger d assembles A and multiplies.
    """
    gx, gxi, hxx, hxixi, hxxi, _, p = H.jet(X, Xi)
    if X.shape[1] == 1:
        a, b, c = hxxi[:, 0, 0], hxixi[:, 0, 0], hxx[:, 0, 0]
        AZ = np.empty_like(Z)
        for k in range(2):
            z_x, z_xi = Z[:, 0, k], Z[:, 1, k]
            AZ[:, 0, k] = a * z_x + b * z_xi
            AZ[:, 1, k] = -c * z_x - a * z_xi
    else:
        d = X.shape[1]
        A = np.empty((X.shape[0], 2 * d, 2 * d))
        A[:, :d, :d] = np.swapaxes(hxxi, 1, 2)
        A[:, :d, d:] = hxixi
        A[:, d:, :d] = -hxx
        A[:, d:, d:] = -hxxi
        AZ = A @ Z
    return (gxi, -gx, AZ), p


def _check_guard(H, X, Xi, p, node, steps, t):
    """Raise GuardBandError when a path node leaves H's guard band.

    `p` is the principal symbol at the node when the jet carried it (None
    evaluates it); NaN counts as outside the band.  The message names the
    first point outside, with its own time when `t` is given per point.
    """
    band = getattr(H, "xi_band", None)
    metric = getattr(H, "metric", None)
    if band is None or metric is None:
        return
    if p is None:
        p = principal_symbol(metric, X, Xi)
    lo, hi = band
    inside = (p >= lo) & (p <= hi)
    if not np.all(inside):
        k = int(np.argmin(inside))
        raise GuardBandError(
            f"trajectory left the guard band p in [{lo}, {hi}] "
            f"(range [{np.min(p):.6g}, {np.max(p):.6g}]) at node {node} of {steps} "
            f"toward t={_time_of(t, k)}"
        )


def _time_of(t, k):
    """The time of point(s) k: `t` itself, or its entries when given per point."""
    return t if np.ndim(t) == 0 else t[k]


def integrate_flow(H, t, x, xi, n_steps):
    """Flow (x, xi) and the variational Jacobian Z to time t in `n_steps` RK4 steps.

    Returns (times, X, Xi, Z) over the n_steps + 1 uniform nodes from 0 to
    t, each state array with a leading node axis: X and Xi are (nodes, n, d)
    and Z is (nodes, n, 2d, 2d) with Z = Id at the first node.  At t = 0 the
    path is the single starting node.  `t` may be negative, and the inputs
    are promoted to matched (n, d) batches.  `t` is a scalar or one time per
    point; per point, each point steps by its own t / n_steps, `times` is
    (nodes, n), and t = 0 may not share the batch with other times
    (ValueError).

    Every node of a path with steps is checked against the guard band of H
    (when H carries one), each from the p its first RK4 stage reads and the
    last one from p evaluated there, so a path that leaves the band and
    returns raises :class:`GuardBandError` too.  A nonzero `t` needs
    `n_steps` >= 1; fewer raise ValueError rather than skip the flow.
    """
    moves = bool(np.any(t != 0.0))
    if moves and np.any(t == 0.0):
        raise ValueError("per-point times mix t = 0 with nonzero t; solve t = 0 apart")
    if moves and n_steps < 1:
        raise ValueError(f"flow to t={t} needs n_steps >= 1, got {n_steps}")
    d = H.dim
    X, Xi = as_pairs(x, xi, d)
    n = X.shape[0]
    if np.ndim(t) and np.shape(t) != (n,):
        raise ValueError(f"per-point times of shape {np.shape(t)} for {n} points")
    steps = n_steps if moves else 0
    hstep = t / steps if steps else 0.0

    times = np.linspace(0.0, t, steps + 1)
    Xs = np.empty((steps + 1, n, d))
    Xis = np.empty((steps + 1, n, d))
    Zs = np.empty((steps + 1, n, 2 * d, 2 * d))
    Xs[0], Xis[0], Zs[0] = X, Xi, np.eye(2 * d)
    for k in range(steps):
        (Xs[k + 1], Xis[k + 1], Zs[k + 1]), p = _rk4_step(H, Xs[k], Xis[k], Zs[k], hstep)
        _check_guard(H, Xs[k], Xis[k], p, k, steps, t)
    if steps:
        _check_guard(H, Xs[-1], Xis[-1], None, steps, steps, t)
    return times, Xs, Xis, Zs


def _rk4_step(H, X, Xi, Z, h):
    """One classical RK4 step of (X, Xi) and Z, with the jet's p at its start.

    `h` is a scalar or one step per point; `y + c * dy` is the same IEEE
    operation either way.
    """
    state = (X, Xi, Z)

    def shifted(c, k):
        return tuple(y + _per_point(c, y) * dy for y, dy in zip(state, k))

    k1, p = _stage(H, *state)
    k2 = _stage(H, *shifted(0.5 * h, k1))[0]
    k3 = _stage(H, *shifted(0.5 * h, k2))[0]
    k4 = _stage(H, *shifted(h, k3))[0]
    return tuple(y + _per_point(h / 6.0, y) * (a + 2.0 * b + 2.0 * c + e)
                 for y, a, b, c, e in zip(state, k1, k2, k3, k4)), p


def _per_point(c, y):
    """A scalar `c` as it is, or one value per point shaped to scale the batch y."""
    return c if np.ndim(c) == 0 else c.reshape((-1,) + (1,) * (y.ndim - 1))


def inverse_map(H, t, x, xi, n_steps):
    """Solve X(t, Y, xi) = x for Y by damped Newton.

    Newton starts at the first-order predictor Y = x - t grad_xi H(x, xi)
    (at x when t = 0), which is exact when the flow field does not depend
    on x, so that each flat point flows once; each point's solve depends on
    that point alone, so any batch gives it the same Y and path.  `t` is a
    scalar or one time per point, as in :func:`integrate_flow`.
    Every Newton flow is the variational path on `n_steps` RK4 steps (none
    at t = 0), so the Jacobian grad_y X is its last node and the caller
    gets back the flow it accepted: returns (Y, (times, X, Xi, Z)) with the
    path ending on x to NEWTON_TOL.  Each pass flows one trial for every
    point off x: a trial that lowers the point's residual is taken and its
    next step is the full Newton step, one that does not halves the step
    for the next pass.  A batch still off x after NEWTON_MAX_ITER trial
    flows, or with a step too short to move its start, raises
    :class:`CausticError` with the worst point and its time.
    """
    d = H.dim
    xt, cov = as_pairs(x, xi, d)
    Y = xt - _per_point(t, xt) * H.jet(xt, cov)[1] if np.any(t != 0.0) else xt.copy()

    path = integrate_flow(H, t, Y, cov, n_steps)
    _, Xs, _, Zs = path
    res = np.max(np.abs(Xs[-1] - xt), axis=1)
    # the points still off x, each with its own step; a point on x stays there
    active = np.flatnonzero(res > NEWTON_TOL)
    lam = np.ones(active.size)
    for _ in range(NEWTON_MAX_ITER):
        if not active.size:
            return Y, path
        R = Xs[-1, active] - xt[active]
        delta = solve_blocks(Zs[-1, active, :d, :d], R[..., None])[..., 0]
        Y_try = Y[active] - lam[:, None] * delta
        if np.any(np.all(Y_try == Y[active], axis=1)):
            break       # a step too short to move Y: that point is stuck
        trial = integrate_flow(H, _time_of(t, active), Y_try, cov[active], n_steps)
        res_try = np.max(np.abs(trial[1][-1] - xt[active]), axis=1)
        improved = res_try < res[active]
        take = active[improved]
        Y[take], res[take] = Y_try[improved], res_try[improved]
        # node by node, so no copy of a whole path is made; no name
        # outlives the trial, which goes before the next one is built
        for k in (1, 2, 3):
            for nodes, nodes_try in zip(path[k], trial[k]):
                nodes[take] = nodes_try[improved]
        del trial, nodes_try
        lam = np.where(improved, 1.0, NEWTON_DAMPING * lam)
        off = res[active] > NEWTON_TOL
        active, lam = active[off], lam[off]
    if np.any(res > NEWTON_TOL):
        worst = int(np.argmax(res))
        raise CausticError(
            f"inverse map did not converge at t={_time_of(t, worst)}: residual {res[worst]:.3e} "
            f"at x={xt[worst]}, xi={cov[worst]} (caustic proximity?)"
        )
    return Y, path
