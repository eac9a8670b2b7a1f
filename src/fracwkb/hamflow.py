"""Hamiltonian flow, variational system and the inverse spatial map.

The flow solves Xdot = grad_xi H, Xidot = -grad_x H with a classical
fixed-step 4th order scheme.  The variational system propagates the full
2d x 2d Jacobian Z(t) of the flow map with Z(0) = Id alongside the
trajectory, which downstream modules use both for phase Hessians and for the
Newton iteration inverting x -> X(t, x, xi).  :func:`integrate_flow` is the
one integrator: it returns the end of the flow with the two integrals the
phase pass needs, summed node by node as it steps, so no path is stored;
it holds every node inside the guard band.

Everything is vectorized over batches of phase-space points: positions and
covectors are (n, d) arrays, Jacobians (n, 2d, 2d).
"""

from collections import namedtuple

import numpy as np

from .metric import as_pairs, solve_blocks

__all__ = [
    "GuardBandError",
    "CausticError",
    "FlowEnd",
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


# The end of a flow to time t, X and Xi (n, d) and Z (n, 2d, 2d), with two (n,)
# integrals along it from 0 to t, of the action integrand Xi . grad_xi H - H and
# of the rate f = (1/2) tr[hess_xixi H . W], W = sym(Z_xix Z_xx^{-1}).
FlowEnd = namedtuple("FlowEnd", "X Xi Z action rate_integral")


def _stage(H, X, Xi, Z):
    """The flow field at (X, Xi) and A(t) Z, with A the linearization of the
    field there, all read off one jet of H, and that jet.

    For d = 1 the two rows of A Z are products of the three scalar Hessians
    with the rows of Z, written out entry by entry (one long loop over the
    batch each), so no A is built; larger d assembles A and multiplies.
    """
    jet = H.jet(X, Xi)
    gx, gxi, hxx, hxixi, hxxi = jet[:5]
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
    return (gxi, -gx, AZ), jet


def _integrands(Xi, Z, jet):
    """The action integrand and the rate f at a node, from H's jet there.
    A singular Z_xx gives a non-finite f (a caustic), not a warning.
    """
    d = Xi.shape[1]
    with np.errstate(divide="ignore", invalid="ignore"):
        B = Z[:, d:, :d] @ solve_blocks(Z[:, :d, :d], np.eye(d))
        W = 0.5 * (B + np.swapaxes(B, 1, 2))
        return (np.sum(Xi * jet.grad_xi, axis=1) - jet.value,
                0.5 * np.einsum("nij,nji->n", jet.hess_xixi, W))


def _check_guard(band, p, node, steps, t):
    """Raise GuardBandError when a flow node's p leaves the guard `band`
    (None for a symbol without one).

    NaN counts as outside the band.  The message names the first point
    outside, with its own time when `t` is given per point.
    """
    if band is None:
        return
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

    Returns the `FlowEnd` at t.  Each step's first RK4 stage reads the two
    integrands off the jet it evaluates at its node, and the end node's jet
    is evaluated once; the Simpson weights are 1, 4, 2, ..., 4, 1 times
    t / (3 n_steps), and an odd `n_steps`, which Simpson's rule cannot take,
    gives NaN integrals.  At t = 0 the end is the start, with Z = Id and
    zero integrals.  `t` may be negative, and
    the inputs are promoted to matched (n, d) batches.  `t` is a scalar or
    one time per point; per point, each point steps by its own t / n_steps,
    and t = 0 may not share the batch with other times (ValueError).

    Every node of a flow with steps is checked against the guard band of H
    (when H carries one), each from the p its jet carries, so a flow that
    leaves the band and returns raises :class:`GuardBandError` too.  A
    nonzero `t` needs `n_steps` >= 1; fewer raise ValueError rather than
    skip the flow.
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
    if not steps:       # the end is the start: hand back copies, not the caller's arrays
        X, Xi = X.copy(), Xi.copy()

    Z = np.broadcast_to(np.eye(2 * d), (n, 2 * d, 2 * d)).copy()
    action, rate_sum = np.zeros(n), np.zeros(n)
    for k in range(steps):
        (X_next, Xi_next, Z_next), jet = _rk4_step(H, X, Xi, Z, hstep)
        _check_guard(H.xi_band, jet.p, k, steps, t)
        weight = 1.0 if k == 0 else 4.0 if k % 2 else 2.0
        g, f = _integrands(Xi, Z, jet)
        action += weight * g
        rate_sum += weight * f
        X, Xi, Z = X_next, Xi_next, Z_next
    jet = H.jet(X, Xi)
    if steps:
        _check_guard(H.xi_band, jet.p, steps, steps, t)
    g, f = _integrands(Xi, Z, jet)
    scale = hstep / 3.0 if steps % 2 == 0 else np.nan
    return FlowEnd(X, Xi, Z, scale * (action + g), scale * (rate_sum + f))


def _rk4_step(H, X, Xi, Z, h):
    """One classical RK4 step of (X, Xi) and Z, with H's jet at its start.

    `h` is a scalar or one step per point; `y + c * dy` is the same IEEE
    operation either way.
    """
    state = (X, Xi, Z)

    def shifted(c, k):
        return tuple(y + _per_point(c, y) * dy for y, dy in zip(state, k))

    k1, jet = _stage(H, *state)
    k2 = _stage(H, *shifted(0.5 * h, k1))[0]
    k3 = _stage(H, *shifted(0.5 * h, k2))[0]
    k4 = _stage(H, *shifted(h, k3))[0]
    return tuple(y + _per_point(h / 6.0, y) * (a + 2.0 * b + 2.0 * c + e)
                 for y, a, b, c, e in zip(state, k1, k2, k3, k4)), jet


def _per_point(c, y):
    """A scalar `c` as it is, or one value per point shaped to scale the batch y."""
    return c if np.ndim(c) == 0 else c.reshape((-1,) + (1,) * (y.ndim - 1))


def inverse_map(H, t, x, xi, n_steps):
    """Solve X(t, Y, xi) = x for Y by damped Newton.

    Newton starts at the first-order predictor Y = x - t grad_xi H(x, xi)
    (at x when t = 0), which is exact when the flow field does not depend
    on x, so that each flat point flows once; each point's solve depends on
    that point alone, so any batch gives it the same Y and flow.  `t` is a
    scalar or one time per point, as in :func:`integrate_flow`.
    Every Newton flow is the variational flow on `n_steps` RK4 steps (none
    at t = 0), so the Jacobian grad_y X is its end Z block and the caller
    gets back the flow it accepted: returns (Y, FlowEnd) with X on x to
    NEWTON_TOL.  Each pass flows one trial for every point off x: a trial
    that lowers the point's residual is taken and its next step is the full
    Newton step, one that does not halves the step for the next pass.  A
    batch still off x after NEWTON_MAX_ITER trial flows, or with a step too
    short to move its start, raises :class:`CausticError` with the worst
    point and its time.
    """
    d = H.dim
    xt, cov = as_pairs(x, xi, d)
    Y = xt - _per_point(t, xt) * H.jet(xt, cov).grad_xi if np.any(t != 0.0) else xt.copy()

    flow = integrate_flow(H, t, Y, cov, n_steps)
    res = np.max(np.abs(flow.X - xt), axis=1)
    # the points still off x, each with its own step; a point on x stays there
    active = np.flatnonzero(res > NEWTON_TOL)
    lam = np.ones(active.size)
    for _ in range(NEWTON_MAX_ITER):
        if not active.size:
            return Y, flow
        R = flow.X[active] - xt[active]
        delta = solve_blocks(flow.Z[active, :d, :d], R[..., None])[..., 0]
        Y_try = Y[active] - lam[:, None] * delta
        if np.any(np.all(Y_try == Y[active], axis=1)):
            break       # a step too short to move Y: that point is stuck
        trial = integrate_flow(H, _time_of(t, active), Y_try, cov[active], n_steps)
        res_try = np.max(np.abs(trial.X - xt[active]), axis=1)
        improved = res_try < res[active]
        take = active[improved]
        Y[take], res[take] = Y_try[improved], res_try[improved]
        for whole, part in zip(flow, trial):
            whole[take] = part[improved]
        lam = np.where(improved, 1.0, NEWTON_DAMPING * lam)
        off = res[active] > NEWTON_TOL
        active, lam = active[off], lam[off]
    if np.any(res > NEWTON_TOL):
        worst = int(np.argmax(res))
        raise CausticError(
            f"inverse map did not converge at t={_time_of(t, worst)}: residual {res[worst]:.3e} "
            f"at x={xt[worst]}, xi={cov[worst]} (caustic proximity?)"
        )
    return Y, flow
