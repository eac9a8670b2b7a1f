"""Hamilton-Jacobi phases built along Hamiltonian characteristics.

The generating phase of the evolution equation dS/dt - q0(x, grad_x S) = 0,
S(0) = x.xi, is assembled from the characteristics of q0 through the inverse
map Y and the action integral

    S(t, x, xi) = Y(t, x, xi) . xi + int_0^{-t} (Xi . grad_xi q0 - q0) dtau
    along the flow of q0 from (Y, xi),

with every derivative table (grad_x S = Xi(t, Y, xi), the mixed and pure
Hessians) read off the variational Jacobian rather than by differencing S.
The same pass carries the rate of the leading transport amplitude,

    f = (1/2) tr[hess_xixi q0 . hess_xx S],

and its integral along each characteristic: the a_0 integrating factor
depends on q0 and S alone, so the transport needs no flow of its own.
The sign convention is fixed here once: the characteristics are q0's flow
run backward, from 0 to -t.
"""

from dataclasses import dataclass, field

import numpy as np

from .metric import as_pairs, as_points, solve_blocks, tensor_pairs
from .hamflow import DT_DEFAULT, inverse_map

__all__ = [
    "PhaseTable",
    "PhasePointData",
    "PhaseEstimateReport",
    "HorizonError",
    "build_phase",
    "phase_point_data",
    "certify_phase_estimates",
    "caustic_horizon",
    "hj_residual",
    "second_time_derivative",
]

HORIZON_THRESHOLD = 0.5


class HorizonError(RuntimeError):
    """The near-identity Hessian condition failed at the first resolved time."""


@dataclass
class PhasePointData:
    """Phase and derivative data at a batch of (x, xi) points for one time."""

    S: np.ndarray            # (n,)
    Y: np.ndarray            # (n, d)
    grad_x: np.ndarray       # (n, d)   = Xi(t, Y, xi)
    hess_xx: np.ndarray      # (n, d, d)
    hess_xxi: np.ndarray     # (n, d, d), [i, j] = d2 S / dx_i dxi_j
    dY_dxi: np.ndarray       # (n, d, d), [i, j] = dY_i / dxi_j
    rate: np.ndarray         # (n,) complex a_0 transport rate f at (t, x)
    rate_integral: np.ndarray  # (n,) complex int_0^t f along the characteristic
    hess_asymmetry: float
    trajectory: tuple        # (times, X, Xi, hess_xx S) at every node from (Y, xi)


def _simpson(y, x):
    """scipy.integrate.simpson(y, x=x, axis=0) on an odd node count, bit for bit (its
    non-uniform arithmetic); a single node integrates to zeros of y's dtype.  The
    node times x are (nodes,), or (nodes, n) with one column per point of y."""
    h = np.diff(x, axis=0)
    h = h.reshape(h.shape + (1,) * (y.ndim - h.ndim))
    h0, h1 = h[0::2], h[1::2]
    hsum, ratio = h0 + h1, h0 / h1
    tmp = (y[0:-2:2] * (2.0 - 1.0 / ratio) + y[1:-1:2] * (hsum * (hsum / (h0 * h1)))
           + y[2::2] * (2.0 - ratio))
    return np.sum(hsum / 6.0 * tmp, axis=0)


def _even_steps(t, dt):
    n = max(2, int(np.ceil(abs(t) / dt - 1e-12)))
    return n + (n % 2)


def _step_count(q0, t, dt):
    """RK4 steps of the phase pass to the time(s) t, after rejecting a dt
    that is not positive and finite with ValueError.

    On a flat metric the covector is conserved and the flow field is constant
    along each trajectory, so one RK4 step is already exact and the action
    integrand is constant; two Simpson intervals close the quadrature.
    Otherwise the count is even, with steps of at most dt toward the
    largest |t|.
    """
    if not (np.isfinite(dt) and dt > 0.0):
        raise ValueError(f"phase step dt must be positive and finite, got {dt}")
    metric = getattr(q0, "metric", None)
    if metric is not None and metric.is_flat:
        return 2
    return _even_steps(np.max(np.abs(t), initial=0.0), dt)


def phase_point_data(q0, t, x, xi, dt=DT_DEFAULT):
    """Compute S and its derivative blocks at arbitrary (x, xi) batches.

    This is the single characteristic pass used for gridded tables, for
    off-grid evaluation (oscillatory quadrature) and for the transport
    amplitudes: the inverse map's Newton iteration returns the variational
    flow from (Y, xi) it accepted, and composite Simpson along that path
    gives the action and the integral of the transport rate
    f = (1/2) tr[hess_xixi q0 . hess_xx S], both read off q0's jet at each
    path node.  The returned trajectory holds the nodes,
    Xi = grad_x S and hess_xx S = sym(JXi JX^{-1}) at every node of that
    flow; its last node is the returned `hess_xx`.  At t = 0 the path is
    the single node (x, xi).  A `dt` that is not positive and finite raises
    ValueError.

    `t` is a scalar or one time per point.  Per point, every point takes the
    step count of the largest |t| (see `_step_count`) and its own step, the
    trajectory's times are (nodes, n), and t = 0 may not share the batch
    with other times (ValueError); a point whose own |t| has that step count
    gets what a scalar t gives it, bit for bit.
    """
    n_steps = _step_count(q0, t, dt)
    d = q0.dim
    x, xi = as_pairs(x, xi, d)
    n = x.shape[0]

    Y, (path_times, Xs, Xis, Zs) = inverse_map(q0, -t, x, xi, n_steps)
    times = 0.0 - path_times            # 0 to t, with the +0.0 first node of linspace

    JX_inv = solve_blocks(Zs[:, :, :d, :d], np.eye(d))
    B = Zs[:, :, d:, :d] @ JX_inv
    W = 0.5 * (B + np.swapaxes(B, 2, 3))
    asym = float(np.max(np.abs(B[-1] - np.swapaxes(B[-1], 1, 2)))) if n else 0.0
    dY_dxi = -(JX_inv[-1] @ Zs[-1][:, :d, d:])
    del Zs, B               # read off; the quadratures below set the memory peak

    # q0's jet, node by node so its temporaries stay one node's size, gives
    # the action integrand (Xi . grad_xi q0 - q0) and hess_xixi q0 for the rate
    integrand = np.empty(Xs.shape[:2])
    rate = np.empty(Xs.shape[:2], dtype=complex)
    for k, (X, Xi) in enumerate(zip(Xs, Xis)):
        _, gxi, _, hxixi, _, qval, _ = q0.jet(X, Xi)
        if qval is None:
            qval = q0(X, Xi)
        integrand[k] = np.sum(Xi * gxi, axis=1) - qval
        rate[k] = 0.5 * np.einsum("nij,nji->n", hxixi, W[k]).astype(complex)
    action = _simpson(integrand, path_times)
    S = np.sum(Y * xi, axis=1) + action

    return PhasePointData(
        S=S,
        Y=Y,
        grad_x=Xis[-1],
        hess_xx=W[-1],
        hess_xxi=np.swapaxes(JX_inv[-1], 1, 2),
        dY_dxi=dY_dxi,
        rate=rate[-1],
        rate_integral=_simpson(rate, times),
        hess_asymmetry=asym,
        trajectory=(times, Xs, Xis, W),
    )


@dataclass
class PhaseTable:
    """Gridded phase S(t, x, xi) with derivative tables and a caustic horizon.

    Tables are indexed [t, x, xi] with trailing component axes; the xi grid is
    a list of covector points, not a tensor product, so anisotropic bands are
    possible.  `rate` and `rate_integral` are the a_0 transport rate and its
    integral along each characteristic.  `t0` is the certified horizon from
    the mixed-Hessian condition ||grad_x grad_xi S - Id|| <= 1/2.
    """

    t_grid: np.ndarray
    x_grid: np.ndarray       # (nx, d)
    xi_grid: np.ndarray      # (nxi, d)
    S: np.ndarray            # (nt, nx, nxi)
    Y: np.ndarray            # (nt, nx, nxi, d)
    grad_x: np.ndarray       # (nt, nx, nxi, d)
    hess_xx: np.ndarray      # (nt, nx, nxi, d, d)
    hess_xxi: np.ndarray     # (nt, nx, nxi, d, d)
    rate: np.ndarray         # (nt, nx, nxi) complex
    rate_integral: np.ndarray  # (nt, nx, nxi) complex
    q0: object = field(repr=False)
    dt: float = DT_DEFAULT
    t0: float = 0.0
    hess_asymmetry: float = 0.0

    @property
    def dim(self):
        return self.x_grid.shape[1]

    def t_index(self, t):
        k = int(np.argmin(np.abs(self.t_grid - t)))
        if abs(self.t_grid[k] - t) > 1e-12:
            raise ValueError(f"t={t} is not on the phase time grid")
        return k

    def evaluate(self, t, x, xi):
        """Fresh phase computation at arbitrary points (no interpolation)."""
        return phase_point_data(self.q0, t, x, xi, dt=self.dt)


def build_phase(q0, t_grid, x_grid, xi_grid, dt=DT_DEFAULT):
    """Build a PhaseTable over the tensor grid t_grid x x_grid x xi_grid.

    The grid times that share an RK4 layout (one step count; t = 0 alone)
    are one `phase_point_data` pass on their tensor batches with one time
    per point, so every entry is what `PhaseTable.evaluate` gives on the
    tensor batch, bit for bit.  A `dt` that is not positive and finite
    raises ValueError.
    """
    d = q0.dim
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))
    x_grid = as_points(x_grid, d)
    xi_grid = as_points(xi_grid, d)
    nt, nx, nxi = len(t_grid), x_grid.shape[0], xi_grid.shape[0]

    xp, xip = tensor_pairs(x_grid, xi_grid)

    S = np.empty((nt, nx, nxi))
    Yt = np.empty((nt, nx, nxi, d))
    Gx = np.empty((nt, nx, nxi, d))
    Hxx = np.empty((nt, nx, nxi, d, d))
    Hxxi = np.empty((nt, nx, nxi, d, d))
    rate = np.empty((nt, nx, nxi), dtype=complex)
    rate_integral = np.empty((nt, nx, nxi), dtype=complex)
    worst_asym = 0.0

    # the longest paths first, so each later group fits in memory the last one freed
    layouts = np.array([_step_count(q0, t, dt) if t != 0.0 else 0 for t in t_grid])
    for steps in np.unique(layouts)[::-1]:
        ks = np.flatnonzero(layouts == steps)
        m = len(ks)
        data = phase_point_data(q0, np.repeat(t_grid[ks], nx * nxi), np.tile(xp, (m, 1)),
                                np.tile(xip, (m, 1)), dt=dt)
        S[ks] = data.S.reshape(m, nx, nxi)
        Yt[ks] = data.Y.reshape(m, nx, nxi, d)
        Gx[ks] = data.grad_x.reshape(m, nx, nxi, d)
        Hxx[ks] = data.hess_xx.reshape(m, nx, nxi, d, d)
        Hxxi[ks] = data.hess_xxi.reshape(m, nx, nxi, d, d)
        rate[ks] = data.rate.reshape(m, nx, nxi)
        rate_integral[ks] = data.rate_integral.reshape(m, nx, nxi)
        worst_asym = max(worst_asym, data.hess_asymmetry)
        del data                # before the next group's pass is built

    table = PhaseTable(
        t_grid=t_grid, x_grid=x_grid, xi_grid=xi_grid,
        S=S, Y=Yt, grad_x=Gx, hess_xx=Hxx, hess_xxi=Hxxi,
        rate=rate, rate_integral=rate_integral, q0=q0, dt=dt, hess_asymmetry=worst_asym,
    )
    table.t0 = caustic_horizon(table, strict=False)
    return table


def caustic_horizon(pt, threshold=HORIZON_THRESHOLD, strict=True):
    """Largest grid time with ||grad_x grad_xi S - Id|| <= threshold everywhere.

    Grid times are scanned in increasing |t|; the horizon is the largest
    magnitude at which every grid time of that or smaller magnitude passes.
    With `strict`, failure already at the smallest nonzero grid time raises
    :class:`HorizonError` (the grid cannot resolve any caustic-free window).
    A time grid containing only t=0 returns 0.
    """
    dev = np.linalg.norm(pt.hess_xxi - np.eye(pt.dim), ord=2, axis=(3, 4))
    mags = np.abs(pt.t_grid)
    t0 = 0.0
    for m in np.unique(mags[mags > 0.0]):
        if np.any(dev[mags == m] > threshold):
            break
        t0 = float(m)
    if strict and t0 == 0.0 and np.any(pt.t_grid != 0.0):
        raise HorizonError(
            "mixed-Hessian condition fails at the first nonzero grid time; "
            "refine the time grid or shrink the window"
        )
    return t0


@dataclass
class PhaseEstimateReport:
    """Fitted constants for the linear-in-t and quadratic-in-t phase bounds."""

    C1: float
    C2: float
    by_order: dict

    def __str__(self):
        pieces = ", ".join(f"{k}: {v:.6g}" for k, v in self.by_order.items())
        return f"C1 = {self.C1:.6g}, C2 = {self.C2:.6g} ({pieces})"


def certify_phase_estimates(pt):
    """Fit C1 = sup |d(S - x.xi)| / |t| and C2 = sup |S - x.xi - t q0| / t^2.

    First-order derivatives of S - x.xi come from the stored tables
    (grad_x S - xi and Y - x), not from differencing S.
    """
    nx, nxi = pt.x_grid.shape[0], pt.xi_grid.shape[0]
    xp, xip = tensor_pairs(pt.x_grid, pt.xi_grid)
    xxi = np.sum(xp * xip, axis=1).reshape(nx, nxi)
    q0_init = pt.q0(xp, xip).reshape(nx, nxi)

    c0 = c1x = c1xi = c2 = 0.0
    for k, t in enumerate(pt.t_grid):
        if t == 0.0:
            continue
        at = abs(t)
        c0 = max(c0, float(np.max(np.abs(pt.S[k] - xxi))) / at)
        dgx = pt.grad_x[k] - xip.reshape(nx, nxi, -1)
        c1x = max(c1x, float(np.max(np.abs(dgx))) / at)
        dy = pt.Y[k] - xp.reshape(nx, nxi, -1)
        c1xi = max(c1xi, float(np.max(np.abs(dy))) / at)
        c2 = max(c2, float(np.max(np.abs(pt.S[k] - xxi - t * q0_init))) / at**2)

    by_order = {"value/|t|": c0, "grad_x/|t|": c1x, "grad_xi/|t|": c1xi}
    return PhaseEstimateReport(C1=max(c0, c1x, c1xi), C2=c2, by_order=by_order)


def hj_residual(pt):
    """|dS/dt - q0(x, grad_x S)| on the grid, with dS/dt by time differencing.

    On a uniform time grid with >= 5 nodes a 4th-order central stencil is
    used, so the reported residual reflects the construction rather than the
    differencing; otherwise np.gradient (2nd order).  Returns the residual
    array (nt, nx, nxi) with NaN at times where no centered stencil fits, and
    the max over the valid interior.
    """
    nt, nx, nxi = pt.S.shape
    if nt < 3:
        raise ValueError("need at least 3 time nodes for the residual check")
    tg = pt.t_grid
    spacings = np.diff(tg)
    uniform = np.allclose(spacings, spacings[0], rtol=1e-12, atol=0.0)

    qvals = np.empty_like(pt.S)
    xp, _ = tensor_pairs(pt.x_grid, pt.xi_grid)
    for k in range(nt):
        eta = pt.grad_x[k].reshape(nx * nxi, -1)
        qvals[k] = pt.q0(xp, eta).reshape(nx, nxi)

    res = np.full_like(pt.S, np.nan)
    if uniform and nt >= 5:
        dt = spacings[0]
        S = pt.S
        dSdt = (-S[4:] + 8.0 * S[3:-1] - 8.0 * S[1:-3] + S[:-4]) / (12.0 * dt)
        res[2:-2] = np.abs(dSdt - qvals[2:-2])
        valid = res[2:-2]
    else:
        dSdt = np.gradient(pt.S, tg, axis=0)
        res[1:-1] = np.abs(dSdt - qvals)[1:-1]
        valid = res[1:-1]
    return res, float(np.max(valid))


def second_time_derivative(pt, k=None):
    """d2S/dt2 from the derivative tables (no differencing of S).

    Differentiating dS/dt = q0(x, grad_x S) once more in t gives, with
    g = grad_eta q0 evaluated at (x, grad_x S),

        d2S/dt2 = g . grad_x q0(x, grad_x S) + g . (hess_xx S) g.

    Returns the (nt, nx, nxi) array, or one time slice when `k` is given.
    """
    q0 = pt.q0
    nt, nx, nxi = pt.S.shape
    ks = range(nt) if k is None else [k]
    out = np.empty((len(ks), nx, nxi))
    xp, _ = tensor_pairs(pt.x_grid, pt.xi_grid)
    for i, kk in enumerate(ks):
        eta = pt.grad_x[kk].reshape(nx * nxi, -1)
        gx, g, *_ = q0.jet(xp, eta)
        W = pt.hess_xx[kk].reshape(nx * nxi, g.shape[1], g.shape[1])
        val = np.sum(g * gx, axis=1) + np.einsum("ni,nij,nj->n", g, W, g)
        out[i] = val.reshape(nx, nxi)
    return out[0] if k is not None else out
