"""Transport amplitudes for the WKB parametrix, solved along characteristics.

The leading amplitude rides the Hamiltonian flow: a0(t, x, xi) is the initial
symbol evaluated at the backward base point Y(t, x, xi), times an integrating
factor accumulated along the characteristic whose rate f combines the
xi-Hessian of q0 with the phase's x-Hessian.  The first correction a1 is
constructed over the flat metric, where its source term, the second-order
composition of q0 with a0, has a closed form; higher orders and curved
metrics are declined explicitly rather than approximated.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import simpson

from .metric import as_pairs, principal_symbol, tensor_pairs
from .hamflow import DT_DEFAULT, GuardBandError
from .hamjac import phase_point_data

__all__ = [
    "AmplitudeTable",
    "AmplitudePointData",
    "SupportViolationError",
    "solve_transport",
    "amplitude_point_data",
    "transport_residual",
]


class SupportViolationError(RuntimeError):
    """A characteristic left the compact support guard band."""


@dataclass
class AmplitudePointData:
    """Amplitudes and transport coefficients at a batch of (x, xi), one time.

    The phase S rides along because the characteristics already carry all of
    its ingredients; oscillatory-quadrature callers then need one flow per
    batch instead of two.
    """

    a: np.ndarray            # (order, n) complex
    V: np.ndarray            # (n, d) transport field (grad_eta q0)(x, grad_x S)
    f: np.ndarray            # (n,) complex zeroth-order coefficient at (t, x)
    Y: np.ndarray            # (n, d) backward base points
    S: np.ndarray = None     # (n,) phase values at the same points


MAX_POINT_BATCH = 65536


def amplitude_point_data(a_init, q0, t, x, xi, q1=None, order=1,
                         dt=DT_DEFAULT, y0=None):
    """Evaluate a_0 (and a_1 when order=2) at arbitrary (x, xi) batches.

    The characteristic through (t, x, xi) is the flow from (Y, xi); along it
    the momentum Xi(s) equals grad_x S(s, Z(s), xi), and `phase_point_data`
    hands back hess_xx S(s, Z(s), xi) at every node, so the rate

        f(s) = (1/2) tr[hess_eta q0(Z, Xi) hess_xx S] + i q1(Z, Xi)

    is read off that trajectory and integrated by composite Simpson.
    Large batches are processed in chunks so the per-node trajectory storage
    stays bounded.
    """
    d = q0.dim
    x, xi = as_pairs(x, xi, d)
    n = x.shape[0]
    _check_order(q0, q1, order)

    if n > MAX_POINT_BATCH:
        chunks = []
        for start in range(0, n, MAX_POINT_BATCH):
            sl = slice(start, min(start + MAX_POINT_BATCH, n))
            y0c = None if y0 is None else y0[sl]
            chunks.append(amplitude_point_data(
                a_init, q0, t, x[sl], xi[sl], q1=q1, order=order, dt=dt, y0=y0c,
            ))
        return AmplitudePointData(
            a=np.concatenate([c.a for c in chunks], axis=1),
            V=np.concatenate([c.V for c in chunks], axis=0),
            f=np.concatenate([c.f for c in chunks], axis=0),
            Y=np.concatenate([c.Y for c in chunks], axis=0),
            S=np.concatenate([c.S for c in chunks], axis=0),
        )

    try:
        data = phase_point_data(q0, t, x, xi, dt=dt, y0=y0)
    except GuardBandError as err:
        raise SupportViolationError(str(err)) from err
    times, Xs, Xis, W = data.trajectory
    n_nodes = len(times)
    flatX = Xs.reshape(-1, d)
    flatXi = Xis.reshape(-1, d)

    _, gq, _, hq, _ = q0.jet(flatX, flatXi)
    hq = hq.reshape(n_nodes, n, d, d)
    fvals = 0.5 * np.einsum("tnij,tnji->tn", hq, W).astype(complex)
    if q1 is not None:
        fvals += 1j * q1(flatX, flatXi).reshape(n_nodes, n)
    integral = simpson(fvals, x=times, axis=0)

    a = np.zeros((order, n), dtype=complex)
    a[0] = a_init(data.Y, xi).astype(complex) * np.exp(integral)

    if order >= 2 and n_nodes > 1:
        # flat-only branch (checked above): f vanishes identically, and the
        # source i (q0 . a0(s))_2 at the node Z(s) evaluates the x-Hessian of
        # the translated initial symbol at Z(s) + s V(xi); a one-node path
        # (t = 0) gives it zero Simpson weight, so a_1 keeps its initial 0
        args = Xs + times[:, None, None] * gq.reshape(n_nodes, n, d)
        xi_rep = np.broadcast_to(xi, (n_nodes, n, d)).reshape(-1, d)
        ha = a_init.hess_xx(args.reshape(-1, d), xi_rep).reshape(n_nodes, n, d, d)
        g1 = -0.5j * np.einsum("tnij,tnji->tn", hq, ha)
        a[1] = simpson(g1, x=times, axis=0)

    V = q0.grad_xi(x, data.grad_x)
    return AmplitudePointData(a=a, V=V, f=fvals[-1], Y=data.Y, S=data.S)


def _check_order(q0, q1, order):
    if order < 1:
        raise ValueError("amplitude order must be >= 1")
    if order == 1:
        return
    metric = getattr(q0, "metric", None)
    flat = metric is not None and metric.is_flat
    if order > 2 or not flat or q1 is not None:
        raise ValueError(
            "amplitude orders beyond a_0 are only constructed over the flat "
            "metric with q1 = 0, where the source symbol has a closed form; "
            f"got order={order}"
        )


@dataclass
class AmplitudeTable:
    """Gridded WKB amplitudes a_j(t, x, xi) with their transport coefficients.

    `values[j]` holds a_j on the (t, x, xi) grid; `V` and `f` are the
    transport field and zeroth-order coefficient at the same nodes, kept for
    residual checks and audits.  Off-grid values come from `evaluate`, which
    recomputes along fresh characteristics rather than interpolating.
    """

    order: int
    t_grid: np.ndarray
    x_grid: np.ndarray       # (nx, d)
    xi_grid: np.ndarray      # (nxi, d)
    values: np.ndarray       # (order, nt, nx, nxi) complex
    V: np.ndarray            # (nt, nx, nxi, d)
    f: np.ndarray            # (nt, nx, nxi) complex
    a_init: object = field(repr=False)
    q0: object = field(repr=False)
    q1: object = field(default=None, repr=False)
    dt: float = DT_DEFAULT

    @property
    def dim(self):
        return self.x_grid.shape[1]

    def evaluate(self, t, x, xi):
        """Fresh amplitude computation at arbitrary points (no interpolation)."""
        return amplitude_point_data(
            self.a_init, self.q0, t, x, xi, q1=self.q1, order=self.order, dt=self.dt,
        )

    def boundedness_report(self):
        """Grid sup of each |a_j| and (for 1-D grids) its first differences."""
        report = {}
        for j in range(self.order):
            entry = {"sup": float(np.max(np.abs(self.values[j])))}
            if self.dim == 1 and self.x_grid.shape[0] > 1:
                dax = np.gradient(self.values[j], self.x_grid[:, 0], axis=1)
                entry["sup_grad_x"] = float(np.max(np.abs(dax)))
            if self.dim == 1 and self.xi_grid.shape[0] > 1:
                daxi = np.gradient(self.values[j], self.xi_grid[:, 0], axis=2)
                entry["sup_grad_xi"] = float(np.max(np.abs(daxi)))
            report[j] = entry
        report["V_sup"] = float(np.max(np.abs(self.V)))
        report["f_sup"] = float(np.max(np.abs(self.f)))
        return report

    def support_report(self, band=None):
        """Max |a_j| at grid nodes whose p(x, xi) lies outside the guard band."""
        band = band if band is not None else self.q0.xi_band
        if band is None:
            raise ValueError("no guard band configured for the support check")
        metric = self.q0.metric
        nx, nxi = self.x_grid.shape[0], self.xi_grid.shape[0]
        xp, xip = tensor_pairs(self.x_grid, self.xi_grid)
        p = principal_symbol(metric, xp, xip).reshape(nx, nxi)
        outside = (p < band[0]) | (p > band[1])
        if not outside.any():
            return {"band": band, "n_outside": 0, "outside_max": 0.0}
        worst = float(np.max(np.abs(self.values[:, :, outside])))
        return {"band": band, "n_outside": int(outside.sum()), "outside_max": worst}


def solve_transport(a_init, phase, q0=None, q1=None, N=None):
    """Solve the transport hierarchy on the phase table's grid.

    The transport rides the phase table's own characteristics: each time's
    inverse map starts from the table's base points `phase.Y`, so with the
    table's q0 one verifying flow confirms them and no second warm-started
    sweep is needed (a different `q0` still converges from that start).
    N defaults to 2 over the flat metric and 1 otherwise; initial data are
    a_0(0) = a_init and a_r(0) = 0.  Characteristics exiting the guard band
    surface as :class:`SupportViolationError`.
    """
    q0 = q0 or phase.q0
    metric = getattr(q0, "metric", None)
    flat = metric is not None and metric.is_flat
    if N is None:
        N = 2 if flat else 1
    _check_order(q0, q1, N)

    d = q0.dim
    t_grid = phase.t_grid
    x_grid, xi_grid = phase.x_grid, phase.xi_grid
    nt, nx, nxi = len(t_grid), x_grid.shape[0], xi_grid.shape[0]
    xp, xip = tensor_pairs(x_grid, xi_grid)

    values = np.empty((N, nt, nx, nxi), dtype=complex)
    V = np.empty((nt, nx, nxi, d))
    f = np.empty((nt, nx, nxi), dtype=complex)

    for k, t in enumerate(t_grid):
        data = amplitude_point_data(a_init, q0, t, xp, xip, q1=q1, order=N,
                                    dt=phase.dt, y0=phase.Y[k].reshape(-1, d))
        values[:, k] = data.a.reshape(N, nx, nxi)
        V[k] = data.V.reshape(nx, nxi, d)
        f[k] = data.f.reshape(nx, nxi)

    return AmplitudeTable(
        order=N, t_grid=t_grid, x_grid=x_grid, xi_grid=xi_grid,
        values=values, V=V, f=f, a_init=a_init, q0=q0, q1=q1, dt=phase.dt,
    )


def transport_residual(amp, j=0):
    """|da_j/dt - V . grad_x a_j - f a_j - source_j| on the grid (1-D only).

    Time and space derivatives use 4th-order central stencils on uniform
    grids, so the reported max reflects the construction.  The source is zero
    for j=0 and the closed-form flat term for j=1.  Returns the residual
    array (NaN at nodes without a full stencil) and the max over the rest.
    """
    if amp.dim != 1:
        raise ValueError("residual check is implemented for 1-D grids")
    if not 0 <= j < amp.order:
        raise ValueError(f"table holds orders 0..{amp.order - 1}, got j={j}")
    nt, nx, nxi = amp.values.shape[1:]
    if nt < 5 or nx < 5:
        raise ValueError("need at least 5 uniform nodes in t and x")
    tg, xg = amp.t_grid, amp.x_grid[:, 0]
    for g, name in ((tg, "t"), (xg, "x")):
        sp = np.diff(g)
        if not np.allclose(sp, sp[0], rtol=1e-12, atol=0.0):
            raise ValueError(f"{name} grid must be uniform for the stencil")
    dt, dx = tg[1] - tg[0], xg[1] - xg[0]
    a = amp.values[j]

    dadt = (-a[4:] + 8.0 * a[3:-1] - 8.0 * a[1:-3] + a[:-4]) / (12.0 * dt)
    dadx = (-a[:, 4:] + 8.0 * a[:, 3:-1] - 8.0 * a[:, 1:-3] + a[:, :-4]) / (12.0 * dx)

    rhs = amp.V[..., 0] * np.pad(dadx, ((0, 0), (2, 2), (0, 0)),
                                 constant_values=np.nan)
    rhs = rhs + amp.f * a
    if j == 1:
        xp, xip = tensor_pairs(amp.x_grid, amp.xi_grid)
        hq = amp.q0.hess_xixi(xp, xip).reshape(nx, nxi, 1, 1)[..., 0, 0]
        a0 = amp.values[0]
        d2a0 = (-a0[:, 4:] + 16.0 * a0[:, 3:-1] - 30.0 * a0[:, 2:-2]
                + 16.0 * a0[:, 1:-3] - a0[:, :-4]) / (12.0 * dx**2)
        g1 = -0.5j * hq[None, :, :] * np.pad(d2a0, ((0, 0), (2, 2), (0, 0)),
                                             constant_values=np.nan)
        rhs = rhs + g1
    elif j != 0:
        raise ValueError("residual sources are available for j in {0, 1}")

    res = np.full_like(a, np.nan, dtype=float)
    res[2:-2] = np.abs(dadt - rhs[2:-2])
    valid = res[2:-2, 2:-2]
    return res, float(np.nanmax(valid))
