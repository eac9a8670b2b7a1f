"""Transport amplitudes for the WKB parametrix, read off the phase data.

The leading amplitude rides the Hamiltonian flow: a0(t, x, xi) is the initial
symbol evaluated at the backward base point Y(t, x, xi), times the
integrating factor exp int_0^t f, whose rate f combines the xi-Hessian of q0
with the phase's x-Hessian.  Both Y and that integral come with the phase
(`hamjac.phase_point_data`), so the transport itself is algebra on phase
data and integrates no characteristic.  The first correction a1 is
constructed over the flat metric, where its source term, the second-order
composition of q0 with a0, is constant along the characteristic and a1 has
the closed form -(i t / 2) tr[hess_xixi q0 . hess_xx a_init] at (Y, xi);
higher orders and curved metrics are declined explicitly rather than
approximated.
"""

from dataclasses import dataclass, field

import numpy as np

from .metric import as_pairs, tensor_pairs
from .hamflow import DT_DEFAULT
from .hamjac import phase_point_data

__all__ = [
    "AmplitudeTable",
    "AmplitudePointData",
    "solve_transport",
    "amplitude_point_data",
    "transport_residual",
]


@dataclass
class AmplitudePointData:
    """Amplitudes at a batch of (x, xi), one time.

    The phase S rides along because the characteristics already carry all of
    its ingredients; oscillatory-quadrature callers then need one flow per
    batch instead of two.  Y, S and the rate integral do not depend on h,
    so the FIO solves them on a coarse grid and interpolates them.
    """

    a: np.ndarray            # (order, n) complex
    Y: np.ndarray            # (n, d) backward base points
    S: np.ndarray            # (n,) phase values at the same points
    rate_integral: np.ndarray  # (n,) int_0^t f, the a_0 integrating factor's log


MAX_POINT_BATCH = 65536     # fine (x, xi) pairs per batch of the FIO's factors


def _amplitudes(a_init, q0, t, Y, xi, rate_integral, order):
    """(order, n) amplitudes from the base points Y and the integral of f.

    a_0 = a_init(Y, xi) exp(int_0^t f).  Over the flat metric the a_1 source
    -(i/2) tr[hess_xixi q0 . hess_xx a_init] is taken at X(s) + s V = Y at
    every s, so a_1 = t times its value at (Y, xi); at t = 0 it is zero and
    not evaluated.  `t` is a scalar or one time per point.
    """
    a = np.zeros((order, Y.shape[0]), dtype=complex)
    a[0] = a_init(Y, xi) * np.exp(rate_integral)
    if order >= 2 and np.any(t != 0.0):
        hq = q0.hess_xixi(Y, xi)
        ha = a_init.hess_xx(Y, xi)
        a[1] = -0.5j * t * np.einsum("nij,nji->n", hq, ha)
    return a


def amplitude_point_data(a_init, q0, t, x, xi, order=1, dt=DT_DEFAULT):
    """Evaluate a_0 (and a_1 when order=2) at arbitrary (x, xi) batches.

    One `phase_point_data` pass gives the base points Y and the integral of
    the transport rate f = (1/2) tr[hess_xixi q0 . hess_xx S] along the
    characteristic through (t, x, xi); the amplitudes follow from those.
    The pass stores no path, so a batch of any size is one pass.  A
    characteristic leaving the guard band of q0 raises
    `hamflow.GuardBandError`.
    """
    x, xi = as_pairs(x, xi, q0.dim)
    _check_order(q0, order)
    data = phase_point_data(q0, t, x, xi, dt=dt)
    a = _amplitudes(a_init, q0, t, data.Y, xi, data.rate_integral, order)
    return AmplitudePointData(a=a, Y=data.Y, S=data.S, rate_integral=data.rate_integral)


def _check_order(q0, order):
    if order < 1:
        raise ValueError("amplitude order must be >= 1")
    if order == 1:
        return
    metric = getattr(q0, "metric", None)
    flat = metric is not None and metric.is_flat
    if order > 2 or not flat:
        raise ValueError(
            "amplitude orders beyond a_0 are only constructed over the flat "
            "metric, where the source symbol has a closed form; "
            f"got order={order}"
        )


@dataclass
class AmplitudeTable:
    """Gridded WKB amplitudes a_j(t, x, xi) with their transport coefficients.

    `values[j]` holds a_j on the (t, x, xi) grid; `V` and `f` are the
    transport field and zeroth-order coefficient at the same nodes, which
    `transport_residual` reads.  Off-grid values come from `evaluate`, which
    recomputes along fresh characteristics rather than interpolating.
    """

    t_grid: np.ndarray
    x_grid: np.ndarray       # (nx, d)
    xi_grid: np.ndarray      # (nxi, d)
    values: np.ndarray       # (order, nt, nx, nxi) complex
    V: np.ndarray            # (nt, nx, nxi, d)
    f: np.ndarray            # (nt, nx, nxi)
    a_init: object = field(repr=False)
    q0: object = field(repr=False)
    dt: float = DT_DEFAULT

    @property
    def dim(self):
        return self.x_grid.shape[1]

    @property
    def order(self):
        return self.values.shape[0]

    def evaluate(self, t, x, xi):
        """Fresh amplitude computation at arbitrary points (no interpolation)."""
        return amplitude_point_data(self.a_init, self.q0, t, x, xi,
                                    order=self.order, dt=self.dt)


def solve_transport(a_init, phase, N=None):
    """Solve the transport hierarchy on the phase table's grid.

    The phase table carries the base points `phase.Y` and the integral of the
    transport rate at every node, so the amplitudes are read off it with no
    further characteristic; the transport field V = grad_eta q0(x, grad_x S)
    and the rate f come with them.  N defaults to 2 over the flat metric and
    1 otherwise; initial data are a_0(0) = a_init and a_r(0) = 0.
    """
    q0 = phase.q0
    metric = getattr(q0, "metric", None)
    flat = metric is not None and metric.is_flat
    if N is None:
        N = 2 if flat else 1
    _check_order(q0, N)

    d = q0.dim
    t_grid = phase.t_grid
    x_grid, xi_grid = phase.x_grid, phase.xi_grid
    shape = phase.S.shape
    # every (t, x, xi) node of the table as one batch, t slowest
    xp, xip = (np.tile(p, (len(t_grid), 1)) for p in tensor_pairs(x_grid, xi_grid))
    t = np.repeat(t_grid, xp.shape[0] // len(t_grid))

    values = _amplitudes(a_init, q0, t, phase.Y.reshape(-1, d), xip,
                         phase.rate_integral.ravel(), N).reshape((N,) + shape)
    V = q0.grad_xi(xp, phase.grad_x.reshape(-1, d)).reshape(shape + (d,))

    return AmplitudeTable(t_grid=t_grid, x_grid=x_grid, xi_grid=xi_grid, values=values, V=V,
                          f=phase.rate, a_init=a_init, q0=q0, dt=phase.dt)


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
