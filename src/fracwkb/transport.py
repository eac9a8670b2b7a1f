"""Transport amplitudes for the WKB parametrix, read off the phase data.

The leading amplitude rides the Hamiltonian flow: a0(t, x, xi) is the initial
symbol evaluated at the backward base point Y(t, x, xi), times the
integrating factor exp int_0^t f, whose rate f combines the xi-Hessian of q0
with the phase's x-Hessian.  Both Y and that integral come with the phase
(`hamjac.phase_point_data`), so the transport itself is algebra on phase
data and integrates no characteristic, and its records are the phase pass's
records with the amplitudes added.  The first correction a1 is
constructed over the flat metric, where its source term, the second-order
composition of q0 with a0, is constant along the characteristic and a1 has
the closed form -(i t / 2) tr[hess_xixi q0 . hess_xx a_init] at (Y, xi);
higher orders and curved metrics are declined explicitly rather than
approximated.
"""

from dataclasses import dataclass, field, fields

import numpy as np

from .metric import as_pairs, tensor_pairs
from .hamflow import DT_DEFAULT
from .hamjac import PhasePointData, PhaseTable, _central, _uniform_step, phase_point_data

__all__ = [
    "AmplitudeTable",
    "AmplitudePointData",
    "solve_transport",
    "amplitude_point_data",
    "transport_residual",
]


@dataclass
class AmplitudePointData(PhasePointData):
    """The phase pass's record at a batch of (x, xi), with the amplitudes there.

    Oscillatory-quadrature callers need one pass per batch, not two; Y, S and
    the rate integral do not depend on h, so the FIO solves them on a coarse
    grid and interpolates them.
    """

    a: np.ndarray            # (order, n) complex


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
    return AmplitudePointData(**vars(data), a=a)


def _check_order(q0, order):
    """The amplitude order: `order`, or when None 2 over the flat metric and
    1 otherwise.  An order below 1, above 2, or of 2 off the flat metric
    raises ValueError."""
    flat = q0.metric is not None and q0.metric.is_flat
    if order is None:
        return 2 if flat else 1
    if order < 1:
        raise ValueError("amplitude order must be >= 1")
    if order > 2 or (order == 2 and not flat):
        raise ValueError(
            "amplitude orders beyond a_0 are only constructed over the flat "
            "metric, where the source symbol has a closed form; "
            f"got order={order}"
        )
    return order


@dataclass
class AmplitudeTable(PhaseTable):
    """Gridded WKB amplitudes a_j(t, x, xi): the phase table with its amplitudes.

    `values[j]` holds a_j on the phase table's (t, x, xi) grid, and every
    field of the phase table is the one the amplitudes were read off; its
    `rate` is the transport's zeroth-order coefficient f.  Off-grid values
    come from `evaluate`, which recomputes along fresh characteristics
    rather than interpolating.
    """

    values: np.ndarray = field(kw_only=True)     # (order, nt, nx, nxi) complex
    a_init: object = field(kw_only=True, repr=False)

    @property
    def order(self):
        return self.values.shape[0]

    def evaluate(self, t, x, xi):
        """Fresh amplitude computation at arbitrary points (no interpolation)."""
        return amplitude_point_data(self.a_init, self.q0, t, x, xi,
                                    order=self.order, dt=self.dt)


def solve_transport(a_init, phase, N=None):
    """Solve the transport hierarchy on the phase table's grid.

    The phase table carries the base points `phase.Y` and the integral of
    the transport rate at every node, so the amplitudes are read off it with
    no further characteristic.  The table returned shares every field of
    `phase` (no copy).  N defaults to 2 over the flat metric and 1
    otherwise (`_check_order`); initial data are a_0(0) = a_init and
    a_r(0) = 0.
    """
    N = _check_order(phase.q0, N)
    nt = len(phase.t_grid)
    # every (t, x, xi) node of the table as one batch, t slowest
    xip = np.tile(tensor_pairs(phase.x_grid, phase.xi_grid)[1], (nt, 1))
    t = np.repeat(phase.t_grid, xip.shape[0] // nt)
    values = _amplitudes(a_init, phase.q0, t, phase.Y.reshape(xip.shape), xip,
                         phase.rate_integral.ravel(), N).reshape((N,) + phase.S.shape)
    return AmplitudeTable(**{f.name: getattr(phase, f.name) for f in fields(PhaseTable)},
                          values=values, a_init=a_init)


def transport_residual(amp, j=0):
    """|da_j/dt - V . grad_x a_j - f a_j - source_j| on the grid (1-D only).

    V = grad_xi q0(x, grad_x S) is the transport field, f the table's `rate`,
    and every derivative `hj_residual`'s 4th-order central difference, on t
    and x grids uniform with >= 5 nodes and a nonzero step (else ValueError).
    The source is zero for j=0 and the closed-form flat term for j=1.  Returns
    the residual array (NaN at the two nodes at each end of t and of x) and
    the max over the rest.
    """
    if amp.dim != 1:
        raise ValueError("residual check is implemented for 1-D grids")
    if not 0 <= j < amp.order:
        raise ValueError(f"table holds orders 0..{amp.order - 1}, got j={j}")
    dt = _uniform_step(amp.t_grid, "t")
    dx = _uniform_step(amp.x_grid[:, 0], "x")
    nt, nx, nxi = amp.S.shape
    a = amp.values[j]
    xp, xip = tensor_pairs(amp.x_grid, amp.xi_grid)
    V = amp.q0.grad_xi(np.tile(xp, (nt, 1)), amp.grad_x.reshape(-1, 1)).reshape(nt, nx, nxi)
    rhs = V * _central(a, dx, 1) + amp.rate * a
    if j == 1:
        hq = amp.q0.hess_xixi(xp, xip).reshape(nx, nxi)
        rhs = rhs + -0.5j * hq * _central(amp.values[0], dx, 1, order=2)
    res = np.abs(_central(a, dt, 0) - rhs)
    return res, float(np.nanmax(res[2:-2, 2:-2]))
