"""Hamilton-Jacobi phases built along Hamiltonian characteristics.

The generating phase of the evolution equation dS/dt - q0(x, grad_x S) = 0,
S(0) = x.xi, is assembled from the characteristics of q0 through the inverse
map Y and the action integral

    S(t, x, xi) = Y(t, x, xi) . xi + int_0^{-t} (Xi . grad_xi q0 - q0) dtau
    along the flow of q0 from (Y, xi),

with every derivative table (grad_x S = Xi(t, Y, xi), the mixed and pure
Hessians) read off the variational Jacobian rather than by differencing S.
The same pass carries the integral along each characteristic of the rate
of the leading transport amplitude,

    f = (1/2) tr[hess_xixi q0 . hess_xx S]:

the a_0 integrating factor depends on q0 and S alone, so the transport
needs no flow of its own.
The sign convention is fixed here once: the characteristics are q0's flow
run backward, from 0 to -t.
"""

from dataclasses import dataclass, field, fields

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
]

HORIZON_THRESHOLD = 0.5
# a time enters the phase constants' fit when its O(t) increment |t| sup q0
# spans this many ulps of max |x.xi|.  On the phase suite's default bump table
# the t^2 term that C2 reads then spans at least 2^16 ulps, against the about
# 2^11 ulps of error that S carries there at small t
RESOLVED_ULPS = 2.0**36
# most RK4 steps a phase pass takes; tier-1's finest pass takes 400
MAX_STEPS = 10**6


class HorizonError(RuntimeError):
    """The near-identity Hessian condition failed at the first resolved time."""


@dataclass
class PhasePointData:
    """Phase and derivative data at a batch of (x, xi) points, one time per point."""

    S: np.ndarray            # (n,)
    Y: np.ndarray            # (n, d)
    grad_x: np.ndarray       # (n, d)   = Xi(t, Y, xi)
    hess_xx: np.ndarray      # (n, d, d)
    hess_xxi: np.ndarray     # (n, d, d), [i, j] = d2 S / dx_i dxi_j
    dY_dxi: np.ndarray       # (n, d, d), [i, j] = dY_i / dxi_j = d2 S / dxi_i dxi_j
    rate_integral: np.ndarray  # (n,) int_0^t f along the characteristic
    hess_asymmetry: float    # max |B - B^T| of hess_xx S before symmetrizing


def _even_steps(t, dt):
    n = max(2, int(np.ceil(abs(t) / dt - 1e-12)))
    return n + (n % 2)


def _step_count(q0, t, dt):
    """RK4 steps of the phase pass to the time(s) t, after rejecting a dt
    that is not positive and finite, a t that is not finite, or a count
    above MAX_STEPS, with ValueError.

    On a flat metric the covector is conserved and the flow field is constant
    along each trajectory, so one RK4 step is already exact and the action
    integrand is constant; two Simpson intervals close the quadrature.
    Otherwise the count is even, with steps of at most dt toward the
    largest |t|.
    """
    if not (np.isfinite(dt) and dt > 0.0):
        raise ValueError(f"phase step dt must be positive and finite, got {dt}")
    if not np.all(np.isfinite(t)):
        raise ValueError(f"phase time t must be finite, got {t}")
    if q0.metric is not None and q0.metric.is_flat:
        return 2
    t_max = float(np.max(np.abs(t), initial=0.0))
    if t_max / MAX_STEPS > dt:
        raise ValueError(f"phase pass to t = {t_max} at dt = {dt} needs {t_max / float(dt):.3g} "
                         f"steps, above MAX_STEPS = {MAX_STEPS}")
    return _even_steps(t_max, dt)


def phase_point_data(q0, t, x, xi, dt=DT_DEFAULT):
    """Compute S and its derivative blocks at arbitrary (x, xi) batches.

    This is the single characteristic pass used for gridded tables, for
    off-grid evaluation (oscillatory quadrature) and for the transport
    amplitudes: the inverse map's Newton iteration returns the end of the
    variational flow from (Y, xi) it accepted, with the action and the
    integral of the transport rate f = (1/2) tr[hess_xixi q0 . hess_xx S]
    that the flow summed by composite Simpson over its RK4 nodes;
    hess_xx S = sym(JXi JX^{-1}) at the end.  The flow stores no node, so the
    pass's memory does not grow with the step count.  Every start is checked
    against q0's guard band, at t = 0 too.  A `dt` that is not positive and
    finite, or a `t` that is not finite, raises ValueError.

    `t` is a scalar or one time per point.  Per point, every point takes the
    step count of the largest |t| (see `_step_count`) and its own step; a
    point whose own |t| has that step count gets what a scalar t gives it,
    bit for bit.
    """
    n_steps = _step_count(q0, t, dt)
    d = q0.dim
    x, xi = as_pairs(x, xi, d)
    n = x.shape[0]

    # the characteristics run from 0 to -t, so the rate's integral to t is
    # minus the flow's
    Y, flow = inverse_map(q0, -t, x, xi, n_steps)
    Z = flow.Z
    JX_inv = solve_blocks(Z[:, :d, :d], np.eye(d))
    B = Z[:, d:, :d] @ JX_inv
    asym = float(np.max(np.abs(B - np.swapaxes(B, 1, 2)))) if n else 0.0

    return PhasePointData(
        S=np.sum(Y * xi, axis=1) + flow.action,
        Y=Y,
        grad_x=flow.Xi,
        hess_xx=0.5 * (B + np.swapaxes(B, 1, 2)),
        hess_xxi=np.swapaxes(JX_inv, 1, 2),
        dY_dxi=-(JX_inv @ Z[:, :d, d:]),
        rate_integral=-flow.rate_integral,
        hess_asymmetry=asym,
    )


@dataclass
class PhaseTable(PhasePointData):
    """Gridded phase S(t, x, xi): the pass's record on a grid.

    Every array field of `PhasePointData` is indexed [t, x, xi] with trailing
    component axes, and `hess_asymmetry` is the worst value over the table.
    The xi grid is a list of covector points, not a tensor product, so
    anisotropic bands are possible.
    """

    t_grid: np.ndarray
    x_grid: np.ndarray       # (nx, d)
    xi_grid: np.ndarray      # (nxi, d)
    q0: object = field(repr=False)
    dt: float = DT_DEFAULT

    @property
    def dim(self):
        return self.x_grid.shape[1]


def build_phase(q0, t_grid, x_grid, xi_grid, dt=DT_DEFAULT):
    """Build a PhaseTable over the tensor grid t_grid x x_grid x xi_grid.

    The grid times that share an RK4 step count, t = 0 among them, are one
    `phase_point_data` pass on their tensor batches with one time per point,
    so every entry is what `phase_point_data` gives on the tensor batch,
    bit for bit.  Each array field of the pass fills its table, allocated at
    the first pass; each scalar field, a bound over the batch, keeps its
    worst value.  An empty `t_grid`, `x_grid` or `xi_grid`,
    a `dt` that is not positive and finite, or a time that is not finite,
    raises ValueError.
    """
    d = q0.dim
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))
    x_grid = as_points(x_grid, d)
    xi_grid = as_points(xi_grid, d)
    for name, g in (("t_grid", t_grid), ("x_grid", x_grid), ("xi_grid", xi_grid)):
        if not len(g):
            raise ValueError(f"{name} is empty")
    grid = (len(t_grid), x_grid.shape[0], xi_grid.shape[0])
    xp, xip = tensor_pairs(x_grid, xi_grid)

    tables, worst = {}, {}
    layouts = np.array([_step_count(q0, t, dt) for t in t_grid])
    for steps in np.unique(layouts):
        ks = np.flatnonzero(layouts == steps)
        m = len(ks)
        data = phase_point_data(q0, np.repeat(t_grid[ks], grid[1] * grid[2]),
                                np.tile(xp, (m, 1)), np.tile(xip, (m, 1)), dt=dt)
        for f in fields(PhasePointData):
            value = getattr(data, f.name)
            if np.ndim(value) == 0:
                worst[f.name] = max(worst.get(f.name, 0.0), value)
                continue
            if f.name not in tables:
                tables[f.name] = np.empty(grid + value.shape[1:], dtype=value.dtype)
            tables[f.name][ks] = value.reshape((m,) + grid[1:] + value.shape[1:])
        del data, value         # before the next group's pass is built

    return PhaseTable(**tables, **worst, t_grid=t_grid, x_grid=x_grid, xi_grid=xi_grid,
                      q0=q0, dt=dt)


def caustic_horizon(pt):
    """Largest grid time with ||grad_x grad_xi S - Id|| <= HORIZON_THRESHOLD everywhere.

    Grid times are scanned in increasing |t|; the horizon is the largest
    magnitude at which every grid time of that or smaller magnitude passes.
    Failure already at the smallest nonzero grid time raises
    :class:`HorizonError` (the grid cannot resolve any caustic-free window).
    A time grid containing only t=0 returns 0.
    """
    dev = np.linalg.norm(pt.hess_xxi - np.eye(pt.dim), ord=2, axis=(3, 4))
    mags = np.abs(pt.t_grid)
    t0 = 0.0
    for m in np.unique(mags[mags > 0.0]):
        if np.any(dev[mags == m] > HORIZON_THRESHOLD):
            break
        t0 = float(m)
    if t0 == 0.0 and np.any(pt.t_grid != 0.0):
        raise HorizonError(
            "mixed-Hessian condition fails at the first nonzero grid time; "
            "refine the time grid or shrink the window"
        )
    return t0


@dataclass
class PhaseEstimateReport:
    """Fitted constants for the linear-in-t and quadratic-in-t phase bounds,
    and the nonzero grid times the fit left out."""

    C1: float
    C2: float
    by_order: dict
    skipped_times: tuple = ()


def _resolved(pt, spans):
    """Whether rounding resolves each time span s: |s| sup q0 >= RESOLVED_ULPS
    ulp(max |x.xi|) over the table's grid at t = 0.  Below that, S - x.xi
    loses its O(s) increment to the ulp of x.xi."""
    xp, xip = tensor_pairs(pt.x_grid, pt.xi_grid)
    floor = RESOLVED_ULPS * np.spacing(float(np.max(np.abs(np.sum(xp * xip, axis=1)))))
    return np.abs(spans) * float(np.max(np.abs(pt.q0(xp, xip)))) >= floor


def certify_phase_estimates(pt):
    """Fit C1 = sup |d(S - x.xi)| / |t| and C2 = sup |S - x.xi - t q0| / t^2.

    First-order derivatives of S - x.xi come from the stored tables
    (grad_x S - xi and Y - x), not from differencing S.  At small |t|,
    S - x.xi loses its O(t) increment to the ulp of x.xi, so a nonzero time
    is fitted only when rounding resolves it (`_resolved`); the others are
    named in `skipped_times`, and with no time fitted the constants are NaN.
    """
    nx, nxi = pt.x_grid.shape[0], pt.xi_grid.shape[0]
    xp, xip = tensor_pairs(pt.x_grid, pt.xi_grid)
    xxi = np.sum(xp * xip, axis=1).reshape(nx, nxi)
    q0_init = pt.q0(xp, xip).reshape(nx, nxi)
    resolved = _resolved(pt, pt.t_grid)

    fits, skipped = [], []
    for k, t in enumerate(pt.t_grid):
        if t == 0.0:
            continue
        at = abs(t)
        if not resolved[k]:
            skipped.append(float(t))
            continue
        dgx = pt.grad_x[k] - xip.reshape(nx, nxi, -1)
        dy = pt.Y[k] - xp.reshape(nx, nxi, -1)
        fits.append([float(np.max(np.abs(pt.S[k] - xxi))) / at,
                     float(np.max(np.abs(dgx))) / at,
                     float(np.max(np.abs(dy))) / at,
                     float(np.max(np.abs(pt.S[k] - xxi - t * q0_init))) / at**2])
    c0, c1x, c1xi, c2 = np.max(fits, axis=0) if fits else [np.nan] * 4

    by_order = {"value/|t|": float(c0), "grad_x/|t|": float(c1x), "grad_xi/|t|": float(c1xi)}
    return PhaseEstimateReport(C1=float(np.max([c0, c1x, c1xi])), C2=float(c2),
                               by_order=by_order, skipped_times=tuple(skipped))


def _uniform_step(t_grid):
    """The spacing of a uniform time grid of at least 5 nodes with a nonzero
    step; any other grid raises ValueError."""
    if len(t_grid) < 5:
        raise ValueError(f"need at least 5 uniform nodes in t, got {len(t_grid)}")
    spacings = np.diff(t_grid)
    if spacings[0] == 0.0 or not np.allclose(spacings, spacings[0], rtol=1e-12, atol=0.0):
        raise ValueError("t grid must be uniform with a nonzero step")
    return spacings[0]


def _central(a, step):
    """4th-order central difference of `a` along its first axis, NaN on the
    two nodes at each end."""
    out = np.full(a.shape, np.nan, dtype=a.dtype)
    out[2:-2] = (-a[4:] + 8.0 * a[3:-1] - 8.0 * a[1:-3] + a[:-4]) / (12.0 * step)
    return out


def hj_residual(pt):
    """|dS/dt - q0(x, grad_x S)| on the grid, with dS/dt by time differencing.

    dS/dt is the 4th-order central difference on a time grid that is uniform
    with at least 5 nodes and a nonzero step (else ValueError), so the residual
    reflects the construction rather than the differencing.  Returns the
    residual array (nt, nx, nxi), NaN at the two times at each end, and its max.
    A step that rounding does not resolve (`_resolved`) would difference
    rounding, so there the residual is NaN everywhere.
    """
    dt = _uniform_step(pt.t_grid)
    if not _resolved(pt, dt):
        return np.full(pt.S.shape, np.nan), np.nan
    xp, _ = tensor_pairs(pt.x_grid, pt.xi_grid)
    qvals = pt.q0(np.tile(xp, (len(pt.t_grid), 1)), pt.grad_x.reshape(pt.S.size, -1))
    res = np.abs(_central(pt.S, dt) - qvals.reshape(pt.S.shape))
    return res, float(np.max(res[2:-2]))
