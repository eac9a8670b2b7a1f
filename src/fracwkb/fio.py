"""Oscillatory-integral operators: application, kernels, decay measurements.

On the periodic box the y-integral of J_h(S, a) collapses onto the discrete
frequency lattice, so applying the operator to a band-limited state is a sum
over retained modes - no quadrature error at all.  Kernels K_h(t, x, y) are
genuine oscillatory xi-integrals and use plain trapezoid with an enforced
points-per-oscillation rule; sup norms, dispersive-decay fits and the
remainder sweep against the exact multiplier propagator sit on top.

Both evaluate A e^{iS/h} on (x, xi) pairs whose number grows like h^-2, but
only e^{iS/h} depends on h: the base points Y, S and the a_0 rate integral
are smooth in (x, xi) and independent of h.  So each call solves the
characteristics on a Chebyshev-Lobatto grid refined until its interpolant
passes a check (Candes, Demanet & Ying, SIAM J. Sci. Comput. 29, 2007, do
the same for the phase) and forms the amplitudes and e^{iS/h} from the
interpolated fields on every pair.
"""

from dataclasses import dataclass, field

import numpy as np

from .metric import as_points, audit_assumptions, check_h, loglog_fit
from .spectral import (flat_operator, localized_gaussian, make_grid, propagate,
                       state_from_values)
from .transport import MAX_POINT_BATCH, _amplitudes

__all__ = [
    "KernelGrid",
    "DispersiveFit",
    "RemainderFit",
    "ResolutionError",
    "InsufficientDataError",
    "apply_fio",
    "kernel",
    "kernel_sup",
    "dispersive_fit",
    "remainder_decay",
    "operator_norm_estimate",
    "stationary_phase_prediction",
]

POINTS_PER_OSC = 8
# floor on the xi nodes per interval: resolves the cutoff chi(xi^2) to about
# 1e-11 relative where the phase itself barely oscillates (small windows)
XI_POINTS_MIN = 257
XI_POINTS_CAP = 2_000_000
SUP_REFINE_TOL = 0.01
SUP_POINTS_START = 16          # points per span in kernel_sup's first round
DECAY_X_SPAN = (-0.5, 0.5)     # x-window of dispersive_fit's kernel sups
BAND_TOL = 1e-8                # relative L2 mass apply_fio may drop off the band
# the FIO's characteristic interpolant: its check tolerance on Y - x, S - x xi
# and int f, above the Newton noise of S (about 2e-11); its first level and
# its cap, in Chebyshev-Lobatto nodes per interval
INTERP_TOL = 1e-10
INTERP_NODES_START = 9
INTERP_NODES_CAP = 257


class ResolutionError(RuntimeError):
    """The grid cannot resolve the requested oscillation; names the need."""


class InsufficientDataError(RuntimeError):
    """Too few valid samples to fit a decay exponent."""


def _check_args(phase, amp, h):
    """Reject phase and amplitude tables of different symbols or of a symbol
    that is not 1-D, and an h that is not positive and finite; returns h."""
    if phase.q0 is not amp.q0:
        raise ValueError("phase and amplitude tables disagree on the symbol")
    if amp.q0.dim != 1:
        raise ValueError("oscillatory quadrature is implemented on 1-D grids")
    return check_h(h)


def _xi_hull(amp):
    """Conservative 1-D hull +-[lo, hi] of the amplitude's covector support:
    the one support rule of every FIO consumer.

    The amplitude's p-band (else q0's) and G's range (G_min, G_max) over the
    metric's box, from `audit_assumptions`, give lo = sqrt(band_lo / G_max)
    and hi = sqrt(band_hi / G_min), wherever the caller evaluates and wherever
    the backward base points Y land; the third value is the speed bound every
    oscillation and reach estimate uses, sup |grad_xi q0| = sigma
    G^{sigma/2} |xi|^{sigma-1} over the box and the hull.  The hull's pairs
    reach p in [band_lo G_min/G_max, band_hi G_max/G_min], and p is conserved
    along their characteristics: a guard band of q0 that does not hold that
    range raises ValueError naming both, before any characteristic is flowed."""
    xi_band = amp.a_init.xi_band or amp.q0.xi_band
    if xi_band is None:
        raise ValueError("amplitude carries no xi support information")
    report = audit_assumptions(amp.q0.metric)
    g_min, g_max = report.min_eigenvalue, report.max_eigenvalue
    guard = amp.q0.xi_band
    p_lo, p_hi = xi_band[0] * g_min / g_max, xi_band[1] * g_max / g_min
    if guard is not None and not guard[0] <= p_lo <= p_hi <= guard[1]:
        raise ValueError(f"q0's guard band [{guard[0]:g}, {guard[1]:g}] does not hold the p "
                         f"range [{p_lo:.6g}, {p_hi:.6g}] of the amplitude's xi hull")
    lo = float(np.sqrt(xi_band[0] / g_max))
    hi = float(np.sqrt(xi_band[1] / g_min))
    sigma = amp.q0.sigma
    return lo, hi, sigma * g_max ** (sigma / 2.0) * max(hi ** (sigma - 1.0), lo ** (sigma - 1.0))


def _mode_band(amp, h, grid):
    """The indices of the grid modes in the band and their FIO mode matrix.

    A mode is kept when h|omega| lies in the xi hull [lo, hi] (`_xi_hull`),
    which rejects a guard band of q0 that does not hold it before any flow.
    An empty band raises ValueError, a grid with fewer than
    POINTS_PER_OSC points per oscillation of the fastest kept mode raises
    :class:`ResolutionError` naming the need.  The second value builds the
    mode matrix at a time t when called, so a caller can reject its state
    before paying for it.  A grid that is not 1-D raises ValueError."""
    if grid.dim != 1:
        raise ValueError("oscillatory quadrature is implemented on 1-D grids")
    lo, hi, _ = _xi_hull(amp)
    omega = grid.omega_axis()
    h_omega = h * np.abs(omega)
    keep = np.flatnonzero((lo <= h_omega) & (h_omega <= hi))
    if keep.size == 0:
        raise ValueError("no grid mode meets the amplitude band at this h")
    kmax = float(np.max(np.abs(omega[keep])))
    need = int(np.ceil(POINTS_PER_OSC * kmax * grid.length / (2.0 * np.pi)))
    if grid.n < need:
        raise ResolutionError(
            f"x-grid has {grid.n} points but the retained band needs {need}"
        )
    return keep, lambda t: _fio_factors(amp, h, t, grid.axis()[:, None], h * omega[keep, None])


def _lobatto(segments, k):
    """k Chebyshev-Lobatto nodes from lo to hi on each (lo, hi) of `segments`,
    one node where lo == hi.  Level 2k - 1 holds level k's nodes bit for bit,
    at its even indices."""
    c = 0.5 * (1.0 - np.cos(np.pi * np.arange(k) / max(k - 1, 1)))
    return [np.array([lo]) if lo == hi else np.append(lo + (hi - lo) * c[:-1], hi)
            for lo, hi in segments]


def _barycentric(node_sets, points):
    """(len(points), total nodes) matrix taking values on the concatenated node
    sets to `points`: each point takes the polynomial through the first set
    whose [first, last] node holds it, in barycentric form with Chebyshev-
    Lobatto weights; a point on a node takes that node's value exactly."""
    blocks = []
    taken = np.zeros(points.size, dtype=bool)
    for z in node_sets:
        w = (-1.0) ** np.arange(z.size)
        w[[0, -1]] *= 0.5
        rows = np.flatnonzero((points >= z[0]) & (points <= z[-1]) & ~taken)
        taken[rows] = True
        diff = points[rows, None] - z
        with np.errstate(divide="ignore", invalid="ignore"):
            C = w / diff
        on_node = diff == 0.0
        hit = on_node.any(axis=1)
        C[hit] = on_node[hit]
        block = np.zeros((points.size, z.size))
        block[rows] = C / C.sum(axis=1, keepdims=True)
        blocks.append(block)
    return np.hstack(blocks)


def _characteristic_fields(amp, t, axes):
    """The h-free fields Y - x, S - x xi and int_0^t f on a tensor grid,
    (3, x nodes, xi nodes), with each axis's node sets.

    `axes` holds the (lo, hi) segments of x and of xi.  Each axis starts at
    INTERP_NODES_START Chebyshev-Lobatto nodes per segment (one where lo ==
    hi) and is refined on its own, k to 2k - 1 nodes, solving only the pairs
    that are new, until its level-k interpolant matches the new nodes to
    INTERP_TOL; the fields are returned on the finer level.  An axis that
    would need more than INTERP_NODES_CAP nodes raises ResolutionError naming
    it, its gap and the tolerance."""
    levels = [1 if all(lo == hi for lo, hi in segs) else INTERP_NODES_START for segs in axes]
    done = [k == 1 for k in levels]
    sets, F = None, None
    while True:
        new_sets = [_lobatto(segs, k) for segs, k in zip(axes, levels)]
        x, xi = (np.concatenate(z) for z in new_sets)
        G = np.empty((3, x.size, xi.size))
        new = np.ones(G.shape[1:], dtype=bool)
        if F is not None:
            old = [np.flatnonzero(np.isin(a, np.concatenate(z))) for a, z in zip((x, xi), sets)]
            G[:, old[0][:, None], old[1]] = F
            new[old[0][:, None], old[1]] = False
        X, XI = (g[new] for g in np.meshgrid(x, xi, indexing="ij"))
        data = amp.evaluate(t, X[:, None], XI[:, None])
        G[:, new] = data.Y[:, 0] - X, data.S - X * XI, data.rate_integral
        for axis, name in ((0, "x"), (1, "xi")):
            if done[axis] or F is None:
                continue
            B = _barycentric(sets[axis], (x, xi)[axis])
            coarse = np.take(G, old[axis], axis=axis + 1)
            guess = B @ coarse if axis == 0 else coarse @ B.T
            gap = float(np.max(np.abs(guess - G)))
            if gap <= INTERP_TOL:
                done[axis] = True
            elif 2 * levels[axis] - 1 > INTERP_NODES_CAP:
                raise ResolutionError(
                    f"the characteristics' interpolant in {name} on {(levels[axis] + 1) // 2} "
                    f"nodes misses its check by {gap:.3g} > INTERP_TOL = {INTERP_TOL:g}; "
                    f"its refinement needs more than {INTERP_NODES_CAP} nodes per interval")
        sets, F = new_sets, G
        if all(done):
            return sets, F
        levels = [k if ok else 2 * k - 1 for k, ok in zip(levels, done)]


def _fio_factors(amp, h, t, x_grid, xi_grid):
    """The FIO matrix A e^{iS/h}, A = sum_j h^j a_j(t), on all (x, xi) pairs, (nx, nxi).

    Y, S and the rate integral do not depend on h and are smooth in (x, xi),
    so the characteristics are solved only on a Chebyshev-Lobatto grid over
    [min x, max x] by each sign's [min xi, max xi] (`_characteristic_fields`),
    and Y - x, S - x xi and the rate integral are interpolated onto the
    pairs.  The amplitudes (`transport._amplitudes`) and E = e^{iS/h} are then
    formed on every pair, MAX_POINT_BATCH pairs at a time.  E is named:
    numpy evaluates `A * np.exp(...)` in place on a temporary of 256 KiB or
    more with the operands swapped, which rounds differently, so `A * E`
    keeps one rounding at every batch size.
    """
    x, xi = x_grid[:, 0], xi_grid[:, 0]
    axes = ([(x.min(), x.max())],
            [(v.min(), v.max()) for v in (xi[xi < 0.0], xi[xi >= 0.0]) if v.size])
    sets, coarse = _characteristic_fields(amp, t, axes)
    Bx = _barycentric(sets[0], x)
    on_xi = coarse @ _barycentric(sets[1], xi).T          # (3, x nodes, nxi)
    out = np.empty((x.size, xi.size), dtype=complex)
    rows = max(1, MAX_POINT_BATCH // xi.size)
    for r in range(0, x.size, rows):
        dY, dS, rate_integral = Bx[r:r + rows] @ on_xi
        Y = x[r:r + rows, None] + dY
        a = _amplitudes(amp.a_init, amp.q0, t, Y.reshape(-1, 1),
                        np.broadcast_to(xi, Y.shape).reshape(-1, 1), rate_integral.ravel(),
                        amp.order)
        A = a[0].reshape(Y.shape)
        for j in range(1, amp.order):
            A += h**j * a[j].reshape(Y.shape)
        E = np.exp(1j * (np.outer(x[r:r + rows], xi) + dS) / h)
        out[r:r + rows] = A * E
    return out


def apply_fio(phase, amp, u0, h, t):
    """Apply J_h(S(t), sum_j h^j a_j(t)) to a band-limited state.

    The y-integral is exact through the discrete Fourier coefficients of u0;
    each retained mode k contributes c_k a(t, x, h omega_k) e^{i S / h}.  The
    x-grid must carry >= POINTS_PER_OSC points per oscillation of the fastest
    retained mode, and coefficient mass outside the amplitude band beyond
    BAND_TOL (relative L2) is rejected rather than silently dropped.
    """
    _check_args(phase, amp, h)
    grid = u0.grid
    keep, mode_matrix = _mode_band(amp, h, grid)

    c = u0.fourier
    total = float(np.sum(np.abs(c) ** 2))
    dropped = total - float(np.sum(np.abs(c[keep]) ** 2))
    if total > 0.0 and dropped > BAND_TOL * total:
        raise ValueError(
            f"state carries {dropped / total:.3e} of its energy outside the "
            "amplitude band; localize it first"
        )

    return state_from_values(grid, mode_matrix(t) @ c[keep])


@dataclass
class KernelGrid:
    """Oscillatory kernel values K_h(t, x, y) on a rectangular (x, y) grid."""

    h: float
    t: float
    x_grid: np.ndarray
    y_grid: np.ndarray
    values: np.ndarray = field(repr=False)
    n_xi: int = 0

    def sup(self):
        return float(np.max(np.abs(self.values)))


def kernel(phase, amp, h, t, x_grid, y_grid):
    """Evaluate K_h(t, x, y) = (2 pi h)^{-d} int e^{i(S - y xi)/h} a dxi.

    The xi-support is the pair of intervals +-[lo, hi] (`_xi_hull`); each gets
    one trapezoid rule with POINTS_PER_OSC points per oscillation of the scale
    |grad_xi (S - y xi)| <= max|x| + |t| sup|grad q0| + max|y| and at least
    XI_POINTS_MIN; `KernelGrid.n_xi` reports the count.  An unaffordable
    count raises :class:`ResolutionError` naming the need.

    y enters only through e^{-i xi y/h}; the rest, A e^{iS/h} on the (x node,
    xi node) pairs, comes from `_fio_factors`, whose characteristics are
    solved on a coarse grid over the x span and the hull that does not
    depend on h.
    """
    _check_args(phase, amp, h)
    x_grid = as_points(x_grid, 1)
    y_grid = as_points(y_grid, 1)
    if not (x_grid.size and y_grid.size):
        raise ValueError(f"{'y_grid' if x_grid.size else 'x_grid'} is empty")
    lo, hi, grad_max = _xi_hull(amp)
    M = float(np.max(np.abs(x_grid))) + abs(t) * grad_max + float(np.max(np.abs(y_grid)))

    width = hi - lo
    count = max(int(np.ceil(POINTS_PER_OSC * width * M / (2.0 * np.pi * h))) + 1,
                XI_POINTS_MIN)
    if count > XI_POINTS_CAP:
        raise ResolutionError(f"oscillation rule asks for {count} xi points on +-[{lo}, {hi}]; "
                              f"cap is {XI_POINTS_CAP}")
    w = np.full(count, width / (count - 1))
    w[0] *= 0.5
    w[-1] *= 0.5
    # both intervals' nodes in one list: one interpolant, one product
    xis = np.concatenate([np.linspace(-hi, -lo, count), np.linspace(lo, hi, count)])[:, None]
    w = np.concatenate([w, w])
    values = ((_fio_factors(amp, h, t, x_grid, xis) * w)
              @ np.exp(-1j * np.outer(xis[:, 0], y_grid[:, 0]) / h))
    values /= 2.0 * np.pi * h
    if not np.all(np.isfinite(values)):
        raise ValueError("kernel produced non-finite entries")
    return KernelGrid(h=h, t=t, x_grid=x_grid, y_grid=y_grid, values=values,
                      n_xi=count)


def kernel_sup(phase, amp, h, t, x_span, y_span, max_rounds=6):
    """Grid max of |K_h(t)| over the spans, refined until it moves < SUP_REFINE_TOL.

    The first round takes SUP_POINTS_START points per span; each round refines
    n points to 2n - 1.  Each estimate is `kernel(...).sup()` on its grid,
    and each round's `kernel` call solves the characteristics on its own
    coarse grid: the nodes are the same in every round (the spans and the
    hull are fixed), but no round reuses another's solves.  When
    `max_rounds` rounds pass without two successive estimates agreeing to
    SUP_REFINE_TOL, raises :class:`ResolutionError` naming the last two
    estimates.  A `max_rounds` below 2, which can never compare two
    estimates, raises ValueError before any kernel is computed.
    """
    _check_args(phase, amp, h)
    if max_rounds < 2:
        raise ValueError(f"kernel_sup compares two rounds, so max_rounds must be >= 2, "
                         f"got {max_rounds}")
    prev = cur = None
    n = SUP_POINTS_START
    for _ in range(max_rounds):
        xg = np.linspace(x_span[0], x_span[1], n)
        yg = np.linspace(y_span[0], y_span[1], n)
        prev, cur = cur, kernel(phase, amp, h, t, xg, yg).sup()
        if prev is not None and abs(cur - prev) <= SUP_REFINE_TOL * max(prev, 1e-300):
            return cur
        n = 2 * n - 1
    raise ResolutionError(
        f"kernel sup at t={t} did not settle to tol={SUP_REFINE_TOL} in {max_rounds} "
        f"rounds (final grid {(n + 1) // 2} points per span); the last two rounds gave "
        f"{prev:.6g} and {cur:.6g} (relative change {abs(cur - prev) / max(prev, 1e-300):.3g})"
    )


@dataclass
class DispersiveFit:
    """Log-log fit of sup |K_h(t)| against t/h."""

    slope: float
    intercept: float
    r2: float
    h: float
    t_samples: np.ndarray
    sups: np.ndarray


def dispersive_fit(phase, amp, h, t_samples):
    """Fit log sup_{x,y} |K_h(t)| vs log(t/h) over the time samples.

    The sups are taken over x in DECAY_X_SPAN and a y-window wide enough to
    contain the stationary set x - y ~ t grad q0(xi) over all samples.  Fewer
    than 6 requested or 4 finite samples raise :class:`InsufficientDataError`,
    and a sample that is 0 or not finite, where log(|t|/h) is undefined,
    raises ValueError naming it before any kernel is computed.
    """
    _check_args(phase, amp, h)
    t_samples = np.atleast_1d(np.asarray(t_samples, dtype=float))
    if t_samples.size < 6:
        raise InsufficientDataError(
            f"need at least 6 time samples for the decay fit, got {t_samples.size}"
        )
    bad = ~np.isfinite(t_samples) | (t_samples == 0.0)
    if np.any(bad):
        raise ValueError(f"decay-fit time samples must be nonzero and finite, "
                         f"got t={t_samples[np.argmax(bad)]}")
    _, _, grad_max = _xi_hull(amp)
    t_max = float(np.max(np.abs(t_samples)))
    x_span = DECAY_X_SPAN
    reach = max(abs(x_span[0]), abs(x_span[1])) + t_max * grad_max + 0.5
    y_span = (-reach, reach)

    sups = np.empty_like(t_samples)
    for i, t in enumerate(t_samples):
        sups[i] = kernel_sup(phase, amp, h, t, x_span, y_span)
    good = np.isfinite(sups) & (sups > 0.0)
    if int(good.sum()) < 4:
        raise InsufficientDataError(
            f"only {int(good.sum())} finite kernel sups out of {t_samples.size}"
        )
    lam = np.abs(t_samples[good]) / h
    return DispersiveFit(*loglog_fit(lam, sups[good]), h=h, t_samples=t_samples,
                         sups=sups)


@dataclass
class RemainderFit:
    """Log-log fit of the parametrix remainder against h."""

    slope: float
    intercept: float
    r2: float
    t: float
    order: int
    h: np.ndarray
    remainders: np.ndarray


def remainder_decay(phase, amp, h_sweep, t=0.15, reference_propagator=None):
    """Remainder ||U_h(t) Op_h(a) u - J_N(t) u||_2 / ||u||_2 across h.

    Flat metric only: the reference U_h is the exact Fourier multiplier (by
    default), applied to the same localized Gaussian state that feeds the
    parametrix.  The expected slope is the amplitude order N for fixed t.
    The whole sweep is checked before any FIO is applied: each h as in
    `_check_args`, and at least two distinct h to fit.
    """
    metric = amp.q0.metric
    if not metric.is_flat:
        raise ValueError("the exact reference propagator needs the flat metric")
    sigma = amp.q0.sigma
    cut = getattr(amp.a_init, "cut", None)
    if cut is None:
        raise ValueError("amplitude must carry its frequency cutoff")

    h_sweep = np.asarray(sorted((_check_args(phase, amp, h) for h in h_sweep), reverse=True))
    if np.unique(h_sweep).size < 2:
        raise ValueError(f"the remainder fit needs at least two distinct h, got {h_sweep.tolist()}")
    _, xi_hi, _ = _xi_hull(amp)
    L = metric.box_length
    rems = np.empty_like(h_sweep)
    for i, h in enumerate(h_sweep):
        n = 1
        need = POINTS_PER_OSC * xi_hi * L / (2.0 * np.pi * h)
        while n < 2.0 * need:
            n *= 2
        grid = make_grid(1, n, L)
        op = flat_operator(grid)
        u = localized_gaussian(grid, cut, h)
        norm = u.l2_norm()

        filtered = apply_fio(phase, amp, u, h, 0.0)
        if reference_propagator is None:
            ref = propagate(filtered, op, sigma, t, h=h)
        else:
            ref = reference_propagator(filtered, sigma, t, h)
        approx = apply_fio(phase, amp, u, h, t)
        rems[i] = float(np.sqrt(grid.cell_volume)
                        * np.linalg.norm(ref.values - approx.values)) / norm
    return RemainderFit(*loglog_fit(h_sweep, rems), t=t, order=amp.order,
                        h=h_sweep, remainders=rems)


def operator_norm_estimate(phase, amp, h, t, grid):
    """L2 operator norm of J_h(S, a) on the grid's band-limited states, exactly.

    A state with kept coefficients c has ||u||^2 = L sum |c_k|^2, and its image
    M c on the grid carries the cell volume L/n, so the norm is the largest
    singular value of the mode matrix M over sqrt(n).  The grid must resolve
    the band as in `apply_fio` (:class:`ResolutionError`).
    """
    _check_args(phase, amp, h)
    _, mode_matrix = _mode_band(amp, h, grid)
    return float(np.linalg.svd(mode_matrix(t), compute_uv=False)[0] / np.sqrt(grid.n))


def stationary_phase_prediction(amp, h, t, x, xi):
    """Leading stationary-phase value of |K_h(t, x, y)| where each covector xi
    is stationary, on any metric.

    With S(0) = x xi, the kernel phase S - y xi is stationary in xi at
    y = d_xi S = Y(t, x, xi), where its xi-Hessian is d_xi^2 S = dY_dxi; one
    `amp.evaluate` pass gives both.  Returns (y, value), one entry per
    covector, with value = (2 pi h)^{-1} sqrt(2 pi h / |dY_dxi|) |a_0|.
    t = 0, where dY_dxi = 0 and the formula is singular, and an h that is
    not positive and finite raise ValueError.
    """
    check_h(h)
    if t == 0.0:
        raise ValueError("prediction needs t != 0")
    xi = np.atleast_1d(np.asarray(xi, dtype=float))[:, None]
    data = amp.evaluate(t, np.full_like(xi, x), xi)
    value = (2.0 * np.pi * h) ** (-1.0) * np.sqrt(2.0 * np.pi * h / np.abs(data.dY_dxi[:, 0, 0]))
    return data.Y[:, 0], value * np.abs(data.a[0])
