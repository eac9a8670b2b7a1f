"""Oscillatory-integral operators: application, kernels, decay measurements.

On the periodic box the y-integral of J_h(S, a) collapses onto the discrete
frequency lattice, so applying the operator to a band-limited state is a sum
over retained modes with freshly evaluated phase and amplitudes - no
quadrature error at all.  Kernels K_h(t, x, y) are genuine oscillatory
xi-integrals and use plain trapezoid with an enforced points-per-oscillation
rule; sup norms, dispersive-decay fits and the remainder sweep against the
exact multiplier propagator sit on top.
"""

from dataclasses import dataclass, field

import numpy as np

from .metric import as_points, loglog_fit, tensor_pairs
from .spectral import (flat_operator, localized_gaussian, make_grid, propagate,
                       state_from_values)

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
    "stationary_hessian_check",
    "stationary_phase_prediction",
    "c_large",
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
NORM_ITERATIONS = 15           # power iterations of operator_norm_estimate
HESSIAN_STEP = 1e-4            # difference step of stationary_hessian_check


class ResolutionError(RuntimeError):
    """The grid cannot resolve the requested oscillation; names the need."""


class InsufficientDataError(RuntimeError):
    """Too few valid samples to fit a decay exponent."""


def _check_1d(obj):
    if obj.dim != 1:
        raise ValueError("oscillatory quadrature is implemented on 1-D grids")


def _mode_band(amp, h, grid):
    """The grid's frequency axis and the indices of the modes in the band.

    A mode is kept when its covector p(x, h omega) enters the initial
    symbol's support for at least one grid point and stays inside the flow
    guard band for all of them; outside the guard band the amplitude
    vanishes identically, so the mode contributes nothing.  An empty band
    raises ValueError.
    """
    xi_band = amp.a_init.xi_band or amp.q0.xi_band
    guard = amp.q0.xi_band or xi_band
    if xi_band is None:
        raise ValueError("amplitude carries no xi support information")
    omega = grid.omega_axis()
    G = amp.q0.metric.inverse_metric(grid.axis()[:, None])[:, 0, 0]
    p_lo = float(np.min(G)) * (h * omega) ** 2
    p_hi = float(np.max(G)) * (h * omega) ** 2
    touches = (p_hi >= xi_band[0]) & (p_lo <= xi_band[1])
    inside_guard = (p_lo >= guard[0] * (1.0 - 1e-12)) & (p_hi <= guard[1] * (1.0 + 1e-12))
    keep = np.flatnonzero(touches & inside_guard)
    if keep.size == 0:
        raise ValueError("no grid mode meets the amplitude band at this h")
    return omega, keep


def _fio_factors(amp, h, t, x_grid, xi_grid):
    """A = sum_j h^j a_j(t) and S(t) on all (x, xi) pairs, each (nx, nxi).

    The FIO matrix is A e^{iS/h}.  Callers multiply it out themselves:
    numpy evaluates `A * np.exp(...)` on a large temporary in place with the
    operands swapped, which rounds differently from `A * E` with E named,
    and each caller keeps the form its recorded values were computed with.
    """
    nx, nxi = x_grid.shape[0], xi_grid.shape[0]
    data = amp.evaluate(t, *tensor_pairs(x_grid, xi_grid))
    A = data.a[0].reshape(nx, nxi).astype(complex)
    for j in range(1, amp.order):
        A += h**j * data.a[j].reshape(nx, nxi)
    return A, data.S.reshape(nx, nxi)


def apply_fio(phase, amp, u0, h, t):
    """Apply J_h(S(t), sum_j h^j a_j(t)) to a band-limited state.

    The y-integral is exact through the discrete Fourier coefficients of u0;
    each retained mode k contributes c_k a(t, x, h omega_k) e^{i S / h}.  The
    x-grid must carry >= POINTS_PER_OSC points per oscillation of the fastest
    retained mode, and coefficient mass outside the amplitude band beyond
    BAND_TOL (relative L2) is rejected rather than silently dropped.
    """
    _check_1d(u0.grid)
    if phase.q0 is not amp.q0:
        raise ValueError("phase and amplitude tables disagree on the symbol")
    grid = u0.grid
    omega, keep = _mode_band(amp, h, grid)

    kmax = float(np.max(np.abs(omega[keep])))
    need = int(np.ceil(POINTS_PER_OSC * kmax * grid.length / (2.0 * np.pi)))
    if grid.n < need:
        raise ResolutionError(
            f"x-grid has {grid.n} points but the retained band needs {need}"
        )

    c = u0.fourier
    total = float(np.sum(np.abs(c) ** 2))
    dropped = total - float(np.sum(np.abs(c[keep]) ** 2))
    if total > 0.0 and dropped > BAND_TOL * total:
        raise ValueError(
            f"state carries {dropped / total:.3e} of its energy outside the "
            "amplitude band; localize it first"
        )

    A, S = _fio_factors(amp, h, t, grid.axis()[:, None], h * omega[keep, None])
    E = np.exp(1j * S / h)
    return state_from_values(grid, (A * E) @ c[keep])


def _xi_hull(amp, x_samples):
    """Conservative 1-D hull of the amplitude's covector support, both signs.

    Returns the intervals [(-hi, -lo), (lo, hi)], their largest |xi| and the
    sup of |grad_xi q0| = sigma |xi|^{sigma-1} over them (the flat speed
    bound every oscillation and reach estimate uses).
    """
    xi_band = amp.a_init.xi_band or amp.q0.xi_band
    if xi_band is None:
        raise ValueError("amplitude carries no xi support information")
    metric = amp.q0.metric
    G = metric.inverse_metric(x_samples)[:, 0, 0]
    lo = float(np.sqrt(xi_band[0] / np.max(G)))
    hi = float(np.sqrt(xi_band[1] / np.min(G)))
    sigma = amp.q0.sigma
    grad_max = sigma * max(hi ** (sigma - 1.0), lo ** (sigma - 1.0))
    return [(-hi, -lo), (lo, hi)], hi, grad_max


@dataclass
class KernelGrid:
    """Oscillatory kernel values K_h(t, x, y) on a rectangular (x, y) grid."""

    h: float
    t: float
    x_grid: np.ndarray
    y_grid: np.ndarray
    values: np.ndarray = field(repr=False)
    n_xi: int = 0

    @property
    def lam(self):
        return abs(self.t) / self.h

    def sup(self):
        return float(np.max(np.abs(self.values)))


def _x_factors(amp, h, t, x_grid, xis, w):
    """The y-free part A e^{iS/h} w of the kernel integrand, (nx, m)."""
    A, S = _fio_factors(amp, h, t, x_grid, xis)
    return A * np.exp(1j * S / h) * w[None, :]


def kernel(phase, amp, h, t, x_grid, y_grid, n_xi=None, x_factors=_x_factors):
    """Evaluate K_h(t, x, y) = (2 pi h)^{-d} int e^{i(S - y xi)/h} a dxi.

    The xi-support is a pair of sign-symmetric compact intervals; each gets a
    trapezoid rule with POINTS_PER_OSC points per oscillation of the scale
    |grad_xi (S - y xi)| <= max|x| + |t| sup|grad q0| + max|y| and at least
    XI_POINTS_MIN, or exactly `n_xi` points when given.  An unaffordable
    count raises :class:`ResolutionError` naming the need.

    y enters only through e^{-i xi y/h}: `x_factors(amp, h, t, x_grid, xis, w)`
    gives the rest, A e^{iS/h} w on the (x node, xi node) pairs, by solving
    the characteristics of every x node unless a caller that has some of
    them already passes its own (as `kernel_sup` does).
    """
    _check_1d(phase)
    x_grid = as_points(x_grid, 1)
    y_grid = as_points(y_grid, 1)
    intervals, _, grad_max = _xi_hull(amp, x_grid)
    M = float(np.max(np.abs(x_grid))) + abs(t) * grad_max + float(np.max(np.abs(y_grid)))

    nodes, weights, used = [], [], 0
    for lo, hi in intervals:
        width = hi - lo
        if n_xi is None:
            count = int(np.ceil(POINTS_PER_OSC * width * M / (2.0 * np.pi * h))) + 1
            count = max(count, XI_POINTS_MIN)
        else:
            count = int(n_xi)
        if count > XI_POINTS_CAP:
            raise ResolutionError(
                f"oscillation rule asks for {count} xi points on [{lo}, {hi}]; "
                f"cap is {XI_POINTS_CAP}"
            )
        used = max(used, count)
        w = np.full(count, width / (count - 1))
        w[0] *= 0.5
        w[-1] *= 0.5
        nodes.append(np.linspace(lo, hi, count))
        weights.append(w)
    # both intervals' nodes in one list: one characteristic batch, one product
    xis, w = np.concatenate(nodes)[:, None], np.concatenate(weights)
    values = (x_factors(amp, h, t, x_grid, xis, w)
              @ np.exp(-1j * np.outer(xis[:, 0], y_grid[:, 0]) / h))
    values /= 2.0 * np.pi * h
    if not np.all(np.isfinite(values)):
        raise ValueError("kernel produced non-finite entries")
    return KernelGrid(h=h, t=t, x_grid=x_grid, y_grid=y_grid, values=values,
                      n_xi=used)


def kernel_sup(phase, amp, h, t, x_span, y_span, tol=SUP_REFINE_TOL, max_rounds=6):
    """Grid max of |K_h(t)| over the spans, refined until it moves < tol.

    The first round takes SUP_POINTS_START points per span, and each round
    refines n points to 2n - 1, whose even nodes are the last round's.  When
    a round's xi rule is the last round's (always so on the flat metric), its
    `kernel` reuses the factors of those x nodes and solves only the new
    ones; a rule that moved (a new node can pass an extremum of G) solves
    every node again.  So each estimate is `kernel(...).sup()` on its grid.
    When `max_rounds` rounds pass without two successive estimates agreeing
    to `tol`, raises :class:`ResolutionError` naming the last two estimates.
    """
    rule = rows = None      # the last round's xi rule and x-factors

    def nested(amp, h, t, x_grid, xis, w):
        nonlocal rule, rows
        if rule is not None and np.array_equal(rule[0], xis) and np.array_equal(rule[1], w):
            factors = np.empty((x_grid.shape[0], xis.shape[0]), dtype=complex)
            factors[::2] = rows
            factors[1::2] = _x_factors(amp, h, t, x_grid[1::2], xis, w)
        else:
            factors = _x_factors(amp, h, t, x_grid, xis, w)
        rule, rows = (xis, w), factors
        return factors

    prev = cur = None
    n = SUP_POINTS_START
    for _ in range(max_rounds):
        xg = np.linspace(x_span[0], x_span[1], n)
        yg = np.linspace(y_span[0], y_span[1], n)
        prev, cur = cur, kernel(phase, amp, h, t, xg, yg, x_factors=nested).sup()
        if prev is not None and abs(cur - prev) <= tol * max(prev, 1e-300):
            return cur
        n = 2 * n - 1
    last = "" if prev is None else (
        f"; the last two rounds gave {prev:.6g} and {cur:.6g} "
        f"(relative change {abs(cur - prev) / max(prev, 1e-300):.3g})")
    raise ResolutionError(
        f"kernel sup at t={t} did not settle to tol={tol} in {max_rounds} "
        f"rounds (final grid {(n + 1) // 2} points per span){last}"
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
    than 6 requested or 4 finite samples raise :class:`InsufficientDataError`.
    """
    t_samples = np.atleast_1d(np.asarray(t_samples, dtype=float))
    if t_samples.size < 6:
        raise InsufficientDataError(
            f"need at least 6 time samples for the decay fit, got {t_samples.size}"
        )
    _, _, grad_max = _xi_hull(amp, np.zeros((1, 1)))
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
    """
    metric = amp.q0.metric
    if not metric.is_flat:
        raise ValueError("the exact reference propagator needs the flat metric")
    sigma = amp.q0.sigma
    cut = getattr(amp.a_init, "cut", None)
    if cut is None:
        raise ValueError("amplitude must carry its frequency cutoff")

    h_sweep = np.asarray(sorted(h_sweep, reverse=True), dtype=float)
    _, xi_hi, _ = _xi_hull(amp, np.zeros((1, 1)))
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
    """L2 operator norm of J_h(S, a) by power iteration on the normal map.

    NORM_ITERATIONS iterations run from a fixed random start.  The operator
    acts mode-to-grid, so the adjoint is applied with the conjugate-transposed
    mode matrix; both directions are matrix-free in the state dimension.
    """
    omega, keep = _mode_band(amp, h, grid)
    A, S = _fio_factors(amp, h, t, grid.axis()[:, None], h * omega[keep, None])
    M = A * np.exp(1j * S / h)

    rng = np.random.default_rng(0)
    v = rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
    v /= np.linalg.norm(v)
    est = 0.0
    for _ in range(NORM_ITERATIONS):
        c = np.fft.fft(v) / grid.n
        w = M @ c[keep]
        back = np.zeros(grid.n, dtype=complex)
        back[keep] = M.conj().T @ w
        v = np.fft.ifft(back)
        nrm = np.linalg.norm(v)
        if nrm == 0.0:
            return 0.0
        est = np.sqrt(nrm)
        v /= nrm
    return float(est)


def stationary_hessian_check(sigma, eta):
    """Compare det hess |eta|^sigma assembled by differencing with the closed form.

    The differences use the step HESSIAN_STEP.  The closed form is
    sigma^d |sigma - 1| |eta|^{(sigma-2) d}: the Hessian has one radial
    eigenvalue sigma(sigma-1)|eta|^{sigma-2} and d-1 tangential ones
    sigma |eta|^{sigma-2}.
    """
    eta = np.atleast_1d(np.asarray(eta, dtype=float))
    d = eta.size

    def phi(v):
        return np.linalg.norm(v) ** sigma

    Hs = np.empty((d, d))
    for i in range(d):
        for j in range(d):
            ei = np.zeros(d)
            ej = np.zeros(d)
            ei[i] = HESSIAN_STEP
            ej[j] = HESSIAN_STEP
            Hs[i, j] = (phi(eta + ei + ej) - phi(eta + ei - ej)
                        - phi(eta - ei + ej) + phi(eta - ei - ej)) / (4.0 * HESSIAN_STEP**2)
    assembled = abs(float(np.linalg.det(Hs)))
    closed = sigma**d * abs(sigma - 1.0) * np.linalg.norm(eta) ** ((sigma - 2.0) * d)
    gap = abs(assembled - closed) / max(1.0, closed)
    return {"assembled": assembled, "closed_form": float(closed), "gap": float(gap)}


def stationary_phase_prediction(amp, h, t, x, y):
    """Leading stationary-phase value of |K_h(t, x, y)| over the flat metric.

    Solves sigma |xi|^{sigma-1} = |x - y| / |t| for the stationary covector,
    checks it lies in the amplitude band, and returns
    (2 pi h)^{-d} (2 pi h/|t|)^{d/2} |a| / sqrt|det hess|.
    """
    metric = amp.q0.metric
    if not metric.is_flat:
        raise ValueError("closed-form stationary point needs the flat metric")
    sigma = amp.q0.sigma
    if t == 0.0:
        raise ValueError("prediction needs t != 0")
    speed = abs(x - y) / abs(t)
    xi_star = (speed / sigma) ** (1.0 / (sigma - 1.0))
    intervals, _, _ = _xi_hull(amp, np.zeros((1, 1)))
    lo, hi = intervals[1]
    if not lo <= xi_star <= hi:
        raise ValueError(
            f"stationary covector {xi_star:.4f} falls outside the band [{lo:.4f}, {hi:.4f}]"
        )
    sgn = -np.sign((x - y) / t)
    data = amp.evaluate(t, np.array([[float(x)]]), np.array([[sgn * xi_star]]))
    aval = abs(complex(data.a[0][0]))
    hess = sigma * abs(sigma - 1.0) * xi_star ** (sigma - 2.0)
    lam = abs(t) / h
    return (2.0 * np.pi * h) ** (-1.0) * np.sqrt(2.0 * np.pi / lam) * aval / np.sqrt(hess)


def c_large(sigma, xi_max):
    """Threshold |x - y|/t above which the kernel phase has no critical point."""
    return 2.0 * sigma * xi_max ** (sigma - 1.0) + 1.0
