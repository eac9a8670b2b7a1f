"""Nonlinear solvers on the periodic box: split-step, Picard, wave, continuation.

The linear group is the same e^{i t Lambda^sigma} the rest of the package
uses, so the Schrodinger-type equation solved here is

    d_t u = i Lambda^sigma u + i mu |u|^{nu-1} u,

whose mass and energy (potential term +mu/(nu+1) |u|^{nu+1}) are conserved
and whose mu = +1 branch is defocusing.  The wave-type equation is

    d_t^2 v + Lambda^{2 sigma} v + mu |v|^{nu-1} v = 0,

solved through the first-order system with the exact cos/sin flow on the
spectral side and kick steps for the nonlinearity.  Picard iterates the
Duhamel map on eigenbasis coefficients: one group table, 2 + 2 n_iter transforms.
"""

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .metric import check_sigma
from .spectral import state_from_values

__all__ = [
    "NlfsProblem",
    "ConservedQuantities",
    "Trajectory",
    "WaveTrajectory",
    "PicardReport",
    "ContinuationResult",
    "BlowUpError",
    "ContractionError",
    "solve_nlfs",
    "picard_iterate",
    "solve_nlfw",
    "conserved",
    "sobolev_bound",
    "global_continuation",
]

BLOWUP_FACTOR = 1e6
SINC_SMALL = 1e-8
PICARD_FLOOR = 1e-10
PROBE_RATIO = 0.5       # contraction rate a continuation window must reach
PROBE_ITERATIONS = 3    # Picard iterations of each continuation probe
KEPT_STEPS = 256        # a trajectory keeps every max(1, n // KEPT_STEPS)-th of n steps


class BlowUpError(RuntimeError):
    """Trajectory left the finite range; carries the last valid time."""

    def __init__(self, t_last, message):
        super().__init__(message)
        self.t_last = float(t_last)


class ContractionError(RuntimeError):
    """The Duhamel map failed to contract on the requested window."""


@dataclass
class NlfsProblem:
    """One nonlinear evolution problem tied to a spectral operator.

    mu = +1 is defocusing, -1 focusing, 0 the linear limit.  nu is kept
    smooth (odd integer) by default; other values work numerically but the
    pointwise power is then only finitely differentiable at zeros of u, so
    they are flagged once.
    """

    sigma: float
    nu: float
    mu: float
    u0: object
    T: float
    dt: float
    op: object
    v1: object = None

    def __post_init__(self):
        check_sigma(self.sigma)
        if not 1.0 < self.nu < np.inf:
            raise ValueError(f"nu must exceed 1 and be finite, got {self.nu}")
        if self.mu not in (-1.0, 0.0, 1.0, -1, 0, 1):
            raise ValueError(f"mu must be -1, 0 or +1, got {self.mu}")
        if not 0.0 < self.dt < np.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if self.T == 0.0 or not np.isfinite(self.T):
            raise ValueError(f"T must be nonzero and finite, got {self.T}")
        odd_int = float(self.nu).is_integer() and int(self.nu) % 2 == 1
        if not odd_int:
            warnings.warn(
                f"nu={self.nu} is not an odd integer; |u|^(nu-1)u is not smooth "
                "at zeros of u", stacklevel=2)


@dataclass(frozen=True)
class ConservedQuantities:
    mass: float
    energy: float


@dataclass
class Trajectory:
    times: np.ndarray
    states: list = field(repr=False)

    @property
    def final(self):
        return self.states[-1]


@dataclass
class WaveTrajectory:
    times: np.ndarray
    states: list = field(repr=False)
    velocities: list = field(repr=False)

    @property
    def final(self):
        return self.states[-1], self.velocities[-1]


def _steps(T, dt):
    n = max(1, int(round(abs(T) / dt)))
    return n, T / n


def _blowup_guard(values, t, sup0):
    # one reduction: max propagates a NaN, and |z| is inf at an infinite part
    sup = float(np.max(np.abs(values)))
    if not np.isfinite(sup):
        raise BlowUpError(t, f"non-finite values at t={t:.6g}")
    if sup0 > 0.0 and sup > BLOWUP_FACTOR * sup0:
        raise BlowUpError(
            t, f"sup amplitude exceeded {BLOWUP_FACTOR:.0e} x initial at t={t:.6g}")


def _rotate(values, mu, nu, tau):
    """Exact flow of d_t u = i mu |u|^{nu-1} u over time tau (pointwise)."""
    if mu == 0:
        return values
    return values * np.exp(1j * mu * tau * np.abs(values) ** (nu - 1.0))


def _strang(prob, fields, kick, drift):
    """Strang kick-drift-kick steps of a stack of fields over [0, prob.T].

    `kick(fields)` is the half-step nonlinear update of the stack and
    `drift(coeffs)` the exact one-step linear flow of its eigenbasis
    coefficients.  The first field is checked for blow-up after each step.
    Returns the times and stacks of every max(1, n // KEPT_STEPS)-th of the
    n steps and the last one, t = 0 left out.
    """
    n, dt = _steps(prob.T, prob.dt)
    store_every = max(1, n // KEPT_STEPS)
    grid, op = prob.u0.grid, prob.op
    sup0 = float(np.max(np.abs(prob.u0.values)))
    times, kept = [], []
    for k in range(1, n + 1):
        coeffs = op.coefficients(state_from_values(grid, kick(fields)))
        fields = kick(op.synthesize(drift(coeffs)).values)
        _blowup_guard(fields[0], (k - 1) * dt, sup0)
        if k % store_every == 0 or k == n:
            times.append(k * dt)
            kept.append(fields)
    return times, kept


def solve_nlfs(prob):
    """Strang split-step trajectory for the Schrodinger-type equation.

    Half nonlinear rotation, full exact spectral step, half rotation; both
    substeps are L2 isometries, so mass is conserved to rounding and the
    energy drift is O(dt^2).  dt should resolve the phase of the fastest
    occupied mode (dt * lam_max^{sigma/2} below ~1/2) or the splitting error
    dominates.
    """
    dt = _steps(prob.T, prob.dt)[1]
    flow = np.exp(1j * dt * prob.op.lam ** (0.5 * prob.sigma))
    times, kept = _strang(prob, prob.u0.values[None],
                          lambda u: _rotate(u, prob.mu, prob.nu, 0.5 * dt),
                          lambda c: c * flow)
    grid = prob.u0.grid
    return Trajectory(times=np.asarray([0.0] + times),
                      states=[prob.u0] + [state_from_values(grid, u[0]) for u in kept])


@dataclass
class PicardReport:
    times: np.ndarray
    states: list = field(repr=False)
    diffs: np.ndarray = None
    ratios: np.ndarray = None

    @property
    def rate(self):
        """Representative contraction factor: median ratio after warm-up.

        Only ratios whose numerator still sits above the rounding floor count;
        once the iteration has converged to machine precision the successive
        differences are noise and their ratios mean nothing.
        """
        floor = PICARD_FLOOR * self.diffs[0]
        valid = [r for r, nxt in zip(self.ratios, self.diffs[1:]) if nxt > floor]
        if not valid:
            return 0.0
        tail = valid[1:] if len(valid) > 1 else valid
        return float(np.median(tail))

    @property
    def final(self):
        return self.states[-1]


def picard_iterate(prob, n_iter=8, n_t=65):
    """Iterate the Duhamel map on [0, prob.T] and report contraction.

    Iterates u -> e^{itL}u0 + i mu int_0^t e^{i(t-s)L} |u|^{nu-1}u(s) ds from
    the free evolution on eigenbasis coefficients: with the group table g =
    e^{itL}, built once, the next iterate is g (c0 + cumulative trapezoid of
    conj(g) N), c0 and N the coefficients of u0 and of the nonlinearity, so a
    call makes 2 + 2 n_iter transforms.  Successive sup-in-time L2 differences
    must shrink (a ratio >= 1 after the first comparison raises
    ContractionError); an iterate's first time node past the blow-up guard
    raises BlowUpError.  n_iter < 1 or n_t < 2 raises ValueError.
    """
    if int(n_iter) < 1 or int(n_t) < 2:
        raise ValueError(f"need n_iter >= 1 and n_t >= 2, got {n_iter} and {n_t}")
    grid, op = prob.u0.grid, prob.op
    times = np.linspace(0.0, prob.T, int(n_t))
    t = times.reshape((-1,) + (1,) * grid.dim)
    group = np.exp(1j * t * op.lam ** (0.5 * prob.sigma))
    back, dt = group.conj(), np.diff(t, axis=0)
    c0 = op.coefficients(prob.u0)
    cur = op.synthesize(group * c0)
    sup0 = float(np.max(np.abs(prob.u0.values)))

    diffs = []
    for _ in range(int(n_iter)):
        u = cur.values
        nl = op.coefficients(state_from_values(
            grid, 1j * prob.mu * np.abs(u) ** (prob.nu - 1.0) * u)) * back
        acc = np.zeros_like(nl)
        np.cumsum(dt * (nl[1:] + nl[:-1]) / 2.0, axis=0, out=acc[1:])
        cur = op.synthesize((c0 + acc) * group)
        sups = cur.lq_norm(np.inf)      # the guard takes the first node over it, or node 0
        i = int(np.argmax(~np.isfinite(sups) | (sup0 > 0.0) & (sups > BLOWUP_FACTOR * sup0)))
        _blowup_guard(cur.values[i], times[i], sup0)
        diffs.append(float(np.max(state_from_values(grid, cur.values - u).lq_norm(2))))
        if len(diffs) >= 2 and diffs[-2] > PICARD_FLOOR * diffs[0]:
            if diffs[-1] / diffs[-2] >= 1.0:
                raise ContractionError(
                    f"successive-difference ratio {diffs[-1] / diffs[-2]:.3f} "
                    f">= 1 on window T={prob.T}; shrink the window")

    diffs = np.asarray(diffs)
    ratios = diffs[1:] / np.where(diffs[:-1] > 0.0, diffs[:-1], 1.0)
    states = [state_from_values(grid, v) for v in cur.values]
    return PicardReport(times=times, states=states, diffs=diffs, ratios=ratios)


def _sin_over(mu_vals, t):
    """sin(t mu)/mu with the kernel rule -> t as mu -> 0."""
    small = np.abs(t) * mu_vals < SINC_SMALL
    safe = np.where(small, 1.0, mu_vals)
    return np.where(small, t, np.sin(t * safe) / safe)


def solve_nlfw(prob):
    """Strang trajectory (v, d_t v) for the wave-type equation.

    The kick updates the velocity by -mu |v|^{nu-1} v; the drift applies the
    exact cos/sin propagator with sin(t lam^{sigma/2})/lam^{sigma/2} -> t on
    (near-)kernel modes, so constant data with G = 0 evolves as v0 + t v1.
    """
    if prob.v1 is None:
        raise ValueError("wave problems need the velocity initial v1")
    dt = _steps(prob.T, prob.dt)[1]
    mu_vals = prob.op.lam ** (0.5 * prob.sigma)
    c, s_over = np.cos(dt * mu_vals), _sin_over(mu_vals, dt)
    back = -(mu_vals**2) * s_over

    def kick(vw):
        v, w = vw
        return np.stack([v, w - 0.5 * dt * prob.mu * np.abs(v) ** (prob.nu - 1.0) * v])

    def drift(cvw):
        cv, cw = cvw
        return np.stack([c * cv + s_over * cw, back * cv + c * cw])

    times, kept = _strang(prob, np.stack([prob.u0.values, prob.v1.values]), kick, drift)
    grid = prob.u0.grid
    return WaveTrajectory(times=np.asarray([0.0] + times),
                          states=[prob.u0] + [state_from_values(grid, vw[0]) for vw in kept],
                          velocities=[prob.v1] + [state_from_values(grid, vw[1]) for vw in kept])


def conserved(prob, state, velocity=None):
    """Mass and energy of a state (pair) under the problem's weights.

    Schrodinger energy is  int 1/2 |Lambda^{sigma/2} u|^2 + mu/(nu+1)|u|^{nu+1};
    with a velocity the wave energy 1/2(|d_t v|^2 + |Lambda^sigma v|^2) plus
    the same potential is returned instead.
    """
    op = prob.op
    coeffs = op.coefficients(state)
    base = op.parseval_factor
    mass = float(base * np.sum(np.abs(coeffs) ** 2))
    density = np.abs(state.values) ** (prob.nu + 1.0)
    potential = prob.mu / (prob.nu + 1.0) * float(
        np.sum(density * op.weight) * op.grid.cell_volume)
    if velocity is None:
        kinetic = 0.5 * float(base * np.sum(op.lam ** (0.5 * prob.sigma)
                                            * np.abs(coeffs) ** 2))
    else:
        cw = op.coefficients(velocity)
        kinetic = 0.5 * float(base * np.sum(np.abs(cw) ** 2))
        kinetic += 0.5 * float(base * np.sum(op.lam**prob.sigma
                                             * np.abs(coeffs) ** 2))
    return ConservedQuantities(mass=mass, energy=kinetic + potential)


def sobolev_bound(prob):
    """A priori H^{sigma/2} bound from mass + energy conservation (mu = +1).

    (1 + lam)^{sigma/2} <= factor * (1 + lam^{sigma/2}) with factor 1 for
    sigma <= 2 and 2^{sigma/2 - 1} beyond, so the norm stays below
    sqrt(factor * (M0 + 2 E0)).
    """
    if prob.mu != 1:
        raise ValueError("the conservation bound needs the defocusing sign")
    q0 = conserved(prob, prob.u0)
    factor = 1.0 if prob.sigma <= 2.0 else 2.0 ** (0.5 * prob.sigma - 1.0)
    return math.sqrt(factor * (q0.mass + 2.0 * q0.energy))


@dataclass
class ContinuationResult:
    times: np.ndarray
    states: list = field(repr=False)
    segments: list = None
    bound: float = 0.0

    @property
    def final(self):
        return self.states[-1]


def global_continuation(prob, T_total):
    """Defocusing solution on [0, T_total] glued from measured local windows.

    Each window length starts at min(1/2, remaining) and is halved until a
    Picard probe of PROBE_ITERATIONS iterations contracts with rate <=
    PROBE_RATIO; a probe that diverges, by ContractionError or BlowUpError,
    does not contract, and eight windows without a contracting probe raise
    ContractionError.  The split-step solver then advances the window (a
    blow-up there raises BlowUpError at the global time) and the loop
    restarts from its endpoint.  The conserved-quantity bound on
    H^{sigma/2} is recorded for monitoring.  A T_total that is not positive
    and finite raises ValueError before any window.
    """
    if prob.mu != 1:
        raise ValueError("global continuation requires mu = +1 (defocusing)")
    if not 0.0 < T_total < np.inf:
        raise ValueError(f"T_total must be positive and finite, got {T_total}")
    bound = sobolev_bound(prob)
    t_done = 0.0
    u = prob.u0
    all_times = [0.0]
    all_states = [u]
    segments = []
    while t_done < T_total - 1e-12:
        T_loc = min(0.5, T_total - t_done)
        local = replace(prob, u0=u, T=T_loc, v1=None)
        for _ in range(8):
            try:
                probe = picard_iterate(local, n_iter=PROBE_ITERATIONS, n_t=17)
            except (ContractionError, BlowUpError):
                probe = None
            if probe is not None and probe.rate <= PROBE_RATIO:
                break
            T_loc *= 0.5
            local.T = T_loc
        else:
            raise ContractionError(f"no contracting window found at t={t_done:.6g}")
        try:
            leg = solve_nlfs(local)
        except BlowUpError as err:
            raise BlowUpError(t_done + err.t_last,
                              f"local window failed at t={t_done + err.t_last:.6g}"
                              ) from err
        all_times.extend(t_done + leg.times[1:])
        all_states.extend(leg.states[1:])
        segments.append((t_done, T_loc))
        t_done += T_loc
        u = leg.final
    return ContinuationResult(times=np.asarray(all_times), states=all_states,
                              segments=segments, bound=bound)
