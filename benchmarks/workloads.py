"""The three benchmark workloads: their inputs, operations and checks.

A workload object builds its inputs when it is created (that is the set-up
the benchmark times as `setup_s`). `operations()` lists the top-level calls
into fracwkb that one round makes, in order; each takes the outputs of the
earlier ones. `check(name, output, rng)` compares one output with the
computations in `reference.py` and returns (claim, value, threshold, ok)
rows. A row with `gates` false is reported only: it records a known fault
of the program next to its threshold, and its operation does not fail on
it. The seed only chooses the sample points of the checks that sample (the
kernel spot check and the rescaling-identity state), so every round of
every run makes the same calls on the same inputs.

fracwkb functions are always looked up as module attributes (`fio.kernel`),
so the traced run sees every call the workloads make.
"""

import numpy as np

import fracwkb.fio as fio
import fracwkb.hamjac as hamjac
import fracwkb.metric as metric
import fracwkb.nlfs as nlfs
import fracwkb.spectral as spectral
import fracwkb.strichartz as strichartz
import fracwkb.symbols as symbols
import fracwkb.transport as transport

import reference as ref

SIGMA = 2.0
CUT_STANDARD = (0.25, 3.8, 0.5, 3.0)     # r1, r2, plateau
STRICHARTZ_PAIR = (8.0, 4.0)             # (p, q) in dimension 1
SLOPE_MARGIN = 0.1


def _row(claim, value, threshold, ok, gates=True):
    return {"claim": claim, "value": float(value), "threshold": threshold,
            "ok": bool(ok), "gates": gates}


def _make_bump(cut):
    return symbols.make_bump(cut[0], cut[1], (cut[2], cut[3]))


class FlatParametrix:
    """Flat metric, sigma = 2: the dispersive decay fit and the N = 2 remainder sweep.

    Characteristics come in chunks of up to 65,536 points with one- or
    two-step flows and one Newton step, so the time goes to per-point array
    work in transport/hamjac, the xi-quadrature and refinement rounds of
    fio.kernel/kernel_sup, and the dense mode matrix of apply_fio.
    """

    DECAY_H = 2.0**-5
    DECAY_TIMES = 6
    REMAINDER_T = 0.15
    REMAINDER_H = (2.0**-4, 2.0**-5)
    WINDOW = (np.pi, 0.6)                # centre, width of the remainder window
    KERNEL_SAMPLES = 3                   # times in the kernel spot check
    # a small (t, x, y) window on which kernel's xi rule under-resolves chi(xi^2)
    SMALL_WINDOW = (0.054, (0.151, -0.016), (0.314, -0.022, 0.156, -0.007))

    def __init__(self):
        flat = metric.flat_metric(dim=1)
        self.q0 = symbols.fractional_symbol(flat, SIGMA, xi_band=(0.2, 4.0))
        cut = _make_bump(CUT_STANDARD)
        self.decay_init = symbols.localized_amplitude(
            flat, cut, window=symbols.ConstantWindow(1))
        self.remainder_init = symbols.localized_amplitude(
            flat, cut, window=symbols.GaussianWindow(1, center=self.WINDOW[0],
                                                     width=self.WINDOW[1]))
        self.x = np.linspace(0.0, 2.0 * np.pi, 9)[:, None]
        self.xi = np.linspace(0.8, 1.6, 3)[:, None]
        h = self.DECAY_H
        self.decay_times = np.geomspace(2.0 * h, 1.0, self.DECAY_TIMES)
        self.remainder_times = np.array([0.0, self.REMAINDER_T])

    def operations(self):
        return [
            ("decay-phase", lambda out: hamjac.build_phase(
                self.q0, self.decay_times, self.x, self.xi, dt=0.01)),
            ("decay-transport", lambda out: transport.solve_transport(
                self.decay_init, out["decay-phase"], N=1)),
            ("decay-fit", lambda out: fio.dispersive_fit(
                out["decay-phase"], out["decay-transport"], self.DECAY_H,
                self.decay_times)),
            ("remainder-phase", lambda out: hamjac.build_phase(
                self.q0, self.remainder_times, self.x, self.xi)),
            ("remainder-transport", lambda out: transport.solve_transport(
                self.remainder_init, out["remainder-phase"], N=2)),
            ("remainder-sweep", lambda out: fio.remainder_decay(
                out["remainder-phase"], out["remainder-transport"],
                self.REMAINDER_H, t=self.REMAINDER_T,
                reference_propagator=fft_reference)),
        ]

    def check(self, name, out, rng, outputs):
        if name.endswith("-phase"):
            return [check_flat_phase(out, SIGMA)]
        if name == "decay-transport":
            return [check_flat_amplitude(out, SIGMA, CUT_STANDARD, window=None)]
        if name == "remainder-transport":
            return [check_flat_amplitude(out, SIGMA, CUT_STANDARD, window=self.WINDOW)]
        if name == "decay-fit":
            return [check_decay_slope(out.slope, 1),
                    self.check_kernel(outputs, rng, SIGMA),
                    self.report_small_window(outputs, SIGMA)]
        if name == "remainder-sweep":
            return [check_remainder_slope(out.slope, out.order)]
        raise KeyError(name)

    def check_kernel(self, outputs, rng, sigma):
        """fio.kernel at seed-chosen (t, x, y) against the closed-form flat kernel.

        The points are taken on the windows dispersive_fit takes its sups on
        (x in [-0.5, 0.5], y within 0.5 of the farthest stationary point),
        and each call includes the window corners, as every kernel_sup grid
        does, so kernel picks the xi resolution the decay fit relies on.
        """
        tab, amp, h = outputs["decay-phase"], outputs["decay-transport"], self.DECAY_H
        lo, hi = np.sqrt(CUT_STANDARD[2]), np.sqrt(CUT_STANDARD[3])
        speed = sigma * np.sqrt(CUT_STANDARD[1]) ** (sigma - 1.0)
        reach = 0.5 + self.decay_times[-1] * speed + 0.5
        got, want = [], []
        for t in np.sort(rng.uniform(0.05, 1.0, self.KERNEL_SAMPLES)):
            x = np.concatenate([[-0.5, 0.5], rng.uniform(-0.5, 0.5, 2)])
            # two y on the stationary set x - y = -t sigma |xi|^{sigma-1} sgn(xi)
            # (where |K| peaks) and two anywhere in the window
            xi_star = rng.uniform(lo, hi, 2) * np.array([1.0, -1.0])
            y_peak = x[2] + t * sigma * np.abs(xi_star) ** (sigma - 1.0) * np.sign(xi_star)
            y = np.concatenate([[-reach, reach], y_peak, rng.uniform(-reach, reach, 2)])
            got.append(fio.kernel(tab, amp, h, t, x, y).values)
            want.append(ref.flat_kernel(t, x, y, h, sigma, CUT_STANDARD))
        return check_kernel_values(np.array(got), np.array(want))

    def report_small_window(self, outputs, sigma):
        """fio.kernel on a fixed small window, reported but not gating.

        There kernel sizes its xi trapezoid from the phase's oscillation
        alone and under-resolves the cutoff (a fault of the program, not of
        the decay fit, whose windows always reach +-0.5 in x)."""
        tab, amp, h = outputs["decay-phase"], outputs["decay-transport"], self.DECAY_H
        t, x, y = self.SMALL_WINDOW
        got = fio.kernel(tab, amp, h, t, np.array(x), np.array(y)).values
        want = ref.flat_kernel(t, np.array(x), np.array(y), h, sigma, CUT_STANDARD)
        row = check_kernel_values(got, want)
        return _row("kernel-small-window-rel-gap", row["value"], row["threshold"],
                    row["ok"], gates=False)


def check_kernel_values(got, want):
    """Largest kernel gap relative to the largest reference value."""
    gap = float(np.max(np.abs(got - want)) / np.max(np.abs(want)))
    return _row("kernel-vs-closed-form-rel-gap", gap, 1e-8, gap <= 1e-8)


def fft_reference(state, sigma, t, h):
    """Exact flat propagator for remainder_decay, by the benchmark's own FFT."""
    values = ref.fft_propagate(state.values, state.grid.length, sigma, t, h=h)
    return spectral.StateField(grid=state.grid, values=values)


def check_flat_phase(tab, sigma):
    """S(t, x, xi) = x xi + t |xi|^sigma over the whole flat table."""
    x = tab.x_grid[:, 0][None, :, None]
    xi = tab.xi_grid[:, 0][None, None, :]
    exact = x * xi + tab.t_grid[:, None, None] * np.abs(xi) ** sigma
    gap = float(np.max(np.abs(tab.S - exact)))
    return _row("flat-phase-closed-form-gap", gap, 1e-10, gap < 1e-10)


def check_flat_amplitude(amp, sigma, cut, window):
    """a_0(t, x, xi) = w(x + t sigma xi|xi|^{sigma-2}) chi(xi^2): the flat transport
    translates the initial symbol along the (constant) flow and f = 0."""
    t = amp.t_grid[:, None, None]
    x = amp.x_grid[:, 0][None, :, None]
    xi = amp.xi_grid[:, 0][None, None, :]
    base = x + t * sigma * xi * np.abs(xi) ** (sigma - 2.0)
    w = 1.0 if window is None else ref.gaussian_window(base, *window)
    exact = w * ref.bump(xi**2, *cut)
    gap = float(np.max(np.abs(amp.values[0] - exact)))
    return _row("flat-a0-translation-gap", gap, 1e-9, gap < 1e-9)


def check_decay_slope(slope, d):
    gap = abs(slope + 0.5 * d)
    return _row("decay-slope", slope, f"-{0.5 * d} +/- 0.1", gap <= 0.1)


def check_remainder_slope(slope, order):
    return _row(f"remainder-slope-N{order}", slope, f"{order} +/- 0.25",
                abs(slope - order) <= 0.25)


class CurvedParametrix:
    """Gaussian-bump metric: the Hamilton-Jacobi phase and the a_0 transport solve.

    Every characteristic takes up to 20 RK4 + variational steps and every
    Newton solve several forward flows on 549-point batches, so the flow
    integrator, the symbol evaluators and the inverse map's repeated flows
    dominate; no FIO is assembled.
    """

    EPS = 0.1
    T_MAX = 0.2
    N_T = 41
    X = (-1.5, 1.5, 61)
    XI = (0.8, 1.6, 9)
    CUT = (0.3, 3.0, 0.5, 2.0)
    WINDOW = (0.0, 0.8)

    def __init__(self):
        bump_metric = metric.gaussian_bump_metric(dim=1, epsilon=self.EPS)
        self.q0 = symbols.fractional_symbol(bump_metric, SIGMA, xi_band=(0.3, 3.0))
        self.a_init = symbols.localized_amplitude(
            bump_metric, _make_bump(self.CUT),
            window=symbols.GaussianWindow(1, center=self.WINDOW[0],
                                          width=self.WINDOW[1]))
        self.t = np.linspace(-self.T_MAX, self.T_MAX, self.N_T)
        self.x = np.linspace(*self.X)[:, None]
        self.xi = np.linspace(*self.XI)[:, None]

    def operations(self):
        return [
            ("bump-phase", lambda out: hamjac.build_phase(
                self.q0, self.t, self.x, self.xi, dt=0.01)),
            ("bump-transport", lambda out: transport.solve_transport(
                self.a_init, out["bump-phase"], N=1)),
        ]

    def check(self, name, out, rng, outputs):
        if name == "bump-phase":
            return [check_energy(out, self.EPS), check_hj(out, self.EPS, SIGMA)]
        if name == "bump-transport":
            return [check_transport(out, outputs["bump-phase"], self.EPS, SIGMA)]
        raise KeyError(name)


def _grid_steps(tab):
    return tab.t_grid[1] - tab.t_grid[0], tab.x_grid[1, 0] - tab.x_grid[0, 0]


def check_energy(tab, eps):
    """G(x)(d_x S)^2 = G(Y) xi^2: the Hamiltonian is conserved along characteristics."""
    x = tab.x_grid[:, 0][None, :, None]
    xi = tab.xi_grid[:, 0][None, None, :]
    lhs = ref.bump_metric(x, eps) * tab.grad_x[..., 0] ** 2
    rhs = ref.bump_metric(tab.Y[..., 0], eps) * xi**2
    gap = float(np.max(np.abs(lhs - rhs)))
    return _row("energy-along-characteristics-gap", gap, 1e-8, gap < 1e-8)


def check_hj(tab, eps, sigma):
    """d_t S = (G(x) (d_x S)^2)^{sigma/2} with the benchmark's own differences of S."""
    dt, dx = _grid_steps(tab)
    S_t = ref.interior(ref.d1(tab.S, dt, 0), [1])
    S_x = ref.interior(ref.d1(tab.S, dx, 1), [0])
    G = ref.bump_metric(ref.interior(tab.x_grid[:, 0], [0]), eps)[None, :, None]
    res = float(np.max(np.abs(S_t - (G * S_x**2) ** (0.5 * sigma))))
    return _row("hj-residual-own-differences", res, 1e-5, res < 1e-5)


def check_transport(amp, tab, eps, sigma):
    """d_t a_0 = V d_x a_0 + f a_0 with V = d_eta q0(x, d_x S),
    f = 1/2 d_eta^2 q0(x, d_x S) d_x^2 S, all from own differences of S and a_0."""
    dt, dx = _grid_steps(tab)
    a = amp.values[0]
    a_t = ref.interior(ref.d1(a, dt, 0), [1])
    a_x = ref.interior(ref.d1(a, dx, 1), [0])
    a_c = ref.interior(a, [0, 1])
    S_x = ref.interior(ref.d1(tab.S, dx, 1), [0])
    S_xx = ref.interior(ref.d2(tab.S, dx, 1), [0])
    G = ref.bump_metric(ref.interior(tab.x_grid[:, 0], [0]), eps)[None, :, None]
    s = 0.5 * sigma
    p = G * S_x**2
    V = s * p ** (s - 1.0) * 2.0 * G * S_x
    q_ee = s * (s - 1.0) * p ** (s - 2.0) * (2.0 * G * S_x) ** 2 + 2.0 * s * G * p ** (s - 1.0)
    res = float(np.max(np.abs(a_t - V * a_x - 0.5 * q_ee * S_xx * a_c)))
    return _row("a0-transport-residual-own-differences", res, 1e-4, res < 1e-4)


class SpectralEvolution:
    """Eigenbasis and FFT evolution: no characteristic is solved.

    The time goes to the dense O(n^2) eigenbasis transforms of the n = 1023
    bump operator in the nonlinear solvers and to the FFTs of the Strichartz
    sweeps and the flat continuation.
    """

    EPS = 0.1
    N_EIG = 1023
    BOX = 16.0
    LOW_EIGS = 101
    NLFS = dict(T=0.1, dt=1e-3, width=0.5, omega=3.0)
    NLFW = dict(T=0.05, dt=1e-3, width=0.6, omega=2.0, v1_amp=0.2)
    NU, MU = 3.0, 1
    CONTINUATION = dict(n=256, T=10.0, dt=0.01, width=0.5, omega=3.0)
    RESCALING = dict(n=1024, h=2.0**-4, t0=0.5, n_t=33)

    def __init__(self):
        self.metric = metric.gaussian_bump_metric(dim=1, epsilon=self.EPS,
                                                  box_length=self.BOX)
        grid = spectral.make_grid(1, self.N_EIG, self.BOX)
        centre = 0.5 * self.BOX
        self.u0 = spectral.modulated_gaussian(grid, centre, self.NLFS["width"],
                                              self.NLFS["omega"])
        self.v0 = spectral.modulated_gaussian(grid, centre, self.NLFW["width"],
                                              self.NLFW["omega"])
        self.v1 = spectral.state_from_values(
            grid, self.NLFW["v1_amp"] * np.real(self.v0.values).astype(complex))
        self.cut = _make_bump(CUT_STANDARD)
        self.pairs = {s: strichartz.classify_pair(*STRICHARTZ_PAIR, 1, s)
                      for s in (2.0, 0.5)}
        c = self.CONTINUATION
        self.flat_grid = spectral.make_grid(1, c["n"], 2.0 * np.pi)
        self.flat_op = spectral.flat_operator(self.flat_grid)
        self.w0 = spectral.modulated_gaussian(self.flat_grid, np.pi, c["width"], c["omega"])

    def _problem(self, op, spec, u0, v1=None):
        return nlfs.NlfsProblem(sigma=SIGMA, nu=self.NU, mu=self.MU, u0=u0,
                                T=spec["T"], dt=spec["dt"], op=op, v1=v1)

    def operations(self):
        ops = [
            ("bump-operator", lambda out: spectral.discretize_P_1d(self.metric, self.N_EIG)),
            ("nlfs", lambda out: nlfs.solve_nlfs(
                self._problem(out["bump-operator"], self.NLFS, self.u0))),
            ("nlfw", lambda out: nlfs.solve_nlfw(
                self._problem(out["bump-operator"], self.NLFW, self.v0, self.v1))),
        ]
        for s in (2.0, 0.5):
            ops.append((f"strichartz-semiclassical-sigma{s}",
                        lambda out, s=s: strichartz.measure_semiclassical_scaling(
                            s, self.pairs[s], self.cut, strichartz.DYADIC_SWEEP, n_t=65)))
            ops.append((f"strichartz-unscaled-sigma{s}",
                        lambda out, s=s: strichartz.measure_unscaled_scaling(
                            s, self.pairs[s], self.cut, strichartz.DYADIC_SWEEP,
                            interval=(0.0, 1.0), n_t=65)))
        ops.append(("continuation", lambda out: nlfs.global_continuation(
            self._problem(self.flat_op, self.CONTINUATION, self.w0),
            self.CONTINUATION["T"])))
        return ops

    def check(self, name, out, rng, outputs):
        if name == "bump-operator":
            return [self.check_eigenvalues(out)]
        if name == "nlfs":
            return [self.check_mass(out)]
        if name == "nlfw":
            return [self.check_wave_energy(out, outputs["bump-operator"])]
        if name.startswith("strichartz-"):
            sigma = float(name.rsplit("sigma", 1)[1])
            p, q = STRICHARTZ_PAIR
            if "-semiclassical-" in name:
                return [check_strichartz_slope(out.slope, ref.semiclassical_exponent(p, q, 1),
                                               f"semiclassical-slope-sigma{sigma}"),
                        self.check_rescaling(sigma, rng)]
            return [check_strichartz_slope(out.slope, ref.unscaled_exponent(p, q, 1, sigma),
                                           f"unscaled-slope-sigma{sigma}")]
        if name == "continuation":
            return self.check_continuation(out)
        raise KeyError(name)

    def check_eigenvalues(self, op):
        """Every 1-D metric is a flat circle of its Riemannian length."""
        length = ref.circle_length(self.EPS, self.BOX)
        want = ref.circle_eigenvalues(length, self.LOW_EIGS)
        got = op.lam[:self.LOW_EIGS]
        gap = float(np.max(np.abs(got[1:] - want[1:]) / want[1:]))
        ok = gap < 1e-9 and abs(got[0]) < 1e-8
        return _row("low-eigenvalues-vs-circle-rel-gap", gap, 1e-9, ok)

    def _weight(self):
        return ref.bump_weight(self.N_EIG, self.EPS, self.BOX)

    def check_mass(self, traj):
        """Split-step mass, with the benchmark's own volume weight."""
        w, dx = self._weight(), self.BOX / self.N_EIG
        masses = np.array([ref.weighted_mass(s.values, w, dx) for s in traj.states])
        drift = float(np.max(np.abs(masses - masses[0])) / masses[0])
        return _row("nlfs-mass-drift", drift, 1e-10, drift < 1e-10)

    def check_wave_energy(self, traj, op):
        w, dx = self._weight(), self.BOX / self.N_EIG
        energies = np.array([
            ref.wave_energy(op.lam, op.basis, w, dx, v.values, vt.values,
                            SIGMA, self.MU, self.NU)
            for v, vt in zip(traj.states, traj.velocities)])
        drift = float(np.max(np.abs(energies - energies[0])) / abs(energies[0]))
        return _row("nlfw-energy-drift", drift, 1e-5, drift < 1e-5)

    def check_rescaling(self, sigma, rng):
        """||e^{isL} v||_{L^p(h^{sigma-1}[-t0,t0]) L^q} = h^{(sigma-1)/p} ||e^{itL_h} v||,
        with fracwkb's propagator and the benchmark's own norms and state."""
        r = self.RESCALING
        n, h, t0 = r["n"], r["h"], r["t0"]
        length = 2.0 * np.pi
        x = length * np.arange(n) / n
        centre, omega = rng.uniform(1.0, 5.0), float(rng.integers(4, 24))
        delta = (x - centre + 0.5 * length) % length - 0.5 * length
        seed = np.exp(-delta**2 / (2.0 * h) + 1j * omega * delta)
        grid = spectral.make_grid(1, n, length)
        v = spectral.state_from_values(grid, ref.fft_localize(seed, length, CUT_STANDARD, h))
        op = spectral.flat_operator(grid)
        times = np.linspace(-t0, t0, r["n_t"])
        scaled = h ** (sigma - 1.0) * times
        p, q = STRICHARTZ_PAIR
        dx = length / n
        lhs = ref.lp_lq([spectral.propagate(v, op, sigma, s).values for s in scaled],
                        scaled, p, q, dx)
        rhs = h ** ((sigma - 1.0) / p) * ref.lp_lq(
            [spectral.propagate(v, op, sigma, t, h=h).values for t in times], times, p, q, dx)
        gap = abs(lhs - rhs) / rhs
        return _row(f"time-rescaling-gap-sigma{sigma}", gap, 1e-10, gap < 1e-10)

    def check_continuation(self, result):
        c = self.CONTINUATION
        length = self.flat_grid.length
        bound = ref.flat_conservation_bound(self.w0.values, length, SIGMA, self.MU, self.NU)
        bound_gap = abs(result.bound - bound) / bound
        sup = max(ref.flat_sobolev(s.values, length, 0.5 * SIGMA) for s in result.states)
        end_gap = abs(float(result.times[-1]) - c["T"])
        return [_row("continuation-end-time-gap", end_gap, 1e-9, end_gap < 1e-9),
                _row("continuation-bound-rel-gap", bound_gap, 1e-10, bound_gap < 1e-10),
                _row("continuation-sup-h-sigma-half", sup, f"<= {bound:.6f}", sup <= bound)]


def check_strichartz_slope(slope, exponent, claim):
    """The measured slope may not fall below -exponent - margin (one-sided bound)."""
    floor = -exponent - SLOPE_MARGIN
    return _row(claim, slope, f">= {floor:.4f}", slope >= floor)


WORKLOADS = {
    "flat-parametrix": FlatParametrix,
    "curved-parametrix": CurvedParametrix,
    "spectral-evolution": SpectralEvolution,
}
