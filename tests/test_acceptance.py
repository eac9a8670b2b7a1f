"""End-to-end acceptance gate: one test per headline property.

Each test pins one quantitative claim of the package at desk scale with its
tolerance; `pytest -v tests/test_acceptance.py` prints one pass/fail line per
claim.  Configurations are frozen so the measured values are reproducible
run to run.
"""

import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fracwkb.fio import dispersive_fit, remainder_decay
from fracwkb.hamflow import integrate_flow
from fracwkb.hamjac import build_phase, caustic_horizon, hj_residual, phase_point_data
from fracwkb.metric import flat_metric, gaussian_bump_metric, tensor_pairs
from fracwkb.nlfs import (NlfsProblem, conserved, global_continuation,
                          picard_iterate, sobolev_bound, solve_nlfs,
                          solve_nlfw)
from fracwkb.spectral import (flat_operator, frequency_localize, make_grid,
                              measure_bernstein, modulated_gaussian,
                              sobolev_norm, state_from_values)
from fracwkb.strichartz import (DYADIC_SWEEP, classify_pair,
                                measure_semiclassical_scaling,
                                rescaling_identity_gap)
from fracwkb.symbols import (ConstantWindow, GaussianWindow, fractional_symbol,
                             localized_amplitude, make_bump, smooth_step)
from fracwkb.transport import solve_transport

from fourier_states import plane_wave

FLAT = flat_metric(dim=1)
CUT_STANDARD = (0.25, 3.8, (0.5, 3.0))

# Independent oracle values (notes/oracles/hessian_det.py): the closed form
# sigma^d |sigma - 1| |eta|^{(sigma-2)d} evaluated symbolically.
HESSIAN_DETS = {
    (0.5, (0.7,)): 0.426867360477,
    (0.5, (1.3,)): 0.168665003713,
    (2.0, (0.7,)): 2.0,
    (2.0, (1.3,)): 2.0,
    (3.0, (0.7,)): 4.2,
    (3.0, (1.3,)): 7.8,
    (0.5, (1.2, 0.5)): 0.056895766955,
}


def _bump_q0(sigma=2.0):
    metric = gaussian_bump_metric(dim=1, epsilon=0.1)
    return fractional_symbol(metric, sigma, xi_band=(0.3, 3.0))


def _combo(grid, pairs):
    vals = np.zeros(grid.n, dtype=complex)
    for k, a in pairs:
        vals += a * plane_wave(grid, k).values
    return state_from_values(grid, vals)


def test_flat_phase_closed_form():
    """S(t, x, xi) = x xi + t |xi|^sigma on the nose for the flat metric."""
    xs = np.linspace(0.0, 2.0 * np.pi, 9)[:, None]
    xis = np.linspace(0.8, 1.6, 3)[:, None]
    ts = np.linspace(-0.5, 0.5, 11)
    for sigma in (0.5, 2.0, 3.0):
        q0 = fractional_symbol(FLAT, sigma, xi_band=(0.2, 4.0))
        tab = build_phase(q0, ts, xs, xis)
        exact = (xs[:, 0][:, None] * xis[:, 0][None, :]
                 + ts[:, None, None] * np.abs(xis[:, 0]) ** sigma)
        gap = float(np.max(np.abs(tab.S - exact)))
        print(f"sigma={sigma}: flat-phase gap {gap:.3e}")
        assert gap < 1e-10


def test_hj_residual_small_and_high_order():
    """Bump-metric phase solves its first-order PDE to 1e-5, order >= 2."""
    q0 = _bump_q0()
    xs = np.linspace(-1.5, 1.5, 31)[:, None]
    xis = np.linspace(0.8, 1.6, 5)[:, None]
    fine = build_phase(q0, np.linspace(-0.1, 0.1, 21), xs, xis, dt=0.01)
    _, res_fine = hj_residual(fine)
    coarse = build_phase(q0, np.linspace(-0.1, 0.1, 11), xs, xis, dt=0.02)
    _, res_coarse = hj_residual(coarse)
    order = np.log2(res_coarse / res_fine)
    print(f"residual {res_fine:.3e}, refinement order {order:.2f}")
    assert res_fine < 1e-5
    assert order >= 2.0


def test_flow_bound_constants_stable():
    """sup |Z - I|/|t| and sup |X - x|/|t| finite, stable across step counts."""
    q0 = _bump_q0()

    x, xi = tensor_pairs(np.linspace(-1.5, 1.5, 13)[:, None],
                         np.linspace(0.8, 1.6, 5)[:, None])

    def constants(n_steps):
        # the batch at each node time k t / n, flowed there in k steps
        c_z = c_y = 0.0
        times = np.linspace(0.0, -0.3, n_steps + 1)
        for k in range(1, n_steps + 1):
            X, _, Z, *_ = integrate_flow(q0, times[k], x, xi, k)
            c_z = max(c_z, np.max(np.linalg.norm(Z - np.eye(2), axis=(1, 2))) / abs(times[k]))
            c_y = max(c_y, np.max(np.abs(X - x)) / abs(times[k]))
        return c_z, c_y

    coarse = constants(30)
    fine = constants(60)
    print(f"C_Z {coarse[0]:.6f}/{fine[0]:.6f}, C_Y {coarse[1]:.6f}/{fine[1]:.6f}")
    for c_coarse, c_fine in zip(coarse, fine):
        assert np.isfinite(c_fine) and c_fine > 0.0
        assert abs(c_coarse - c_fine) / c_fine < 0.10


def test_dispersive_decay_exponent():
    """sup |K_h(t)| decays like (t/h)^{-1/2}, slope within 0.1."""
    h = 2.0**-6
    configs = [
        (2.0, (0.2, 4.0), CUT_STANDARD, 1.0, 10),
        (0.5, (0.08, 34.0), (0.1, 30.0, (0.5, 1.0)), 8.0, 12),
    ]
    for sigma, band, cut_args, t_end, n_t in configs:
        q0 = fractional_symbol(FLAT, sigma, xi_band=band)
        a_init = localized_amplitude(FLAT, make_bump(*cut_args),
                                     window=ConstantWindow(1))
        ts = np.geomspace(2.0 * h, t_end, n_t)
        tab = build_phase(q0, ts, np.linspace(0.0, 2.0 * np.pi, 9)[:, None],
                          np.linspace(0.8, 1.6, 3)[:, None], dt=0.01)
        amp = solve_transport(a_init, tab, N=1)
        fit = dispersive_fit(tab, amp, h, ts)
        print(f"sigma={sigma}: decay slope {fit.slope:.4f}")
        assert abs(fit.slope + 0.5) <= 0.1


@pytest.mark.parametrize("eps", [0.05, 0.1, 0.2])
def test_bump_dispersive_decay_exponent(eps):
    """On the bump metrics of eps up to 0.2, sup |K_h(t)| decays like
    (t/h)^{-1/2} too.

    The fit stays inside the caustic-free window: the horizon of the table
    is its largest time.  At eps = 0.2 the amplitude's xi hull reaches p in
    [0.208, 4.56], inside the guard band.
    """
    h = 2.0**-5
    bump = gaussian_bump_metric(dim=1, epsilon=eps)
    q0 = fractional_symbol(bump, 2.0, xi_band=(0.2, 4.75))
    a_init = localized_amplitude(bump, make_bump(*CUT_STANDARD), window=ConstantWindow(1))
    ts = np.geomspace(2.0 * h, 1.0, 6)
    tab = build_phase(q0, ts, np.linspace(0.0, 2.0 * np.pi, 9)[:, None],
                      np.linspace(0.8, 1.6, 3)[:, None], dt=0.01)
    assert caustic_horizon(tab) == ts[-1]
    fit = dispersive_fit(tab, solve_transport(a_init, tab, N=1), h, ts)
    print(f"eps={eps}: bump decay slope {fit.slope!r}, r2 {fit.r2:.3f}")
    assert abs(fit.slope + 0.5) <= 0.1


def test_stationary_hessian_determinant_identity():
    """The phase pass's xi-Hessian of S matches the closed form.

    Over the flat metric S = x.xi + t |xi|^sigma, so |det dY_dxi| / t^d at
    x = 0, t = 0.1 is det hess |xi|^sigma, the oracle value at xi = eta.
    """
    t = 0.1
    for (sigma, eta), frozen in sorted(HESSIAN_DETS.items()):
        d = len(eta)
        q0 = fractional_symbol(flat_metric(dim=d), sigma)
        data = phase_point_data(q0, t, np.zeros((1, d)), np.array([eta]))
        det = abs(float(np.linalg.det(data.dY_dxi[0]))) / t**d
        assert_allclose(det, frozen, rtol=1e-9)


def test_wkb_remainder_order():
    """Parametrix remainder decays at the amplitude order in h."""
    q0 = fractional_symbol(FLAT, 2.0, xi_band=(0.2, 4.0))
    a_init = localized_amplitude(
        FLAT, make_bump(*CUT_STANDARD),
        window=GaussianWindow(1, center=np.pi, width=0.6))
    x = np.linspace(0.0, 2.0 * np.pi, 9)[:, None]
    xi = np.linspace(0.8, 1.6, 3)[:, None]
    phase = build_phase(q0, [0.0, 0.15], x, xi)
    h_sweep = [2.0**-k for k in range(4, 9)]
    fit2 = remainder_decay(phase, solve_transport(a_init, phase, N=2), h_sweep)
    fit1 = remainder_decay(phase, solve_transport(a_init, phase, N=1), h_sweep)
    print(f"remainder slopes N=2 {fit2.slope:.3f}, N=1 {fit1.slope:.3f}")
    assert fit2.slope >= 1.0
    assert 0.6 < fit1.slope < 1.4
    assert fit2.slope > fit1.slope


def test_strichartz_slope_within_bound():
    """Norm-ratio slope does not beat the admissible exponent by > 0.1."""
    cut = make_bump(*CUT_STANDARD)
    for sigma in (2.0, 0.5):
        pair = classify_pair(8, 4, 1, sigma)
        assert pair.total == 0.125
        fit = measure_semiclassical_scaling(sigma, pair, cut,
                                            h_sweep=DYADIC_SWEEP, n_t=65)
        print(f"sigma={sigma}: slope {fit.slope:.4f} vs bound -0.125")
        assert fit.passes(margin=0.1)


def test_time_rescaling_identity():
    """The change-of-variables equality behind the scaling sweep, to 1e-10."""
    grid = make_grid(1, 1024)
    cut = make_bump(*CUT_STANDARD)
    rng = np.random.default_rng(5)
    h = 2.0**-4
    worst = 0.0
    for _ in range(5):
        center = rng.uniform(1.0, 5.0)
        omega = float(rng.integers(4, 24))
        v = frequency_localize(
            modulated_gaussian(grid, center, np.sqrt(h), omega), cut, h)
        worst = max(worst, rescaling_identity_gap(2.0, v, h, 8, 4))
    print(f"worst rescaling gap {worst:.3e}")
    assert worst < 1e-10


def test_admissible_pair_arithmetic():
    """Exponent formulas hold exactly; the forbidden endpoint is excluded."""
    for p, q, d, sigma in [(8, 4, 1, 2.0), (2, 6, 3, 1.5), (np.inf, 2, 2, 3.0),
                           (4, 8, 2, 0.5)]:
        pair = classify_pair(p, q, d, sigma)
        assert pair.gamma == 0.5 * d - d * (1.0 / q) - sigma * (1.0 / p)
    assert not classify_pair(2, np.inf, 2, 2.0).valid
    for sigma in (1.5, 2.0, 2.7, 3.0):
        assert classify_pair(2, 6, 3, sigma).total == 0.5


def test_littlewood_paley_reconstruction_and_bernstein():
    """Dyadic blocks resum to the identity; localization costs h^{-1/2}."""
    grid = make_grid(1, 256)
    # the low pass chi falls from 1 to 0 on [1, 4]; with phi(lam) =
    # chi(lam) - chi(4 lam) the blocks telescope to chi(lam / 4^8)
    chi = lambda lam: smooth_step((4.0 - lam) / 3.0)
    phi = lambda lam: chi(lam) - chi(4.0 * lam)
    u = modulated_gaussian(grid, np.pi, 0.3, omega=20.0)
    total = frequency_localize(u, chi, 1.0).values.copy()
    for k in range(1, 9):
        block = frequency_localize(u, lambda lam, k=k: phi(lam / 4.0**k), 1.0)
        total += block.values
    gap = state_from_values(grid, total - u.values).l2_norm() / u.l2_norm()
    print(f"reconstruction gap {gap:.3e}")
    assert gap < 1e-10

    fit = measure_bernstein(make_grid(1, 512), make_bump(0.25, 4.0, (0.5, 2.0)),
                            [2.0**-k for k in range(2, 7)])
    print(f"bernstein slope {fit.slope:.4f}")
    assert abs(fit.slope + 0.5) < 0.1


def test_nlfs_conservation():
    """Mass conserved to rounding; energy drift is second order in dt."""
    grid = make_grid(1, 256)
    op = flat_operator(grid)
    u0 = modulated_gaussian(grid, np.pi, 0.5, 3.0)
    drifts = []
    for dt in (1e-3, 5e-4):
        prob = NlfsProblem(sigma=2.0, nu=3.0, mu=1, u0=u0, T=1.0, dt=dt, op=op)
        traj = solve_nlfs(prob)
        q_start = conserved(prob, prob.u0)
        q_end = conserved(prob, traj.final)
        assert abs(q_end.mass - q_start.mass) / q_start.mass < 1e-10
        drifts.append(abs(q_end.energy - q_start.energy))
    print(f"energy drifts {drifts[0]:.3e} -> {drifts[1]:.3e}")
    assert drifts[0] / drifts[1] >= 3.5


def test_picard_contraction_window_scaling():
    """Differences shrink geometrically; rate halves (about) with the window."""
    grid = make_grid(1, 64)
    op = flat_operator(grid)
    u0 = _combo(grid, [(1, 0.2), (-2, 0.1)])
    prob = NlfsProblem(sigma=2.0, nu=3.0, mu=1, u0=u0, T=0.2, dt=1e-3, op=op)
    full = picard_iterate(prob, n_iter=8, n_t=65)
    half = picard_iterate(dataclasses.replace(prob, T=0.1), n_iter=8, n_t=65)
    floor = 1e-10 * full.diffs[0]
    for prev, nxt in zip(full.diffs, full.diffs[1:]):
        if prev > floor:
            assert nxt < prev
    ratio = full.rate / half.rate
    traj = solve_nlfs(prob)
    gap = np.max(np.abs(traj.final.values - full.final.values))
    print(f"rate ratio {ratio:.3f}, split-step gap {gap:.3e}")
    assert 1.5 <= ratio <= 2.5
    assert gap < 1e-6


def test_wave_kernel_mode_identity():
    """Constant wave data rides the kernel mode: v(t) = v0 + t v1."""
    grid = make_grid(1, 64)
    op = flat_operator(grid)
    v0 = state_from_values(grid, 0.7 * np.ones(64, dtype=complex))
    v1 = state_from_values(grid, 0.3 * np.ones(64, dtype=complex))
    prob = NlfsProblem(sigma=2.0, nu=3.0, mu=0, u0=v0, T=0.8, dt=0.01,
                       op=op, v1=v1)
    vT, _ = solve_nlfw(prob).final
    gap = float(np.max(np.abs(vT.values - (0.7 + 0.8 * 0.3))))
    print(f"kernel-mode gap {gap:.3e}")
    assert gap < 1e-12


def test_global_continuation_to_long_time():
    """Defocusing run to T=10 completes under the conservation bound."""
    grid = make_grid(1, 256)
    op = flat_operator(grid)
    u0 = modulated_gaussian(grid, np.pi, 0.5, 3.0)
    prob = NlfsProblem(sigma=2.0, nu=3.0, mu=1, u0=u0, T=10.0, dt=0.01, op=op)
    result = global_continuation(prob, 10.0)
    assert result.times[-1] == pytest.approx(10.0, abs=1e-9)
    assert result.bound == pytest.approx(sobolev_bound(prob), rel=1e-13)
    sup = max(sobolev_norm(s, 1.0, op) for s in result.states)
    print(f"{len(result.segments)} segments, sup {sup:.4f} <= bound "
          f"{result.bound:.4f}")
    assert sup <= result.bound
