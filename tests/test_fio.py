"""Oscillatory-integral application, kernels and decay measurements."""

import numpy as np
import pytest

from fracwkb import fio
from fracwkb.fio import (InsufficientDataError, ResolutionError, apply_fio,
                         c_large, dispersive_fit, kernel, kernel_sup,
                         operator_norm_estimate, remainder_decay,
                         stationary_hessian_check, stationary_phase_prediction)
from fracwkb.hamjac import build_phase
from fracwkb.metric import flat_metric, gaussian_bump_metric
from fracwkb.spectral import (flat_operator, make_grid, plane_wave, propagate,
                              state_from_values)
from fracwkb.symbols import (GaussianWindow, fractional_symbol,
                             localized_amplitude, make_bump)
from fracwkb.transport import solve_transport

H_REF = 2.0**-6
T_REF = 8.0 * H_REF
# adaptive scipy.integrate.quad reference for K(8h, 0, -0.5) in the setup
# below (notes/oracles/kernel_quad.py)
K_REF = 6.132204298520 + 1.334468729813j


def _kernel_setup(sigma=2.0, order=1):
    metric = flat_metric(dim=1)
    q0 = fractional_symbol(metric, sigma, xi_band=(0.2, 18.0))
    cut = make_bump(0.25, 16.0, (1.0, 4.0))
    a_init = localized_amplitude(metric, cut)
    x = np.linspace(0.0, 2.0 * np.pi, 9)[:, None]
    xi = np.linspace(0.8, 1.6, 3)[:, None]
    phase = build_phase(q0, [0.0, T_REF], x, xi)
    return phase, solve_transport(a_init, phase, N=order), cut


@pytest.mark.parametrize("sigma", [0.5, 2.0])
def test_apply_fio_matches_exact_multiplier(sigma):
    """Constant-window flat parametrix equals the spectral propagator."""
    phase, amp, _ = _kernel_setup(sigma)
    grid = make_grid(1, 512)
    h = 2.0**-4
    u = state_from_values(grid, plane_wave(grid, 17).values
                          + 0.5 * plane_wave(grid, 25).values)
    out = apply_fio(phase, amp, u, h, 0.3)
    ref = propagate(u, flat_operator(grid), sigma, 0.3, h=h)
    np.testing.assert_allclose(out.values, ref.values, atol=1e-12)


def test_apply_fio_zero_time_on_plateau_modes():
    phase, amp, _ = _kernel_setup()
    grid = make_grid(1, 512)
    u = plane_wave(grid, 20)
    out = apply_fio(phase, amp, u, 2.0**-4, 0.0)
    np.testing.assert_allclose(out.values, u.values, atol=1e-13)


def test_apply_fio_is_linear():
    phase, amp, _ = _kernel_setup()
    grid = make_grid(1, 512)
    h = 2.0**-4
    u = plane_wave(grid, 18)
    v = plane_wave(grid, 27)
    w = state_from_values(grid, u.values + 2.0 * v.values)
    lhs = apply_fio(phase, amp, w, h, 0.2).values
    rhs = (apply_fio(phase, amp, u, h, 0.2).values
           + 2.0 * apply_fio(phase, amp, v, h, 0.2).values)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_apply_fio_rejects_unresolved_band():
    phase, amp, _ = _kernel_setup()
    grid = make_grid(1, 64)
    with pytest.raises(ResolutionError):
        apply_fio(phase, amp, plane_wave(grid, 17), 2.0**-4, 0.1)


def test_apply_fio_rejects_out_of_band_energy():
    phase, amp, _ = _kernel_setup()
    grid = make_grid(1, 512)
    u = state_from_values(grid, plane_wave(grid, 17).values
                          + plane_wave(grid, 200).values)
    with pytest.raises(ValueError):
        apply_fio(phase, amp, u, 2.0**-4, 0.1)


def test_apply_fio_rejects_empty_band():
    phase, amp, _ = _kernel_setup()
    grid = make_grid(1, 64)
    with pytest.raises(ValueError):
        apply_fio(phase, amp, plane_wave(grid, 1), 100.0, 0.1)


def test_kernel_matches_quadrature_reference():
    phase, amp, _ = _kernel_setup()
    K = kernel(phase, amp, H_REF, T_REF, np.array([0.0]), np.array([-0.5]))
    np.testing.assert_allclose(K.values[0, 0], K_REF, atol=1e-9)
    assert K.lam == pytest.approx(8.0)


def test_kernel_fixed_point_count():
    phase, amp, _ = _kernel_setup()
    K = kernel(phase, amp, H_REF, T_REF, np.array([0.0]), np.array([-0.5]),
               n_xi=75)
    assert K.n_xi == 75


def test_kernel_resolution_cap():
    phase, amp, _ = _kernel_setup()
    with pytest.raises(ResolutionError):
        kernel(phase, amp, 1e-7, 0.125, np.array([0.0]), np.array([0.0]))


def test_kernel_zero_time_hermitian():
    phase, amp, _ = _kernel_setup()
    g = np.linspace(-1.0, 1.0, 17)
    K = kernel(phase, amp, H_REF, 0.0, g, g)
    gap = np.max(np.abs(K.values - K.values.conj().T))
    assert gap < 1e-8 * K.sup()


def test_kernel_sup_bounded_by_amplitude_mass():
    phase, amp, cut = _kernel_setup()
    xs = np.linspace(0.5, 4.0, 2001)
    mass = 2.0 * np.trapezoid(cut(xs**2), xs)
    bound = mass / (2.0 * np.pi * H_REF)
    sup = kernel_sup(phase, amp, H_REF, T_REF, (-0.5, 0.5), (-2.0, 2.0))
    assert 0.0 < sup <= 1.001 * bound


def test_stationary_phase_prediction_near_kernel_peak():
    phase, amp, _ = _kernel_setup()
    K = kernel(phase, amp, H_REF, T_REF, np.array([0.0]), np.array([-0.5]))
    predicted = stationary_phase_prediction(amp, H_REF, T_REF, 0.0, -0.5)
    assert abs(abs(K.values[0, 0]) - predicted) / predicted < 0.15


def test_stationary_phase_prediction_validation():
    phase, amp, _ = _kernel_setup()
    with pytest.raises(ValueError):
        stationary_phase_prediction(amp, H_REF, T_REF, 0.0, -10.0)
    with pytest.raises(ValueError):
        stationary_phase_prediction(amp, H_REF, 0.0, 0.0, -0.5)


def test_kernel_negligible_beyond_critical_speed():
    phase, amp, _ = _kernel_setup()
    y_far = -c_large(2.0, 4.0) * T_REF - 1.0
    K = kernel(phase, amp, H_REF, T_REF, np.array([0.0]), np.array([y_far]))
    assert abs(K.values[0, 0]) < 1e-4


def test_c_large_closed_form():
    assert c_large(2.0, 4.0) == 17.0
    assert c_large(0.5, 4.0) == pytest.approx(1.5)


@pytest.mark.parametrize("sigma,eta,det", [
    (0.5, 0.7, 0.426867360477),
    (0.5, 1.3, 0.168665003713),
    (2.0, 0.7, 2.0),
    (2.0, 1.3, 2.0),
    (3.0, 0.7, 4.2),
    (3.0, 1.3, 7.8),
])
def test_stationary_hessian_closed_form_1d(sigma, eta, det):
    report = stationary_hessian_check(sigma, eta)
    np.testing.assert_allclose(report["closed_form"], det, rtol=1e-10)
    assert report["gap"] < 1e-6


def test_stationary_hessian_closed_form_2d():
    report = stationary_hessian_check(0.5, [1.2, 0.5])   # |eta| = 1.3
    np.testing.assert_allclose(report["closed_form"], 0.056895766955,
                               rtol=1e-10)
    assert report["gap"] < 1e-5


def test_operator_norm_close_to_unity():
    """Constant-window symbol bounded by 1: the L2 norm sits at the plateau."""
    phase, amp, _ = _kernel_setup()
    grid = make_grid(1, 512)
    est = operator_norm_estimate(phase, amp, H_REF, T_REF, grid)
    assert 0.9 < est < 1.1


def test_dispersive_fit_requires_enough_samples():
    phase, amp, _ = _kernel_setup()
    with pytest.raises(InsufficientDataError):
        dispersive_fit(phase, amp, H_REF, np.linspace(0.1, 0.5, 5))


def test_remainder_decay_order_gap():
    metric = flat_metric(dim=1)
    q0 = fractional_symbol(metric, 2.0, xi_band=(0.2, 4.0))
    cut = make_bump(0.25, 3.8, (0.5, 3.0))
    a_init = localized_amplitude(metric, cut,
                                 window=GaussianWindow(1, center=np.pi, width=0.6))
    x = np.linspace(0.0, 2.0 * np.pi, 9)[:, None]
    xi = np.linspace(0.8, 1.6, 3)[:, None]
    phase = build_phase(q0, [0.0, 0.15], x, xi)
    h_sweep = [2.0**-3, 2.0**-4, 2.0**-5]
    fit1 = remainder_decay(phase, solve_transport(a_init, phase, N=1), h_sweep)
    fit2 = remainder_decay(phase, solve_transport(a_init, phase, N=2), h_sweep)
    assert 0.6 < fit1.slope < 1.4
    assert fit2.slope > 1.5
    assert fit2.slope > fit1.slope
    assert fit2.remainders[-1] < fit1.remainders[-1]


def test_remainder_decay_rejects_curved_metric():
    metric = gaussian_bump_metric(dim=1, epsilon=0.1)
    q0 = fractional_symbol(metric, 2.0, xi_band=(0.3, 3.0))
    a_init = localized_amplitude(metric, make_bump(0.3, 3.0, (0.5, 2.0)))
    phase = build_phase(q0, [0.0, 0.1], np.array([[0.0]]), np.array([[1.0]]))
    amp = solve_transport(a_init, phase)
    with pytest.raises(ValueError):
        remainder_decay(phase, amp, [0.1, 0.05], t=0.1)


def _decay_tables(h, n_t):
    """Flat sigma = 2 tables of the dispersive decay fit at scale h."""
    metric = flat_metric(dim=1)
    q0 = fractional_symbol(metric, 2.0, xi_band=(0.2, 4.0))
    a_init = localized_amplitude(metric, make_bump(0.25, 3.8, (0.5, 3.0)))
    phase = build_phase(q0, np.geomspace(2.0 * h, 1.0, n_t),
                        np.linspace(0.0, 2.0 * np.pi, 9)[:, None],
                        np.linspace(0.8, 1.6, 3)[:, None], dt=0.01)
    return phase, solve_transport(a_init, phase, N=1)


def test_kernel_sup_raises_when_rounds_run_out():
    # two rounds give 9.81 (16 points per span) and 12.59 (31 points, which
    # now include x = y = 0), 28% apart: no estimate to hand back
    h = 2.0**-6
    phase, amp = _decay_tables(h, 10)
    with pytest.raises(ResolutionError, match=r"9\.808\d* and 12\.58"):
        kernel_sup(phase, amp, h, 0.03125, (-0.5, 0.5), (-3.0, 3.0),
                   max_rounds=2, tol=1e-9)


def test_kernel_resolves_cutoff_on_small_window():
    # here the phase barely oscillates across the xi band, so the xi count
    # is set by the floor, which must resolve the cutoff chi(xi^2) itself
    h = 2.0**-5
    phase, amp = _decay_tables(h, 6)
    t, x, y = 0.054, np.array([0.151, -0.016]), np.array([0.314, -0.022, 0.156, -0.007])
    got = kernel(phase, amp, h, t, x, y).values
    ref = kernel(phase, amp, h, t, x, y, n_xi=4001).values
    assert np.max(np.abs(got - ref)) / np.max(np.abs(ref)) < 1e-8


def test_kernel_sup_solves_each_x_node_once(monkeypatch):
    h = 2.0**-6
    phase, amp = _decay_tables(h, 6)
    solved = []
    factors = fio._fio_factors

    def recording(amp, h, t, x_grid, xi_grid):
        solved.append(x_grid[:, 0].copy())
        return factors(amp, h, t, x_grid, xi_grid)

    monkeypatch.setattr(fio, "_fio_factors", recording)
    t, x_span, y_span = 0.0625, (-0.5, 0.5), (-3.0, 3.0)
    sup = kernel_sup(phase, amp, h, t, x_span, y_span)
    nodes = np.sort(np.concatenate(solved))
    n = nodes.size
    assert len(solved) >= 3 and n == 15 * 2 ** (len(solved) - 1) + 1
    np.testing.assert_array_equal(nodes, np.linspace(*x_span, n))
    monkeypatch.undo()
    final = kernel(phase, amp, h, t, np.linspace(*x_span, n), np.linspace(*y_span, n))
    assert abs(sup - final.sup()) <= 1e-13 * final.sup()


def test_kernel_sup_solves_again_when_the_xi_rule_moves(monkeypatch):
    # G = 1 + 0.1 exp(-x^2) peaks at x = 0, which the 16-point span misses and
    # the 31-point span holds, so the second round's xi hull is wider: it
    # solves every x node under its own rule, as a fresh kernel does, bit for
    # bit (the first round's rule moves the sup by 4.4e-14 relative)
    metric = gaussian_bump_metric(dim=1, epsilon=0.1)
    q0 = fractional_symbol(metric, 2.0, xi_band=(0.2, 4.0))
    a_init = localized_amplitude(metric, make_bump(0.3, 3.0, (0.5, 2.0)))
    phase = build_phase(q0, [0.0, 0.1], np.array([[0.0]]), np.array([[1.0]]))
    amp = solve_transport(a_init, phase)
    solved = []
    factors = fio._fio_factors

    def recording(amp, h, t, x_grid, xi_grid):
        solved.append(x_grid.shape[0])
        return factors(amp, h, t, x_grid, xi_grid)

    monkeypatch.setattr(fio, "_fio_factors", recording)
    h, t, x_span, y_span = 2.0**-3, 0.1, (-0.5, 0.5), (-1.0, 1.0)
    sup = kernel_sup(phase, amp, h, t, x_span, y_span, tol=1.0, max_rounds=2)
    assert solved == [16, 31]
    monkeypatch.undo()
    final = kernel(phase, amp, h, t, np.linspace(*x_span, 31), np.linspace(*y_span, 31))
    assert sup == final.sup()
