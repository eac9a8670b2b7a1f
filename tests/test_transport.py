"""Transport amplitudes and the oscillatory composition symbols."""

import numpy as np
import pytest

from fracwkb import hamflow
from fracwkb.hamjac import build_phase
from fracwkb.metric import flat_metric, gaussian_bump_metric, tensor_pairs
from fracwkb.symbols import (GaussianWindow, SymbolFunction, fractional_symbol,
                             localized_amplitude, make_bump)
from fracwkb.transport import (SupportViolationError, amplitude_point_data,
                               compose_symbol_fio_0, compose_symbol_fio_1,
                               compose_symbol_fio_2_flat, solve_transport,
                               transport_residual)

CUT = make_bump(0.3, 3.0, (0.5, 2.0))


def _window():
    return GaussianWindow(1, center=0.0, width=0.8)


def _bump_setup():
    metric = gaussian_bump_metric(dim=1, epsilon=0.1)
    q0 = fractional_symbol(metric, 2.0, xi_band=(0.3, 3.0))
    a_init = localized_amplitude(metric, CUT, window=_window())
    return metric, q0, a_init


def _flat_setup(sigma=2.0):
    metric = flat_metric(dim=1)
    q0 = fractional_symbol(metric, sigma)
    a_init = localized_amplitude(metric, CUT, window=_window())
    return metric, q0, a_init


def _phase(q0, nt=9, nx=9, t_max=0.1):
    x = np.linspace(-1.2, 1.2, nx)[:, None]
    xi = np.linspace(0.9, 1.4, 3)[:, None]
    return build_phase(q0, np.linspace(0.0, t_max, nt), x, xi)


def test_compose0_zero_time_is_pointwise_product():
    _, q0, a_init = _bump_setup()
    pt = build_phase(q0, [0.0], np.array([[0.3]]), np.array([[1.1]]))
    comp = compose_symbol_fio_0(q0, a_init, pt)
    x = np.array([[0.3], [-0.5]])
    xi = np.array([[1.1], [0.9]])
    np.testing.assert_allclose(comp(x, xi), q0(x, xi) * a_init(x, xi),
                               rtol=1e-13)


def test_compose0_unit_symbol_reads_phase_gradient():
    _, q0, _ = _bump_setup()
    pt = build_phase(q0, [0.0, 0.08], np.array([[0.3]]), np.array([[1.1]]))
    one = SymbolFunction(1, lambda pts, cov: np.ones(pts.shape[0]))
    comp = compose_symbol_fio_0(q0, one, pt, t=0.08)
    x = np.array([[0.4]])
    xi = np.array([[1.1]])
    eta = pt.evaluate(0.08, x, xi).grad_x
    np.testing.assert_allclose(comp(x, xi), q0(x, eta), rtol=1e-12)


def test_compose1_flat_matches_closed_form():
    _, q0, a_init = _flat_setup()
    pt = _phase(q0, nt=2, t_max=0.05)
    comp = compose_symbol_fio_1(q0, a_init, pt, t=0.05)
    w = _window()
    x = np.linspace(-0.8, 0.8, 5)[:, None]
    xi = np.full((5, 1), 1.1)
    expected = -1j * 2.0 * xi[:, 0] * w.grad(x)[:, 0] * CUT(xi[:, 0] ** 2)
    np.testing.assert_allclose(comp(x, xi), expected, rtol=0, atol=1e-10)


def test_compose1_flat_x_independent_symbol_vanishes():
    metric, q0, _ = _flat_setup()
    c = localized_amplitude(metric, CUT)      # constant window: no x dependence
    pt = _phase(q0, nt=2, t_max=0.05)
    comp = compose_symbol_fio_1(q0, c, pt, t=0.05)
    x = np.linspace(-0.8, 0.8, 5)[:, None]
    xi = np.full((5, 1), 1.1)
    np.testing.assert_allclose(comp(x, xi), 0.0, rtol=0, atol=1e-10)


def test_compose2_flat_matches_closed_form():
    _, q0, a_init = _flat_setup()
    pt = _phase(q0, nt=2, t_max=0.05)
    comp = compose_symbol_fio_2_flat(q0, a_init, pt, t=0.05)
    w = _window()
    x = np.linspace(-0.8, 0.8, 5)[:, None]
    xi = np.full((5, 1), 1.1)
    expected = -w.hess(x)[:, 0, 0] * CUT(xi[:, 0] ** 2)
    np.testing.assert_allclose(comp(x, xi), expected, rtol=0, atol=1e-8)


def test_compose2_rejects_curved_metric():
    _, q0, a_init = _bump_setup()
    pt = build_phase(q0, [0.0, 0.05], np.array([[0.0]]), np.array([[1.1]]))
    with pytest.raises(ValueError):
        compose_symbol_fio_2_flat(q0, a_init, pt, t=0.05)


def test_amplitude_zero_time_is_initial_data():
    _, q0, a_init = _flat_setup()
    x = np.array([[0.2], [-0.4]])
    xi = np.array([[1.0], [1.2]])
    data = amplitude_point_data(a_init, q0, 0.0, x, xi, order=2)
    np.testing.assert_array_equal(data.a[0], a_init(x, xi).astype(complex))
    np.testing.assert_array_equal(data.a[1], 0.0)
    np.testing.assert_array_equal(data.Y, x)


@pytest.mark.parametrize("sigma", [0.5, 2.0])
def test_flat_leading_amplitude_translates(sigma):
    """Over the flat metric a_0 is the initial symbol read at the base point."""
    _, q0, a_init = _flat_setup(sigma)
    t = 0.12
    x = np.linspace(-0.6, 0.6, 7)[:, None]
    xi = np.full((7, 1), 1.1)
    data = amplitude_point_data(a_init, q0, t, x, xi)
    shifted = x + t * sigma * xi * np.abs(xi) ** (sigma - 2.0)
    np.testing.assert_allclose(data.a[0], a_init(shifted, xi), rtol=0,
                               atol=1e-13)
    np.testing.assert_allclose(data.Y, shifted, rtol=0, atol=1e-13)


def test_bump_transport_residual_is_stencil_limited():
    """Refining the grid must shrink the PDE residual at stencil order."""
    _, q0, a_init = _bump_setup()
    maxima = {}
    for n in (9, 17):
        amp = solve_transport(a_init, _phase(q0, nt=n, nx=n))
        maxima[n] = transport_residual(amp, 0)[1]
    assert maxima[17] < 5e-3
    assert maxima[9] / maxima[17] > 6.0


def test_flat_correction_residual_is_stencil_limited():
    _, q0, a_init = _flat_setup()
    maxima = {}
    for n in (9, 17):
        amp = solve_transport(a_init, _phase(q0, nt=n, nx=n))
        maxima[n] = transport_residual(amp, 1)[1]
    assert maxima[17] < 5e-3
    assert maxima[9] / maxima[17] > 6.0


def test_solve_transport_default_orders():
    _, qf, af = _flat_setup()
    assert solve_transport(af, _phase(qf, nt=3)).order == 2
    _, qb, ab = _bump_setup()
    assert solve_transport(ab, _phase(qb, nt=3)).order == 1


def test_order_validation():
    _, qf, af = _flat_setup()
    ptf = _phase(qf, nt=3)
    with pytest.raises(ValueError):
        solve_transport(af, ptf, N=3)
    with pytest.raises(ValueError):
        solve_transport(af, ptf, N=0)
    q1 = SymbolFunction(1, lambda pts, cov: np.zeros(pts.shape[0]))
    with pytest.raises(ValueError):
        solve_transport(af, ptf, q1=q1, N=2)
    _, qb, ab = _bump_setup()
    with pytest.raises(ValueError):
        solve_transport(ab, _phase(qb, nt=3), N=2)


def test_boundedness_report_contents():
    _, q0, a_init = _flat_setup()
    amp = solve_transport(a_init, _phase(q0, nt=5))
    report = amp.boundedness_report()
    assert set(report) == {0, 1, "V_sup", "f_sup"}
    assert report[0]["sup"] == pytest.approx(np.max(np.abs(amp.values[0])))
    assert report[0]["sup_grad_x"] > 0.0
    assert np.isfinite(report["V_sup"]) and report["f_sup"] < 1e-12


def test_support_report_flat_band():
    metric, _, _ = _flat_setup()
    q0 = fractional_symbol(metric, 2.0)          # no guard: probe freely
    a_init = localized_amplitude(metric, CUT, window=_window())
    x = np.linspace(-1.2, 1.2, 5)[:, None]
    xi = np.array([[0.4], [1.1]])                # p = 0.16 sits below supp cut
    pt = build_phase(q0, np.linspace(0.0, 0.1, 3), x, xi)
    amp = solve_transport(a_init, pt)
    report = amp.support_report(band=CUT.support)
    assert report["n_outside"] == 5
    assert report["outside_max"] == 0.0
    with pytest.raises(ValueError):
        amp.support_report()


def test_characteristic_leaving_band_raises():
    metric = gaussian_bump_metric(dim=1, epsilon=0.1)
    q0 = fractional_symbol(metric, 2.0, xi_band=(1.0, 1.3))
    a_init = localized_amplitude(metric, CUT)
    x = np.array([[0.0]])
    xi = np.array([[1.5]])                       # p = 2.25 outside the band
    pt_ok = build_phase(fractional_symbol(metric, 2.0), [0.0, 0.05], x, xi)
    with pytest.raises(SupportViolationError):
        solve_transport(a_init, pt_ok, q0=q0)


def test_amplitude_table_evaluate_matches_grid():
    """Every table node agrees with a cold-started evaluation (Newton from x)."""
    _, q0, a_init = _bump_setup()
    amp = solve_transport(a_init, _phase(q0, nt=5))
    xp, xip = tensor_pairs(amp.x_grid, amp.xi_grid)
    for k, t in enumerate(amp.t_grid):
        data = amp.evaluate(t, xp, xip)
        np.testing.assert_allclose(data.a[0], amp.values[0, k].ravel(), rtol=0, atol=1e-9)


def test_solve_transport_makes_one_inverse_map_flow_per_time(monkeypatch):
    """The inverse maps start at the table's base points and only verify them.

    t = 0 is on the grid too, where the one flow is the zero-step path.
    """
    _, q0, a_init = _bump_setup()
    pt = build_phase(q0, np.linspace(-0.1, 0.1, 9), np.linspace(-1.2, 1.2, 9)[:, None],
                     np.linspace(0.9, 1.4, 3)[:, None])
    flow_times = []
    integrate_flow = hamflow.integrate_flow

    def counting(H, t, *args, **kwargs):
        flow_times.append(t)
        return integrate_flow(H, t, *args, **kwargs)

    monkeypatch.setattr(hamflow, "integrate_flow", counting)
    solve_transport(a_init, pt)
    assert sorted(flow_times) == sorted(pt.t_grid)


def test_transport_residual_validation():
    _, q0, a_init = _flat_setup()
    amp_short = solve_transport(a_init, _phase(q0, nt=3))
    with pytest.raises(ValueError):
        transport_residual(amp_short)
    amp = solve_transport(a_init, _phase(q0, nt=5))
    with pytest.raises(ValueError):
        transport_residual(amp, j=2)
    xg = np.concatenate([np.linspace(-1.2, 0.0, 4), [0.3, 0.7, 1.2]])[:, None]
    pt = build_phase(q0, np.linspace(0.0, 0.1, 5), xg,
                     np.array([[1.0], [1.2]]))
    with pytest.raises(ValueError):
        transport_residual(solve_transport(a_init, pt))
