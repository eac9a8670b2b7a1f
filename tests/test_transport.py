"""Transport amplitudes along the phase table's characteristics."""

import dataclasses

import numpy as np
import pytest

from fracwkb import hamflow, hamjac
from fracwkb.hamflow import GuardBandError
from fracwkb.hamjac import build_phase
from fracwkb.metric import flat_metric, gaussian_bump_metric, tensor_pairs
from fracwkb.symbols import GaussianWindow, fractional_symbol, localized_amplitude, make_bump
from fracwkb.transport import amplitude_point_data, solve_transport

import arclength_oracle

CUT = make_bump(0.3, 3.0, (0.5, 2.0))
EPS = 0.1


def _window():
    return GaussianWindow(1, center=0.0, width=0.8)


def _bump_setup(sigma=2.0):
    metric = gaussian_bump_metric(dim=1, epsilon=EPS)
    q0 = fractional_symbol(metric, sigma, xi_band=(0.3, 3.0))
    a_init = localized_amplitude(metric, CUT, window=_window())
    return metric, q0, a_init


def _flat_setup(sigma=2.0):
    metric = flat_metric(dim=1)
    q0 = fractional_symbol(metric, sigma)
    a_init = localized_amplitude(metric, CUT, window=_window())
    return metric, q0, a_init


def _phase(q0, nt):
    x = np.linspace(-1.2, 1.2, 9)[:, None]
    xi = np.linspace(0.9, 1.4, 3)[:, None]
    return build_phase(q0, np.linspace(0.0, 0.1, nt), x, xi)


def _signed_phase(q0):
    """A phase table over both signs of t and of xi."""
    return build_phase(q0, np.linspace(-0.5, 1.0, 7), np.linspace(-1.5, 1.5, 9)[:, None],
                       np.array([[-1.4], [-0.9], [0.9], [1.4]]))


def test_amplitude_zero_time_is_initial_data():
    _, q0, a_init = _flat_setup()
    x = np.array([[0.2], [-0.4]])
    xi = np.array([[1.0], [1.2]])
    data = amplitude_point_data(a_init, q0, 0.0, x, xi, order=2)
    np.testing.assert_array_equal(data.a[0], a_init(x, xi).astype(complex))
    np.testing.assert_array_equal(data.a[1], 0.0)
    np.testing.assert_array_equal(data.Y, x)


def test_zero_time_skips_the_zero_weight_correction_source(monkeypatch):
    """a_1 = t times its source at (Y, xi), so t = 0 does not evaluate it."""
    _, q0, a_init = _flat_setup()
    calls = []
    hess_xx = a_init.hess_xx
    monkeypatch.setattr(a_init, "hess_xx", lambda *args: calls.append(1) or hess_xx(*args))
    x, xi = np.array([[0.2]]), np.array([[1.0]])
    assert amplitude_point_data(a_init, q0, 0.0, x, xi, order=2).a[1, 0] == 0.0
    assert not calls
    amplitude_point_data(a_init, q0, 0.05, x, xi, order=2)
    assert calls


@pytest.mark.parametrize("setup", [_flat_setup, _bump_setup], ids=["flat", "bump"])
def test_zero_time_evaluates_one_symbol_jet(setup, monkeypatch):
    """The action and the transport rate share the phase pass's one jet of q0."""
    _, q0, a_init = setup()
    calls = []
    jet = q0._jet
    monkeypatch.setattr(q0, "_jet", lambda *args: calls.append(1) or jet(*args))
    x, xi = np.array([[0.2], [-0.4]]), np.array([[1.0], [1.2]])
    amplitude_point_data(a_init, q0, 0.0, x, xi, order=1)
    assert len(calls) == 1


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


def _oracle_amplitude(a_init, sigma, t, x, xi):
    """The arclength oracle's int_0^t f and a_0 = a_init(Y, xi) exp(int_0^t f)
    at 1-D arrays x, xi on the EPS bump."""
    Y, integral = arclength_oracle.rate_integral(EPS, sigma, t, x, xi)
    return integral, a_init(Y[:, None], xi[:, None]) * np.exp(integral)


def _oracle_draw(seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-2.0, 2.0, 20)
    xi = rng.uniform(0.6, 1.8, 20) * rng.choice([-1.0, 1.0], 20)
    return x, xi


# max |pass - arclength oracle| of int_0^t f and of a_0 on the EPS bump at the
# default dt, measured worst over 30 seeds of `_oracle_draw` and the four
# times below: sigma = 2 is RK4 truncation (3.5e-9 and 1.7e-9), sigma = 0.5
# the Newton floor (1.9e-12 and 7.2e-12, a_0's through a_init's slope at Y)
AMPLITUDE_ORACLE_TOLS = {2.0: (5e-9, 2.5e-9), 0.5: (3e-12, 1e-11)}


@pytest.mark.parametrize("t", [0.1, 0.5, -0.5, 1.0])
@pytest.mark.parametrize("sigma", sorted(AMPLITUDE_ORACLE_TOLS))
def test_bump_leading_amplitude_matches_the_arclength_oracle(sigma, t):
    metric, _, a_init = _bump_setup()
    q0 = fractional_symbol(metric, sigma)
    x, xi = _oracle_draw()
    data = amplitude_point_data(a_init, q0, t, x[:, None], xi[:, None])
    integral, a0 = _oracle_amplitude(a_init, sigma, t, x, xi)
    tol_integral, tol_a0 = AMPLITUDE_ORACLE_TOLS[sigma]
    np.testing.assert_allclose(data.rate_integral, integral, rtol=0, atol=tol_integral)
    np.testing.assert_allclose(data.a[0], a0, rtol=0, atol=tol_a0)
    assert np.count_nonzero(a0) >= 10


@pytest.mark.parametrize("t", [0.5, -0.5, 1.0])
def test_bump_rate_integral_is_fourth_order_in_dt(t):
    """Quartering dt shrinks the sigma = 2 oracle gap of int_0^t f by about
    4^4 = 256 (measured 254-269 over 30 seeds); at least 100-fold is asserted."""
    metric, _, a_init = _bump_setup()
    q0 = fractional_symbol(metric, 2.0)
    x, xi = _oracle_draw()
    integral = _oracle_amplitude(a_init, 2.0, t, x, xi)[0]
    gaps = [np.max(np.abs(amplitude_point_data(a_init, q0, t, x[:, None], xi[:, None],
                                               dt=dt).rate_integral - integral))
            for dt in (0.01, 0.0025)]
    assert gaps[0] > 100.0 * gaps[1], gaps


@pytest.mark.parametrize("sigma", sorted(AMPLITUDE_ORACLE_TOLS))
def test_bump_transport_table_matches_the_arclength_oracle(sigma):
    """Every node of a solve_transport table, both signs of t, is the
    oracle's a_0 and int_0^t f to the point pass's tolerances."""
    _, q0, a_init = _bump_setup(sigma)
    amp = solve_transport(a_init, _signed_phase(q0))
    xp, xip = tensor_pairs(amp.x_grid, amp.xi_grid)
    tol_integral, tol_a0 = AMPLITUDE_ORACLE_TOLS[sigma]
    for k, t in enumerate(amp.t_grid):
        integral, a0 = _oracle_amplitude(a_init, sigma, t, xp[:, 0], xip[:, 0])
        np.testing.assert_allclose(amp.rate_integral[k].ravel(), integral,
                                   rtol=0, atol=tol_integral)
        np.testing.assert_allclose(amp.values[0, k].ravel(), a0, rtol=0, atol=tol_a0)
    assert np.all(amp.values[0] != 0.0)


@pytest.mark.parametrize("sigma", [0.5, 2.0])
def test_flat_correction_matches_its_closed_form(sigma):
    """a_1 = -(i t / 2) sigma (sigma - 1) |xi|^{sigma-2} w''(Y) cut(xi^2), with
    the Gaussian window's w''(y) = (y^2 / s^2 - 1) / s^2 w(y), s its width;
    measured gap 2.2e-16."""
    _, q0, a_init = _flat_setup(sigma)
    amp = solve_transport(a_init, _signed_phase(q0))
    assert amp.order == 2
    xp, xip = tensor_pairs(amp.x_grid, amp.xi_grid)
    x, xi = xp[:, 0], xip[:, 0]
    s = _window().width
    for k, t in enumerate(amp.t_grid):
        Y = x + t * sigma * xi * np.abs(xi) ** (sigma - 2.0)
        w2 = (Y**2 / s**2 - 1.0) / s**2 * np.exp(-0.5 * Y**2 / s**2)
        a1 = -0.5j * t * sigma * (sigma - 1.0) * np.abs(xi) ** (sigma - 2.0) * w2 * CUT(xi**2)
        np.testing.assert_allclose(amp.values[1, k].ravel(), a1, rtol=0, atol=1e-15)
    assert np.max(np.abs(amp.values[1])) > 0.1


def test_amplitude_table_is_the_phase_table_with_amplitudes():
    """Every field of the phase table is shared, not copied; V and f are not stored."""
    _, q0, a_init = _bump_setup()
    pt = _phase(q0, nt=3)
    amp = solve_transport(a_init, pt)
    assert isinstance(amp, hamjac.PhaseTable)
    for f in dataclasses.fields(hamjac.PhaseTable):
        assert getattr(amp, f.name) is getattr(pt, f.name), f.name
    assert not hasattr(amp, "V") and not hasattr(amp, "f")
    data = amp.evaluate(0.05, amp.x_grid, amp.xi_grid[:1])
    assert isinstance(data, hamjac.PhasePointData)
    assert [f.name for f in dataclasses.fields(data)][-1] == "a"


def test_solve_transport_default_orders():
    _, qf, af = _flat_setup()
    assert solve_transport(af, _phase(qf, nt=3)).order == 2
    _, qb, ab = _bump_setup()
    assert solve_transport(ab, _phase(qb, nt=3)).order == 1


def test_order_is_the_number_of_amplitude_tables():
    _, qf, af = _flat_setup()
    amp = solve_transport(af, _phase(qf, nt=3), N=1)
    assert amp.order == amp.values.shape[0] == 1
    with pytest.raises(TypeError):
        dataclasses.replace(amp, order=2)


def test_order_validation():
    _, qf, af = _flat_setup()
    ptf = _phase(qf, nt=3)
    with pytest.raises(ValueError):
        solve_transport(af, ptf, N=3)
    with pytest.raises(ValueError):
        solve_transport(af, ptf, N=0)
    _, qb, ab = _bump_setup()
    with pytest.raises(ValueError):
        solve_transport(ab, _phase(qb, nt=3), N=2)


def test_support_report_flat_band():
    metric, _, _ = _flat_setup()
    q0 = fractional_symbol(metric, 2.0)          # no guard: probe freely
    a_init = localized_amplitude(metric, CUT, window=_window())
    x = np.linspace(-1.2, 1.2, 5)[:, None]
    xi = np.array([[0.4], [1.1]])                # p = 0.16 sits below supp cut
    pt = build_phase(q0, np.linspace(0.0, 0.1, 3), x, xi)
    amp = solve_transport(a_init, pt)
    # every amplitude vanishes exactly on the xi = 0.4 column, off supp cut
    assert amp.values.shape == (2, 3, 5, 2)
    np.testing.assert_array_equal(amp.values[:, :, :, 0], 0.0)


def test_characteristic_leaving_band_raises():
    metric = gaussian_bump_metric(dim=1, epsilon=0.1)
    q0 = fractional_symbol(metric, 2.0, xi_band=(1.0, 1.3))
    a_init = localized_amplitude(metric, CUT)
    x = np.array([[0.0]])
    xi = np.array([[1.5]])                       # p = 2.25 outside the band
    amplitude_point_data(a_init, fractional_symbol(metric, 2.0), 0.05, x, xi)
    with pytest.raises(GuardBandError):
        amplitude_point_data(a_init, q0, 0.05, x, xi)


def test_amplitude_table_evaluate_matches_grid():
    """Every table node agrees with a fresh evaluation on the same batch.

    The flat table has N = 2, so a_1 is checked at every node too.
    """
    for setup in (_bump_setup, _flat_setup):
        _, q0, a_init = setup()
        amp = solve_transport(a_init, _phase(q0, nt=5))
        xp, xip = tensor_pairs(amp.x_grid, amp.xi_grid)
        for k, t in enumerate(amp.t_grid):
            data = amp.evaluate(t, xp, xip)
            for j in range(amp.order):
                np.testing.assert_allclose(data.a[j], amp.values[j, k].ravel(),
                                           rtol=0, atol=1e-9)


def test_solve_transport_makes_no_flow(monkeypatch):
    """The amplitudes are read off the phase table: no inverse map, no flow."""
    _, q0, a_init = _bump_setup()
    pt = build_phase(q0, np.linspace(-0.1, 0.1, 9), np.linspace(-1.2, 1.2, 9)[:, None],
                     np.linspace(0.9, 1.4, 3)[:, None])
    calls = []
    monkeypatch.setattr(hamflow, "integrate_flow", lambda *args: calls.append("flow"))
    monkeypatch.setattr(hamjac, "inverse_map", lambda *args, **kw: calls.append("inverse"))
    amp = solve_transport(a_init, pt)
    assert calls == []
    assert np.all(np.abs(amp.values[0]) > 0.0)

