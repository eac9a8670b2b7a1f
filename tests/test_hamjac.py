"""Phase construction: generating function, residuals and horizons."""

import numpy as np
import pytest

from fracwkb.hamflow import NEWTON_TOL, integrate_flow
from fracwkb.hamjac import (HorizonError, _simpson, build_phase,
                            caustic_horizon, certify_phase_estimates,
                            hj_residual, phase_point_data,
                            second_time_derivative)
from fracwkb.metric import flat_metric, gaussian_bump_metric, tensor_pairs
from fracwkb.symbols import SymbolFunction, fractional_symbol


def _bump_q0(sigma=2.0, epsilon=0.1):
    metric = gaussian_bump_metric(dim=1, epsilon=epsilon)
    return fractional_symbol(metric, sigma, xi_band=(0.3, 3.0))


def _bump_table(nt=11, sigma=2.0):
    x = np.linspace(-1.5, 1.5, 9)[:, None]
    xi = np.linspace(0.8, 1.6, 3)[:, None]
    return build_phase(_bump_q0(sigma), np.linspace(0.0, 0.1, nt), x, xi)


@pytest.mark.parametrize("sigma", [0.5, 2.0, 3.0])
def test_flat_phase_closed_form(sigma):
    q0 = fractional_symbol(flat_metric(dim=1), sigma)
    x = np.linspace(-1.0, 1.0, 5)[:, None]
    xi = np.array([[0.9], [1.3]])
    pt = build_phase(q0, [0.0, 0.05, 0.1], x, xi)
    for k, t in enumerate(pt.t_grid):
        expected = x * xi.T + t * np.abs(xi.T) ** sigma
        np.testing.assert_allclose(pt.S[k], expected, rtol=0, atol=1e-12)
        np.testing.assert_allclose(pt.hess_xxi[k][..., 0, 0], 1.0,
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(pt.hess_xx[k], 0.0, rtol=0, atol=1e-12)


def test_phase_at_zero_time():
    data = phase_point_data(_bump_q0(), 0.0, np.array([[0.4], [-0.3]]),
                            np.array([[1.1], [0.9]]))
    np.testing.assert_array_equal(data.S, [0.4 * 1.1, -0.3 * 0.9])
    np.testing.assert_array_equal(data.Y, [[0.4], [-0.3]])
    np.testing.assert_array_equal(data.grad_x, [[1.1], [0.9]])
    assert data.hess_asymmetry == 0.0
    np.testing.assert_array_equal(data.rate_integral, 0.0)
    times, _, _, hess = data.trajectory
    np.testing.assert_array_equal(times, [0.0])
    np.testing.assert_array_equal(hess[-1], data.hess_xx)


def test_trajectory_carries_phase_derivatives():
    """(Xi, hess_xx S) at interior nodes match a fresh phase computation there.

    The even nodes are compared: a fresh flow to times[k] takes the same k
    RK4 steps there, so the gap is rounding plus the Newton tolerance.
    """
    q0 = _bump_q0()
    xi = np.full((9, 1), 1.1)
    data = phase_point_data(q0, 0.08, np.linspace(-1.5, 1.5, 9)[:, None], xi)
    times, X, Xi, hess = data.trajectory
    assert len(times) == 9
    np.testing.assert_array_equal(hess[-1], data.hess_xx)
    for k in range(2, len(times) - 1, 2):
        fresh = phase_point_data(q0, times[k], X[k], xi)
        np.testing.assert_allclose(Xi[k], fresh.grad_x, rtol=0, atol=1e-10)
        np.testing.assert_allclose(hess[k], fresh.hess_xx, rtol=0, atol=1e-10)


def test_trajectory_ends_on_x():
    """The trajectory is the flow the Newton iteration accepted.

    t = 0.03 at dt = 0.01 is an odd step count, which the Simpson path
    rounds up to four steps; the Newton iteration runs on that layout, so
    the path ends on x to the Newton tolerance at every point of the
    61 x 9 tensor grid.
    """
    xp, xip = tensor_pairs(np.linspace(-1.5, 1.5, 61)[:, None],
                           np.linspace(0.8, 1.6, 9)[:, None])
    data = phase_point_data(_bump_q0(), 0.03, xp, xip, dt=0.01)
    times, X, _, _ = data.trajectory
    assert times[-1] == 0.03
    np.testing.assert_array_equal(X[0], data.Y)
    assert np.max(np.abs(X[-1] - xp)) <= NEWTON_TOL


def test_trajectory_is_the_backward_flow_of_q0():
    """The characteristics are q0's own flow to -t from the accepted Y,
    node for node, with the trajectory's times running from 0 to t."""
    q0 = _bump_q0()
    x = np.linspace(-1.5, 1.5, 7)[:, None]
    xi = np.linspace(0.8, 1.6, 7)[:, None]
    data = phase_point_data(q0, 0.08, x, xi)
    times, X, Xi, _ = data.trajectory
    path_times, X_ref, Xi_ref, _ = integrate_flow(q0, -0.08, data.Y, xi, len(times) - 1)
    np.testing.assert_array_equal(times, -path_times)
    assert times[0] == 0.0 and times[-1] == 0.08
    np.testing.assert_array_equal(X, X_ref)
    np.testing.assert_array_equal(Xi, Xi_ref)


def test_bump_phase_residual_small():
    pt = _bump_table()
    res, rmax = hj_residual(pt)
    assert rmax < 1e-5
    assert np.isnan(res[0]).all() and np.isnan(res[-1]).all()


def test_residual_rejects_short_grids():
    q0 = _bump_q0()
    x = np.array([[0.0]])
    xi = np.array([[1.0]])
    pt = build_phase(q0, [0.0, 0.05], x, xi)
    with pytest.raises(ValueError):
        hj_residual(pt)


def test_residual_on_nonuniform_grid():
    q0 = _bump_q0()
    pt = build_phase(q0, [0.0, 0.02, 0.05, 0.1], np.array([[0.4]]),
                     np.array([[1.1]]))
    res, rmax = hj_residual(pt)
    assert np.isfinite(rmax)
    assert np.isnan(res[0]).all() and np.isnan(res[-1]).all()


def test_phase_generates_the_flow():
    """S is a generating function: dS/dxi = Y and dS/dx = Xi at time t."""
    q0 = _bump_q0()
    x = np.array([[0.4]])
    data = phase_point_data(q0, 0.08, x, np.array([[1.1]]))
    step = 1e-6

    def S_at(xv, xiv):
        return phase_point_data(q0, 0.08, [[xv]], [[xiv]]).S[0]

    dS_dxi = (S_at(0.4, 1.1 + step) - S_at(0.4, 1.1 - step)) / (2 * step)
    dS_dx = (S_at(0.4 + step, 1.1) - S_at(0.4 - step, 1.1)) / (2 * step)
    np.testing.assert_allclose(dS_dxi, data.Y[0, 0], atol=1e-7)
    np.testing.assert_allclose(dS_dx, data.grad_x[0, 0], atol=1e-7)


def test_phase_hessians_match_differences():
    q0 = _bump_q0()
    data = phase_point_data(q0, 0.08, np.array([[0.4]]), np.array([[1.1]]))
    step = 1e-6

    def grad_at(xv, xiv):
        d = phase_point_data(q0, 0.08, [[xv]], [[xiv]])
        return d.grad_x[0, 0], d.Y[0, 0]

    fd_xx = (grad_at(0.4 + step, 1.1)[0] - grad_at(0.4 - step, 1.1)[0]) / (2 * step)
    fd_xxi = (grad_at(0.4, 1.1 + step)[0] - grad_at(0.4, 1.1 - step)[0]) / (2 * step)
    fd_dy = (grad_at(0.4, 1.1 + step)[1] - grad_at(0.4, 1.1 - step)[1]) / (2 * step)
    np.testing.assert_allclose(fd_xx, data.hess_xx[0, 0, 0], atol=1e-7)
    np.testing.assert_allclose(fd_xxi, data.hess_xxi[0, 0, 0], atol=1e-7)
    np.testing.assert_allclose(fd_dy, data.dY_dxi[0, 0, 0], atol=1e-7)


def test_second_time_derivative_matches_differencing():
    pt = _bump_table(nt=21)
    k = 10
    dt = pt.t_grid[1] - pt.t_grid[0]
    stencil = (-pt.S[k + 2] + 16 * pt.S[k + 1] - 30 * pt.S[k]
               + 16 * pt.S[k - 1] - pt.S[k - 2]) / (12 * dt**2)
    np.testing.assert_allclose(second_time_derivative(pt, k=k), stencil,
                               atol=1e-4)


def test_caustic_horizon_flat_is_grid_maximum():
    q0 = fractional_symbol(flat_metric(dim=1), 2.0)
    pt = build_phase(q0, [0.0, 0.05, 0.1], np.array([[0.0]]), np.array([[1.0]]))
    assert caustic_horizon(pt) == 0.1
    assert pt.t0 == 0.1


def test_caustic_horizon_zero_only_grid():
    q0 = _bump_q0()
    pt = build_phase(q0, [0.0], np.array([[0.0]]), np.array([[1.0]]))
    assert caustic_horizon(pt) == 0.0


def test_caustic_horizon_threshold_ordering():
    pt = _bump_table()
    assert caustic_horizon(pt, threshold=0.5) == 0.1
    tight = caustic_horizon(pt, threshold=0.01, strict=False)
    assert 0.0 < tight < 0.1


def test_caustic_horizon_strict_raises():
    pt = _bump_table()
    with pytest.raises(HorizonError):
        caustic_horizon(pt, threshold=1e-6)


def test_certify_flat_quadratic_constant_vanishes():
    q0 = fractional_symbol(flat_metric(dim=1), 2.0)
    x = np.linspace(-1.0, 1.0, 5)[:, None]
    xi = np.array([[0.9], [1.3]])
    pt = build_phase(q0, [0.0, 0.05, 0.1], x, xi)
    report = certify_phase_estimates(pt)
    assert report.C2 < 1e-9
    assert report.C1 > 0.0


def test_certify_bump_constants_stable_under_refinement():
    report_a = certify_phase_estimates(_bump_table(nt=11))
    report_b = certify_phase_estimates(_bump_table(nt=21))
    assert report_a.C2 > 0.0
    np.testing.assert_allclose(report_a.C2, report_b.C2, rtol=1e-6)
    assert set(report_a.by_order) == {"value/|t|", "grad_x/|t|", "grad_xi/|t|"}


def test_phase_table_t_index():
    pt = _bump_table()
    assert pt.t_index(0.1) == 10
    assert pt.t_index(0.0) == 0
    with pytest.raises(ValueError):
        pt.t_index(0.033)


def test_phase_table_evaluate_matches_grid():
    pt = _bump_table()
    data = pt.evaluate(0.08, pt.x_grid[3], pt.xi_grid[1])
    k = pt.t_index(0.08)
    np.testing.assert_allclose(data.S[0], pt.S[k, 3, 1], atol=1e-9)
    np.testing.assert_allclose(data.Y[0], pt.Y[k, 3, 1], atol=1e-9)


def test_phase_table_entries_are_the_pointwise_pass():
    # on the 0.01 grid each step count holds four times of both signs
    # (+-0.01 and +-0.02 take 2 steps), which the table solves as one batch;
    # every entry is still what evaluate computes at its own time
    pt = build_phase(_bump_q0(), np.linspace(-0.2, 0.2, 41),
                     np.linspace(-1.5, 1.5, 13)[:, None], np.linspace(0.8, 1.6, 5)[:, None])
    xp, xip = tensor_pairs(pt.x_grid, pt.xi_grid)
    for k, t in enumerate(pt.t_grid):
        data = pt.evaluate(t, xp, xip)
        for name in ("S", "Y", "grad_x", "hess_xx", "hess_xxi", "rate", "rate_integral"):
            np.testing.assert_array_equal(getattr(data, name).ravel(),
                                          getattr(pt, name)[k].ravel(), err_msg=name)


def test_phase_table_solves_each_step_count_once(monkeypatch):
    # the benchmark's bump grid: 41 times in 10 step counts and t = 0
    from fracwkb import hamjac

    times_per_call = []
    solve = hamjac.inverse_map

    def counting(H, t, *args):
        times_per_call.append(np.unique(t).size)
        return solve(H, t, *args)

    monkeypatch.setattr(hamjac, "inverse_map", counting)
    build_phase(_bump_q0(), np.linspace(-0.2, 0.2, 41), np.linspace(-1.5, 1.5, 61)[:, None],
                np.linspace(0.8, 1.6, 9)[:, None], dt=0.01)
    assert sorted(times_per_call) == [1] + [4] * 10


@pytest.mark.parametrize("dt", [0.0, -0.01, np.nan])
def test_phase_table_rejects_a_step_that_is_not_positive_and_finite(dt):
    for q0 in (_bump_q0(), fractional_symbol(flat_metric(dim=1), 2.0)):
        for t_grid in ([0.0, 0.05, 0.1], [0.0]):
            with pytest.raises(ValueError, match="dt must be positive and finite"):
                build_phase(q0, t_grid, [[0.2]], [[1.0]], dt=dt)


def test_phase_pass_keeps_t_zero_apart():
    with pytest.raises(ValueError, match="t = 0"):
        phase_point_data(_bump_q0(), np.array([0.0, 0.05]), [[0.2], [0.3]], [[1.0], [1.1]])


@pytest.mark.parametrize("dt", [0.0, -0.01, np.nan, np.inf])
def test_phase_pass_rejects_a_step_that_is_not_positive_and_finite(dt):
    for q0 in (_bump_q0(), fractional_symbol(flat_metric(dim=1), 2.0)):
        with pytest.raises(ValueError, match="dt"):
            phase_point_data(q0, 0.05, [[0.2]], [[1.0]], dt=dt)


def test_phase_table_rate_matches_grid():
    """The a_0 transport rate tables agree with a fresh pass at an interior node."""
    pt = _bump_table()
    data = pt.evaluate(0.08, pt.x_grid[3], pt.xi_grid[1])
    k = pt.t_index(0.08)
    assert abs(pt.rate_integral[k, 3, 1]) > 1e-4
    np.testing.assert_allclose(data.rate[0], pt.rate[k, 3, 1], rtol=0, atol=1e-9)
    np.testing.assert_allclose(data.rate_integral[0], pt.rate_integral[k, 3, 1],
                               rtol=0, atol=1e-9)


def test_mixed_hessian_asymmetry_negligible():
    pt = _bump_table()
    assert pt.hess_asymmetry < 1e-8


@pytest.mark.parametrize("n_nodes", [1, 3, 21])
@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("trailing", [(4,), (3, 2)])
def test_simpson_matches_scipy(n_nodes, sign, dtype, trailing):
    """The phase pass's Simpson rule is scipy's, bit for bit, in both time
    directions; with node times given per point, each column is scipy's rule
    on its own non-uniform times."""
    integrate = pytest.importorskip("scipy.integrate")
    rng = np.random.default_rng(n_nodes)
    x = sign * np.linspace(0.0, 0.37, n_nodes)
    y = rng.normal(size=(n_nodes,) + trailing).astype(dtype)
    if dtype is complex:
        y += 1j * rng.normal(size=y.shape)
    got = _simpson(y, x)
    want = integrate.simpson(y, x=x, axis=0)
    assert got.dtype == want.dtype and got.shape == want.shape
    np.testing.assert_array_equal(got, want)

    steps = rng.uniform(0.01, 0.05, size=(n_nodes - 1, trailing[0]))
    x = sign * np.concatenate([np.zeros((1, trailing[0])), np.cumsum(steps, axis=0)])
    got = _simpson(y, x)
    assert got.dtype == y.dtype and got.shape == trailing
    for j in range(trailing[0]):
        # scipy on the whole batch with column j's times, so both sum the same way
        np.testing.assert_array_equal(got[j], integrate.simpson(y, x=x[:, j], axis=0)[j])


@pytest.mark.parametrize("sigma", [0.5, 2.0])
def test_flat_phase_pass_flows_each_point_once(sigma, monkeypatch):
    # one flat characteristic is two RK4 steps; a second Newton flow per
    # point would double the point steps
    from fracwkb import hamflow

    q0 = fractional_symbol(flat_metric(dim=1), sigma, xi_band=(0.2, 4.0))
    x, xi = tensor_pairs(np.linspace(0.0, 2.0 * np.pi, 9)[:, None],
                         np.array([[-1.6], [-0.8], [0.9], [1.7]]))
    point_steps = []
    step = hamflow._rk4_step

    def counting(H, X, Xi, Z, h):
        point_steps.append(X.shape[0])
        return step(H, X, Xi, Z, h)

    monkeypatch.setattr(hamflow, "_rk4_step", counting)
    for t in (0.3, -0.7):
        point_steps.clear()
        phase_point_data(q0, t, x, xi)
        assert sum(point_steps) == 2 * x.shape[0]


def test_phase_pass_evaluates_q0_when_its_jet_has_no_value():
    q0 = _bump_q0()
    bare = SymbolFunction(1, q0, jet=lambda x, xi: q0.jet(x, xi)[:5] + (None, None),
                          xi_band=q0.xi_band)
    bare.metric = q0.metric
    x, xi = tensor_pairs(np.linspace(-1.0, 1.0, 5)[:, None], np.array([[0.8], [1.4]]))
    got = phase_point_data(bare, 0.05, x, xi)
    want = phase_point_data(q0, 0.05, x, xi)
    for name in ("S", "Y", "rate_integral"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
