"""Phase construction: generating function, residuals and horizons."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from fracwkb import hamjac
from fracwkb.hamflow import DT_DEFAULT, NEWTON_TOL, integrate_flow, inverse_map
from fracwkb.hamjac import (HorizonError, build_phase,
                            caustic_horizon, certify_phase_estimates,
                            hj_residual, phase_point_data)
from fracwkb.metric import flat_metric, gaussian_bump_metric, tensor_pairs
from fracwkb.symbols import fractional_symbol

import arclength_oracle


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


def test_trajectory_ends_on_x():
    """The pass reads the flow the Newton iteration accepted on its own layout.

    t = 0.03 at dt = 0.01 is an odd step count, which the Simpson sums
    round up to four steps; the Newton iteration runs on that layout, so
    the flow from the pass's Y to -t in four steps ends on x to the Newton
    tolerance at every point of the 61 x 9 tensor grid.
    """
    q0 = _bump_q0()
    xp, xip = tensor_pairs(np.linspace(-1.5, 1.5, 61)[:, None],
                           np.linspace(0.8, 1.6, 9)[:, None])
    data = phase_point_data(q0, 0.03, xp, xip, dt=0.01)
    n_steps = hamjac._step_count(q0, 0.03, 0.01)
    assert n_steps == 4
    Y, end = inverse_map(q0, -0.03, xp, xip, n_steps)
    np.testing.assert_array_equal(Y, data.Y)
    np.testing.assert_array_equal(integrate_flow(q0, -0.03, data.Y, xip, 4).X, end.X)
    assert np.max(np.abs(end.X - xp)) <= NEWTON_TOL


def test_trajectory_is_the_backward_flow_of_q0():
    """The characteristics are q0's own flow to -t from the pass's Y: the
    pass reads the end and both integrals off that flow, the rate's with
    its sign turned so that it runs from 0 to t."""
    q0 = _bump_q0()
    x = np.linspace(-1.5, 1.5, 7)[:, None]
    xi = np.linspace(0.8, 1.6, 7)[:, None]
    data = phase_point_data(q0, 0.08, x, xi)
    n_steps = hamjac._step_count(q0, 0.08, DT_DEFAULT)
    Y, end = inverse_map(q0, -0.08, x, xi, n_steps)
    np.testing.assert_array_equal(Y, data.Y)
    ref = integrate_flow(q0, -0.08, data.Y, xi, n_steps)
    for got, want in zip(end, ref):
        np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(ref.Xi, data.grad_x)
    np.testing.assert_array_equal(data.S, np.sum(data.Y * xi, axis=1) + ref.action)
    np.testing.assert_array_equal(data.rate_integral, -ref.rate_integral)


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
    # five nodes, so the error is the spacing's and not the node count's
    q0 = _bump_q0()
    pt = build_phase(q0, [0.0, 0.02, 0.05, 0.07, 0.1], np.array([[0.4]]),
                     np.array([[1.1]]))
    with pytest.raises(ValueError, match="t grid must be uniform"):
        hj_residual(pt)


def test_residual_rejects_a_zero_time_step():
    pt = build_phase(_bump_q0(), [0.05] * 5, np.array([[0.4]]), np.array([[1.1]]))
    with pytest.raises(ValueError, match="nonzero step"):
        hj_residual(pt)


@pytest.mark.parametrize("t_max", [1e-8, 1e-300])
def test_residual_is_nan_at_a_step_that_rounding_does_not_resolve(t_max):
    """The constants' floor applies to the stencil's step: at 1e-8 the
    difference read rounding over dt = 5e-9 (8.97e-8), at 1e-300 it read
    2.96e+284; the 1e-4 grid's step is resolved and reads 9.6e-12."""
    x, xi = np.linspace(-1.5, 1.5, 31)[:, None], np.linspace(0.8, 1.6, 5)[:, None]
    res, rmax = hj_residual(build_phase(_bump_q0(), np.linspace(-t_max, t_max, 5), x, xi))
    assert np.isnan(rmax) and np.isnan(res).all()
    _, rmax = hj_residual(build_phase(_bump_q0(), np.linspace(-1e-4, 1e-4, 5), x, xi))
    assert rmax < 1e-10


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


# max |phase pass - arclength oracle| on the eps = 0.1 bump at the default dt,
# for Y, S, grad_x S, dY/dxi and dY/dx; measured worst over 30 seeds of the
# draw below: sigma = 2 is RK4 truncation (7.8e-10, 1.6e-9, 5.2e-10, 2.4e-9
# and 1.7e-9, falling to about 1e-11 at dt = 0.0025), sigma = 0.5 the Newton
# floor (9.9e-12, 1.6e-11, 2.9e-13, 6.4e-13 and 6.1e-13)
ORACLE_TOLS = {2.0: (1e-9, 2.5e-9, 1e-9, 3e-9, 2.5e-9),
               0.5: (2e-11, 3e-11, 1e-12, 1e-12, 1e-12)}


@pytest.mark.parametrize("t", [0.1, 0.5, -0.5, 1.0])
@pytest.mark.parametrize("sigma", sorted(ORACLE_TOLS))
def test_bump_phase_pass_matches_the_arclength_oracle(sigma, t):
    eps = 0.1
    q0 = fractional_symbol(gaussian_bump_metric(dim=1, epsilon=eps), sigma)
    rng = np.random.default_rng(0)
    x = rng.uniform(-2.0, 2.0, 20)
    xi = rng.uniform(0.6, 1.8, 20) * rng.choice([-1.0, 1.0], 20)
    data = phase_point_data(q0, t, x[:, None], xi[:, None])
    exact = arclength_oracle.phase(eps, sigma, t, x, xi)
    got = (data.Y[:, 0], data.S, data.grad_x[:, 0], data.dY_dxi[:, 0, 0],
           data.hess_xxi[:, 0, 0])
    for name, g, e, tol in zip(("Y", "S", "grad_x", "dY_dxi", "dY_dx"), got, exact,
                               ORACLE_TOLS[sigma]):
        np.testing.assert_allclose(g, e, rtol=0, atol=tol, err_msg=name)


def test_caustic_horizon_flat_is_grid_maximum():
    q0 = fractional_symbol(flat_metric(dim=1), 2.0)
    pt = build_phase(q0, [0.0, 0.05, 0.1], np.array([[0.0]]), np.array([[1.0]]))
    assert caustic_horizon(pt) == 0.1


def test_flat_phase_table_in_two_dimensions(monkeypatch):
    # d = 2 runs the general-d branches: _stage's A @ Z, principal_jet's
    # einsums and solve_blocks's LAPACK solve
    solves = []
    lapack = np.linalg.solve

    def recording(M, B):
        solves.append(M.shape)
        return lapack(M, B)

    monkeypatch.setattr(np.linalg, "solve", recording)
    q0 = fractional_symbol(flat_metric(dim=2), 2.0, xi_band=(0.2, 4.0))
    x = np.array([[0.0, 0.0], [0.5, -0.3], [-1.0, 0.7]])
    xi = np.array([[1.0, 0.0], [0.6, -0.8], [0.9, 0.9], [-1.2, 0.4]])
    t = np.array([0.0, 0.05, -0.1, 0.2])
    pt = build_phase(q0, t, x, xi)
    assert solves and all(shape[-2:] == (2, 2) for shape in solves)
    # S = x . xi + t |xi|^sigma, Y = grad_xi S = x + 2 t xi, grad_x S = xi
    exact = (x @ xi.T)[None] + t[:, None, None] * np.sum(xi**2, axis=1)
    assert np.max(np.abs(pt.S - exact)) < 1e-15
    np.testing.assert_allclose(pt.Y, x[None, :, None] + 2.0 * t[:, None, None, None] * xi,
                               rtol=0, atol=1e-15)
    np.testing.assert_allclose(pt.grad_x, np.broadcast_to(xi, pt.grad_x.shape), rtol=0,
                               atol=1e-15)
    np.testing.assert_allclose(pt.hess_xxi, np.broadcast_to(np.eye(2), pt.hess_xxi.shape),
                               rtol=0, atol=1e-15)


def test_caustic_horizon_zero_only_grid():
    q0 = _bump_q0()
    pt = build_phase(q0, [0.0], np.array([[0.0]]), np.array([[1.0]]))
    assert caustic_horizon(pt) == 0.0


def test_caustic_horizon_threshold_ordering(monkeypatch):
    pt = _bump_table()
    assert hamjac.HORIZON_THRESHOLD == 0.5
    assert caustic_horizon(pt) == 0.1
    monkeypatch.setattr(hamjac, "HORIZON_THRESHOLD", 0.01)
    tight = caustic_horizon(pt)
    assert 0.0 < tight < 0.1


def test_caustic_horizon_strict_raises(monkeypatch):
    pt = _bump_table()
    monkeypatch.setattr(hamjac, "HORIZON_THRESHOLD", 1e-6)
    with pytest.raises(HorizonError):
        caustic_horizon(pt)


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


@pytest.mark.parametrize("t_max", [1e-8, 1e-300])
def test_certify_skips_times_whose_increment_rounding_hides(t_max):
    """|t| sup q0 is below 2^36 ulps of max |x xi| at every nonzero time, so
    no time is fitted (unfiltered, C2 read 16.6 at 1e-8 and inf at 1e-300)."""
    ts = np.linspace(-t_max, t_max, 5)
    x, xi = np.linspace(-1.5, 1.5, 9)[:, None], np.linspace(0.8, 1.6, 3)[:, None]
    report = certify_phase_estimates(build_phase(_bump_q0(2.0), ts, x, xi))
    assert report.skipped_times == tuple(float(t) for t in ts if t != 0.0)
    assert np.isnan(report.C1) and np.isnan(report.C2)


def test_certify_fits_the_resolved_times_only():
    x, xi = np.linspace(-1.5, 1.5, 9)[:, None], np.linspace(0.8, 1.6, 3)[:, None]
    mixed = certify_phase_estimates(build_phase(_bump_q0(2.0), [0.0, 1e-8, 0.05, 0.1], x, xi))
    resolved = certify_phase_estimates(build_phase(_bump_q0(2.0), [0.05, 0.1], x, xi))
    assert mixed.skipped_times == (1e-8,) and resolved.skipped_times == ()
    assert (mixed.C1, mixed.C2) == (resolved.C1, resolved.C2)


def test_phase_table_evaluate_matches_grid():
    pt = _bump_table()
    k = 8
    assert pt.t_grid[k] == 0.08
    data = phase_point_data(pt.q0, 0.08, pt.x_grid[3], pt.xi_grid[1], dt=pt.dt)
    np.testing.assert_allclose(data.S[0], pt.S[k, 3, 1], atol=1e-9)
    np.testing.assert_allclose(data.Y[0], pt.Y[k, 3, 1], atol=1e-9)


def test_phase_table_entries_are_the_pointwise_pass():
    # on the 0.01 grid each step count holds four times of both signs
    # (+-0.01 and +-0.02 take 2 steps, and t = 0 with them), which the table
    # solves as one batch;
    # every entry is still what phase_point_data computes at its own time
    pt = build_phase(_bump_q0(), np.linspace(-0.2, 0.2, 41),
                     np.linspace(-1.5, 1.5, 13)[:, None], np.linspace(0.8, 1.6, 5)[:, None])
    xp, xip = tensor_pairs(pt.x_grid, pt.xi_grid)
    names = [f.name for f in dataclasses.fields(hamjac.PhasePointData)
             if f.name != "hess_asymmetry"]
    assert "dY_dxi" in names and len(names) == 7
    worst = 0.0
    for k, t in enumerate(pt.t_grid):
        data = phase_point_data(pt.q0, t, xp, xip, dt=pt.dt)
        for name in names:
            np.testing.assert_array_equal(getattr(data, name).ravel(),
                                          getattr(pt, name)[k].ravel(), err_msg=name)
        worst = max(worst, data.hess_asymmetry)
    assert pt.hess_asymmetry == worst


def test_phase_table_solves_each_step_count_once(monkeypatch):
    # the benchmark's bump grid: 41 times in 10 step counts, t = 0 in the
    # two-step group with +-0.01 and +-0.02
    from fracwkb import hamjac

    times_per_call = []
    solve = hamjac.inverse_map

    def counting(H, t, *args):
        times_per_call.append(np.unique(t).size)
        return solve(H, t, *args)

    monkeypatch.setattr(hamjac, "inverse_map", counting)
    build_phase(_bump_q0(), np.linspace(-0.2, 0.2, 41), np.linspace(-1.5, 1.5, 61)[:, None],
                np.linspace(0.8, 1.6, 9)[:, None], dt=0.01)
    assert sorted(times_per_call) == [4] * 9 + [5]


@pytest.mark.parametrize("dt", [0.0, -0.01, np.nan])
def test_phase_table_rejects_a_step_that_is_not_positive_and_finite(dt):
    for q0 in (_bump_q0(), fractional_symbol(flat_metric(dim=1), 2.0)):
        for t_grid in ([0.0, 0.05, 0.1], [0.0]):
            with pytest.raises(ValueError, match="dt must be positive and finite"):
                build_phase(q0, t_grid, [[0.2]], [[1.0]], dt=dt)


@pytest.mark.parametrize("t", [np.nan, np.inf])
def test_phase_table_rejects_a_time_that_is_not_finite(t):
    # named before its step count is taken, on a flat metric too
    for q0 in (_bump_q0(), fractional_symbol(flat_metric(dim=1), 2.0)):
        with pytest.raises(ValueError, match="phase time t must be finite"):
            build_phase(q0, [0.0, 0.05, t], [[0.2]], [[1.0]])


def test_phase_table_rejects_an_empty_time_grid():
    with pytest.raises(ValueError, match="t_grid is empty"):
        build_phase(_bump_q0(), [], [[0.2]], [[1.0]])


@pytest.mark.parametrize("empty", ["x_grid", "xi_grid"])
def test_phase_table_rejects_an_empty_point_grid(empty):
    grids = {"x_grid": [[0.2]], "xi_grid": [[1.0]], empty: np.empty((0, 1))}
    with pytest.raises(ValueError, match=f"^{empty} is empty$"):
        build_phase(_bump_q0(), [0.0, 0.05], **grids)


def test_phase_pass_gives_t_zero_in_a_mixed_batch_its_scalar_result():
    # t = 0 shares the six-step batch of +-0.05, and each point gets what
    # its scalar pass gives it, bit for bit
    q0 = _bump_q0()
    t = np.array([0.05, 0.0, -0.05])
    x, xi = np.array([[0.2], [0.3], [-0.4]]), np.array([[1.0], [1.1], [0.9]])
    data = phase_point_data(q0, t, x, xi)
    for k in range(3):
        want = phase_point_data(q0, t[k], x[k:k + 1], xi[k:k + 1])
        for f in dataclasses.fields(want):
            if f.name != "hess_asymmetry":
                np.testing.assert_array_equal(getattr(data, f.name)[k],
                                              getattr(want, f.name)[0], err_msg=f.name)


@pytest.mark.parametrize("dt", [1e-300, 5e-324])
def test_phase_pass_rejects_a_step_count_above_the_cap(dt):
    # 1e-300 asked for about 1e297 RK4 steps and never finished; 5e-324
    # overflowed the count to inf
    with pytest.raises(ValueError, match=r"t = 0\.001 at dt = .* needs .* MAX_STEPS"):
        phase_point_data(_bump_q0(), 1e-3, [[0.2]], [[1.0]], dt=dt)
    with pytest.raises(ValueError, match="MAX_STEPS"):
        build_phase(_bump_q0(), [0.0, 1e-3], [[0.2]], [[1.0]], dt=dt)
    assert hamjac._step_count(_bump_q0(), 1.0, 1.0 / hamjac.MAX_STEPS) == hamjac.MAX_STEPS


@pytest.mark.parametrize("dt", [0.0, -0.01, np.nan, np.inf])
def test_phase_pass_rejects_a_step_that_is_not_positive_and_finite(dt):
    for q0 in (_bump_q0(), fractional_symbol(flat_metric(dim=1), 2.0)):
        with pytest.raises(ValueError, match="dt"):
            phase_point_data(q0, 0.05, [[0.2]], [[1.0]], dt=dt)


def test_phase_table_rate_matches_grid():
    """The a_0 rate integral table agrees with a fresh pass at an interior node."""
    pt = _bump_table()
    k = 8
    assert pt.t_grid[k] == 0.08
    data = phase_point_data(pt.q0, 0.08, pt.x_grid[3], pt.xi_grid[1], dt=pt.dt)
    assert abs(pt.rate_integral[k, 3, 1]) > 1e-4
    np.testing.assert_allclose(data.rate_integral[0], pt.rate_integral[k, 3, 1],
                               rtol=0, atol=1e-9)


def test_mixed_hessian_asymmetry_negligible():
    pt = _bump_table()
    assert pt.hess_asymmetry < 1e-8


def _node_integrands(q0, Y, xi, s, n_steps):
    """The action integrand and the a_0 rate at the n_steps + 1 nodes of the
    flow from (Y, xi) to the time(s) s, node 0 the start and node k rebuilt
    as the flow to k s / n in k steps: (nodes, n) arrays each, with the node
    times."""
    times = np.linspace(0.0, s, n_steps + 1)
    g, f = [], []
    for k, tk in enumerate(times):
        if k:
            X, Xi, Z, *_ = integrate_flow(q0, tk, Y, xi, k)
        else:
            X, Xi, Z = Y, xi, np.broadcast_to(np.eye(2), (len(Y), 2, 2))
        _, gxi, _, hxixi, *_ = q0.jet(X, Xi)
        g.append(Xi[:, 0] * gxi[:, 0] - q0(X, Xi))
        f.append(0.5 * hxixi[:, 0, 0] * Z[:, 1, 0] / Z[:, 0, 0])
    return np.array(g), np.array(f), times.reshape(n_steps + 1, -1)


@pytest.mark.parametrize("n_nodes", [1, 3, 21])
@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("integral", [pytest.param("action", id="float"), "rate"])
@pytest.mark.parametrize("trailing", [(4,), (3, 2)])
def test_simpson_matches_scipy(n_nodes, sign, integral, trailing):
    """The phase pass's integrals are scipy's Simpson rule over the node
    integrands, on the bump for sigma = 0.5 and 2, to 1e-14 relative.

    `n_nodes` is the pass's RK4 node count, or 1 for t = 0, where the
    reference integral has the start as its one node, `sign` the
    sign of t, `integral` the real integral under test (id float: the action
    S - Y.xi; rate: the rate integral), and `trailing` the batch: 4 points
    at one time, or 3 points at 2 times each (one time per point).
    """
    integrate = pytest.importorskip("scipy.integrate")
    x = np.linspace(-1.0, 1.0, trailing[0])[:, None]
    xi = np.linspace(0.9, 1.3, trailing[0])[:, None]
    t = sign * (0.3 if n_nodes > 1 else 0.0)
    if len(trailing) > 1:
        x, xi = np.repeat(x, trailing[1], axis=0), np.repeat(xi, trailing[1], axis=0)
        t = t * np.tile(np.linspace(0.8, 1.0, trailing[1]), trailing[0])
    n_steps = max(n_nodes - 1, 1)
    for sigma in (0.5, 2.0):
        q0 = _bump_q0(sigma)
        data = phase_point_data(q0, t, x, xi, dt=0.3 / n_steps)
        g, f, times = _node_integrands(q0, data.Y, xi, -t, n_nodes - 1)
        if integral == "action":
            got, y, grid = data.S - np.sum(data.Y * xi, axis=1), g, times
        else:
            got, y, grid = data.rate_integral, f, -times
        assert got.dtype == np.dtype(float)
        want = np.array([integrate.simpson(y[:, j], x=grid[:, j % grid.shape[1]])
                         for j in range(y.shape[1])])
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14 * np.max(np.abs(want)))


def test_phase_pass_memory_does_not_grow_with_the_step_count():
    """The flow sums its integrals as it steps and stores no node, so the
    pass's allocation peak on a fixed batch is the same at 6 and 50 steps."""
    q0 = _bump_q0()
    x, xi = tensor_pairs(np.linspace(-1.5, 1.5, 500)[:, None],
                         np.linspace(0.8, 1.3, 10)[:, None])
    peaks = []
    for t in (0.05, 0.5):
        tracemalloc.start()
        try:
            phase_point_data(q0, t, x, xi)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0], peaks


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
