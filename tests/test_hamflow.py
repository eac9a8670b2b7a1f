"""Bicharacteristic flow, variational Jacobians and the inverse map."""

import dataclasses
import warnings

import numpy as np
import pytest

from fracwkb import hamflow
from fracwkb.hamflow import (NEWTON_TOL, CausticError, FlowEnd, GuardBandError,
                             integrate_flow, inverse_map)
from fracwkb.metric import flat_metric, gaussian_bump_metric
from fracwkb.symbols import SymbolFunction, fractional_symbol

# rtol=1e-12 adaptive RK45 endpoints for the epsilon=0.1 bump metric at
# (x, xi) = (0.4, 1.1), t = 0.3 (notes/oracles/flow_endpoint.py)
REFERENCE_ENDPOINTS = {
    2.0: (1.10678245562070, 1.12944030594448),
    0.5: (0.54561439866058, 1.10559792088328),
}


def _bump_hamiltonian(sigma):
    metric = gaussian_bump_metric(dim=1, epsilon=0.1)
    return fractional_symbol(metric, sigma, xi_band=(0.3, 3.0))


@pytest.mark.parametrize("sigma", [0.5, 2.0, 3.0])
def test_flat_flow_closed_form(sigma):
    H = fractional_symbol(flat_metric(dim=1), sigma)
    x = np.array([[0.2], [-1.0], [0.0]])
    xi = np.array([[0.9], [1.4], [2.0]])
    t = 0.37
    X, Xi, *_ = integrate_flow(H, t, x, xi, 37)
    expected = x + t * sigma * xi * np.abs(xi) ** (sigma - 2.0)
    np.testing.assert_allclose(X, expected, rtol=1e-13)
    np.testing.assert_allclose(Xi, xi, rtol=0, atol=1e-15)


def test_flat_flow_negative_frequency():
    H = fractional_symbol(flat_metric(dim=1), 2.0)
    X, Xi, *_ = integrate_flow(H, 0.25, np.array([[0.0]]), np.array([[-1.5]]), 25)
    np.testing.assert_allclose(X[0, 0], -0.75, rtol=1e-13)
    np.testing.assert_allclose(Xi[0, 0], -1.5, rtol=1e-15)


def test_zero_time_is_identity():
    H = _bump_hamiltonian(2.0)
    x = np.array([[0.4], [0.7]])
    xi = np.array([[1.1], [0.9]])
    end = integrate_flow(H, 0.0, x, xi, 10)
    np.testing.assert_array_equal(end.X, x)
    np.testing.assert_array_equal(end.Xi, xi)
    np.testing.assert_array_equal(end.Z, np.broadcast_to(np.eye(2), (2, 2, 2)))
    for integral in (end.action, end.rate_integral):
        np.testing.assert_array_equal(integral, [0.0, 0.0])
    # the end is a copy: the caller's start is not handed back
    assert not np.shares_memory(end.X, x) and not np.shares_memory(end.Xi, xi)


def test_integrate_flow_has_one_result_shape():
    # the end of the flow and its integrals, one row per point, at every t
    H = _bump_hamiltonian(2.0)
    for t in (0.0, 0.3, -0.3):
        result = integrate_flow(H, t, *_BASE, 6)
        assert isinstance(result, FlowEnd) and len(result) == 5
        assert all(isinstance(a, np.ndarray) for a in result)
        assert result.X.shape == result.Xi.shape == (3, 1)
        assert result.Z.shape == (3, 2, 2)
        assert result.action.shape == result.rate_integral.shape == (3,)


def test_odd_step_count_has_no_integrals():
    # Simpson's weights need an even step count: with 15 steps they would
    # give an action 2.2% off, so the flow hands back NaN integrals instead
    H = _bump_hamiltonian(2.0)
    odd, even = (integrate_flow(H, 0.15, [[0.4]], [[1.1]], n) for n in (15, 16))
    assert np.isnan(odd.action).all() and np.isnan(odd.rate_integral).all()
    assert np.isfinite(even.action).all() and np.isfinite(even.rate_integral).all()
    np.testing.assert_allclose(odd.X, even.X, rtol=0, atol=1e-10)


@pytest.mark.parametrize("sigma", sorted(REFERENCE_ENDPOINTS))
def test_bump_flow_endpoint_matches_reference(sigma):
    H = _bump_hamiltonian(sigma)
    X, Xi, *_ = integrate_flow(H, 0.3, np.array([[0.4]]), np.array([[1.1]]), 30)
    X_ref, Xi_ref = REFERENCE_ENDPOINTS[sigma]
    np.testing.assert_allclose(X[0, 0], X_ref, atol=1e-8)
    np.testing.assert_allclose(Xi[0, 0], Xi_ref, atol=1e-8)


def test_flat_variational_block_structure():
    H = fractional_symbol(flat_metric(dim=1), 2.0)
    t = 0.4
    Z = integrate_flow(H, t, np.array([[0.3]]), np.array([[1.2]]), 40).Z
    np.testing.assert_allclose(Z[0], [[1.0, 2.0 * t], [0.0, 1.0]],
                               rtol=0, atol=1e-14)


def test_variational_jacobian_matches_differences():
    H = _bump_hamiltonian(2.0)
    t, x0, xi0 = 0.2, 0.4, 1.1
    Z = integrate_flow(H, t, np.array([[x0]]), np.array([[xi0]]), 20).Z
    step = 1e-6

    def endpoint(xv, xiv):
        X, Xi, *_ = integrate_flow(H, t, np.array([[xv]]), np.array([[xiv]]), 20)
        return np.array([X[0, 0], Xi[0, 0]])

    fd = np.column_stack([
        (endpoint(x0 + step, xi0) - endpoint(x0 - step, xi0)) / (2 * step),
        (endpoint(x0, xi0 + step) - endpoint(x0, xi0 - step)) / (2 * step),
    ])
    np.testing.assert_allclose(Z[0], fd, atol=1e-8)


def test_flow_group_property():
    H = _bump_hamiltonian(2.0)
    x = np.array([[0.4], [-0.2], [0.9]])
    xi = np.array([[1.1], [0.9], [1.3]])
    X1, Xi1, *_ = integrate_flow(H, 0.1, x, xi, 50)
    X12, Xi12, *_ = integrate_flow(H, 0.15, X1, Xi1, 75)
    Xd, Xid, *_ = integrate_flow(H, 0.25, x, xi, 125)
    np.testing.assert_allclose(X12, Xd, rtol=0, atol=1e-12)
    np.testing.assert_allclose(Xi12, Xid, rtol=0, atol=1e-12)


def test_trajectory_nodes_match_endpoint():
    # 0.3 / 30 and 0.15 / 15 are the same double, so the half-time flow ends
    # on the whole flow's middle node: a flow restarted there ends where the
    # whole flow does, bit for bit in (X, Xi), and the Jacobians compose
    H = _bump_hamiltonian(0.5)
    whole = integrate_flow(H, 0.3, [[0.4]], [[1.1]], 30)
    first = integrate_flow(H, 0.15, [[0.4]], [[1.1]], 15)
    second = integrate_flow(H, 0.15, first.X, first.Xi, 15)
    np.testing.assert_array_equal(second.X, whole.X)
    np.testing.assert_array_equal(second.Xi, whole.Xi)
    np.testing.assert_allclose(second.Z @ first.Z, whole.Z, rtol=0, atol=1e-14)


def test_inverse_map_round_trip():
    H = _bump_hamiltonian(2.0)
    y = np.array([[0.3], [0.5]])
    xi = np.array([[1.2], [1.0]])
    X = integrate_flow(H, 0.3, y, xi, 30).X
    Y, flow = inverse_map(H, 0.3, X, xi, 30)
    np.testing.assert_allclose(Y, y, atol=1e-10)
    # the returned end is the accepted flow from (Y, xi), integrals and all,
    # and it lies on X
    assert np.max(np.abs(flow.X - X)) <= NEWTON_TOL
    for got, want in zip(flow, integrate_flow(H, 0.3, Y, xi, 30)):
        np.testing.assert_array_equal(got, want)


def test_inverse_map_zero_time():
    H = _bump_hamiltonian(2.0)
    x = np.array([[0.7]])
    Y, flow = inverse_map(H, 0.0, x, np.array([[1.0]]), 4)
    np.testing.assert_array_equal(Y, x)
    np.testing.assert_array_equal(flow.X, x)
    np.testing.assert_array_equal(flow.Xi, [[1.0]])
    np.testing.assert_array_equal(flow.Z, [np.eye(2)])


def test_guard_band_violation_raises():
    H = _bump_hamiltonian(2.0)          # guard band p in (0.3, 3.0)
    with pytest.raises(GuardBandError):
        integrate_flow(H, 0.1, np.array([[0.0]]), np.array([[2.0]]), 10)


def test_guard_band_inactive_without_band():
    metric = gaussian_bump_metric(dim=1, epsilon=0.1)
    H = fractional_symbol(metric, 2.0)
    X = integrate_flow(H, 0.1, np.array([[0.0]]), np.array([[2.0]]), 10).X
    assert np.isfinite(X).all()


def _oscillator(band, metric=None):
    """H = x^2 + xi^2 with p = xi^2: rotation with period pi in (x, xi)."""
    def jet(x, xi):
        n = x.shape[0]
        return (2.0 * x, 2.0 * xi, np.full((n, 1, 1), 2.0),
                np.full((n, 1, 1), 2.0), np.zeros((n, 1, 1)),
                x[:, 0] ** 2 + xi[:, 0] ** 2, xi[:, 0] ** 2)

    return SymbolFunction(1, lambda x, xi: x[:, 0] ** 2 + xi[:, 0] ** 2, jet,
                          xi_band=band, metric=metric)


def test_guard_band_checked_along_the_whole_path():
    # from (0, 1) the flow is (sin 2s, cos 2s): p = xi^2 is 1 at s = 0 and at
    # s = pi, but falls to 0 at s = pi/4, far below the band's lower edge
    H = _oscillator((0.5, 2.0), metric=flat_metric(dim=1))
    X, Xi, *_ = integrate_flow(_oscillator(None), np.pi, [[0.0]], [[1.0]], 315)
    assert 0.5 < Xi[0, 0] ** 2 < 2.0 and abs(X[0, 0]) < 1e-6
    with pytest.raises(GuardBandError):
        integrate_flow(H, np.pi, [[0.0]], [[1.0]], 315)


def test_guard_band_holds_a_symbol_on_no_metric():
    # the guard reads the band and the jet's p, so a band guards the flow
    # whether or not the symbol is built on a metric
    H = _oscillator((0.5, 2.0))
    assert H.metric is None
    with pytest.raises(GuardBandError, match=r"at node \d+ of 315"):
        integrate_flow(H, np.pi, [[0.0]], [[1.0]], 315)


def test_flow_onto_a_caustic_returns_its_end():
    # at s = pi/4 the oscillator's Z_xx = cos 2s vanishes up to the RK4
    # error: the flow still ends there, with the rate f = -tan 2s huge; a
    # node with Z_xx exactly 0 gives a non-finite rate, and neither warns
    H = _oscillator(None)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        end = integrate_flow(H, np.pi / 4, [[0.0]], [[1.0]], 40)
        np.testing.assert_allclose(end.X, [[1.0]], rtol=0, atol=1e-7)
        np.testing.assert_allclose(end.Xi, [[0.0]], rtol=0, atol=1e-7)
        np.testing.assert_allclose(end.Z[0], [[0.0, 1.0], [-1.0, 0.0]], rtol=0, atol=1e-7)
        _, f_end = hamflow._integrands(end.Xi, end.Z, H.jet(end.X, end.Xi))
        assert f_end[0] < -1e6 and end.rate_integral[0] < -1e4
        on_caustic = np.array([[[0.0, 1.0], [-1.0, 0.0]]])
        _, f = hamflow._integrands(end.Xi, on_caustic, H.jet(end.X, end.Xi))
        assert not np.isfinite(f).any()


_J = np.array([[0.0, 1.0], [-1.0, 0.0]])
_BASE = (np.array([[0.4], [0.0], [-0.8]]), np.array([[1.1], [1.4], [0.9]]))


def _node_flows(H, t, x, xi, n_steps):
    """The flow's state at each of its n_steps + 1 uniform node times: the
    batch flowed to k t / n_steps in k steps, for k = 0 .. n_steps."""
    times = np.linspace(0.0, t, n_steps + 1)
    return [integrate_flow(H, s, x, xi, k) for k, s in enumerate(times)]


def _separate_rk4_path(H, t, x, xi, n_steps):
    """RK4 with one evaluator call per derivative and an einsum for A(t) Z:
    the step the jet-based integrator reproduces in the same operation order."""
    def field(X, Xi, Z):
        A = np.block([[np.swapaxes(H.hess_xxi(X, Xi), 1, 2), H.hess_xixi(X, Xi)],
                      [-H.hess_xx(X, Xi), -H.hess_xxi(X, Xi)]])
        return H.grad_xi(X, Xi), -H.grad_x(X, Xi), np.einsum("nij,njk->nik", A, Z)

    X, Xi = np.asarray(x, dtype=float), np.asarray(xi, dtype=float)
    Z = np.broadcast_to(np.eye(2), (len(X), 2, 2)).copy()
    h = t / n_steps
    for _ in range(n_steps):
        k1 = field(X, Xi, Z)
        k2 = field(*(y + 0.5 * h * k for y, k in zip((X, Xi, Z), k1)))
        k3 = field(*(y + 0.5 * h * k for y, k in zip((X, Xi, Z), k2)))
        k4 = field(*(y + h * k for y, k in zip((X, Xi, Z), k3)))
        X, Xi, Z = (y + (h / 6.0) * (a + 2.0 * b + 2.0 * c + e)
                    for y, a, b, c, e in zip((X, Xi, Z), k1, k2, k3, k4))
    return X, Xi, Z


def test_assembled_jet_flows_like_separate_evaluators():
    # the oscillator's jet is one closure, which the reference path reads
    # one evaluator at a time; A is constant, so even A @ Z is exact
    H = _oscillator(None)
    x, xi = np.array([[0.0], [0.3]]), np.array([[1.0], [-0.7]])
    X, Xi, Z, *_ = integrate_flow(H, 1.3, x, xi, 40)
    for got, want in zip((X, Xi, Z), _separate_rk4_path(H, 1.3, x, xi, 40)):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("sigma", [0.5, 2.0])
def test_jet_flow_keeps_the_separate_evaluator_values(sigma):
    H = _bump_hamiltonian(sigma)
    X, Xi, Z, *_ = integrate_flow(H, 0.3, *_BASE, 30)
    X_ref, Xi_ref, Z_ref = _separate_rk4_path(H, 0.3, *_BASE, 30)
    np.testing.assert_array_equal(X, X_ref)
    np.testing.assert_array_equal(Xi, Xi_ref)
    # A @ Z may round its 2-term sums differently from the einsum
    np.testing.assert_allclose(Z, Z_ref, rtol=0, atol=1e-14)


def test_variational_step_evaluates_the_metric_once_per_stage():
    bump = gaussian_bump_metric(dim=1, epsilon=0.1)
    calls = []

    def counting(evaluate):
        def counted(pts):
            calls.append(len(pts))
            return evaluate(pts)
        return counted

    # G alone (`inverse_metric`) is read off the jet too, so this counts both
    H = fractional_symbol(dataclasses.replace(
        bump, inverse_metric_jet=counting(bump.inverse_metric_jet)), 2.0, xi_band=(0.3, 3.0))
    integrate_flow(H, 0.01, *_BASE, 1)
    assert len(calls) <= 5          # four RK4 stages and the end node's jet


def test_newton_trials_flow_only_unconverged_points(monkeypatch):
    H = _bump_hamiltonian(2.0)
    t, n_steps = 0.3, 30
    # on the 16-box, |x| >= 6.5 is far from the bump, where the predictor
    # already meets NEWTON_TOL; the odd points sit on the bump
    X = np.array([[7.0], [0.2], [-7.0], [0.5], [6.5], [-0.3]])
    xi = np.linspace(0.9, 1.3, 6)[:, None]
    sizes = []
    flow = hamflow.integrate_flow

    def recording(H, t, x, *args, **kwargs):
        sizes.append(len(x))
        return flow(H, t, x, *args, **kwargs)

    monkeypatch.setattr(hamflow, "integrate_flow", recording)
    Y, end = inverse_map(H, t, X, xi, n_steps)
    assert sizes[0] == 6 and len(sizes) > 1 and max(sizes[1:]) == 3
    # each point alone is what an all-point trial does for it
    for k in range(6):
        Yk, end_k = inverse_map(H, t, X[k:k + 1], xi[k:k + 1], n_steps)
        np.testing.assert_array_equal(Y[k], Yk[0])
        for arr, arr_k in zip(end, end_k):
            np.testing.assert_array_equal(arr[k], arr_k[0])


def test_damped_newton_points_solve_as_they_do_alone(monkeypatch):
    # on a strong bump at t = 0.8, x = 1.9 and 2 need damped steps while
    # the other two take full ones, so each pass flows mixed step lengths
    H = fractional_symbol(gaussian_bump_metric(dim=1, epsilon=0.9), 2.0,
                          xi_band=(0.05, 50.0))
    X, xi = np.array([[-0.5], [0.3], [1.9], [2.0]]), np.ones((4, 1))
    Y, flow = inverse_map(H, 0.8, X, xi, 40)
    assert np.max(np.abs(flow.X - X)) <= NEWTON_TOL
    for k in range(4):
        Yk, flow_k = inverse_map(H, 0.8, X[k:k + 1], xi[k:k + 1], 40)
        np.testing.assert_array_equal(Y[k], Yk[0])
        for arr, arr_k in zip(flow, flow_k):
            np.testing.assert_array_equal(arr[k], arr_k[0])
    monkeypatch.setattr(hamflow, "NEWTON_DAMPING", 0.25)
    moved = inverse_map(H, 0.8, X, xi, 40)[0][:, 0] != Y[:, 0]
    assert list(moved) == [False, False, True, True]


def test_newton_gives_up_on_a_caustic_without_repeating_a_trial(monkeypatch):
    # at t = pi/4 the oscillator sends every start to X = xi, so grad_y X
    # vanishes up to the RK4 error and no damped step reaches x = 0.3
    starts = []
    flow = hamflow.integrate_flow

    def recording(H, t, x, *args):
        starts.append(float(x[0, 0]))
        return flow(H, t, x, *args)

    monkeypatch.setattr(hamflow, "integrate_flow", recording)
    with pytest.raises(CausticError):
        inverse_map(_oscillator(None), np.pi / 4, [[0.3]], [[1.0]], 40)
    assert len(starts) <= hamflow.NEWTON_MAX_ITER + 1
    assert len(set(starts)) == len(starts)


def test_integrate_flow_rejects_a_flow_without_steps():
    H = fractional_symbol(flat_metric(dim=1), 2.0)
    for n_steps in (0, -1):
        with pytest.raises(ValueError, match="n_steps"):
            integrate_flow(H, 0.5, [[0.1]], [[1.0]], n_steps)
    # t = 0 takes no step whatever n_steps says
    assert integrate_flow(H, 0.0, [[0.1]], [[1.0]], 0).X.shape == (1, 1)


@pytest.mark.parametrize("sigma", [0.5, 2.0])
def test_energy_conserved_along_flow(sigma):
    H = _bump_hamiltonian(sigma)
    x, xi = _BASE
    ref = H(x, xi)
    drift = max(float(np.max(np.abs(H(X, Xi) - ref)))
                for X, Xi, *_ in _node_flows(H, 0.3, x, xi, 30))
    assert drift < 1e-8


@pytest.mark.parametrize("sigma", [0.5, 2.0])
def test_variational_jacobian_symplectic_along_flow(sigma):
    # Z is the Jacobian of a Hamiltonian flow map, so Z^T J Z = J exactly.
    # RK4 is not a symplectic scheme, so the defect is its truncation error,
    # O(dt^4) with constants set by the third derivatives of H: 3.4e-11 for
    # sigma = 2 and 9e-15 for sigma = 0.5 at dt = 0.01 over t = 0.3 (1.8e-8
    # at dt = 0.04).  1e-8 leaves over two orders of margin, while an error
    # in any block of the variational right-hand side gives a defect of
    # order t.
    H = _bump_hamiltonian(sigma)
    Zs = np.array([end.Z for end in _node_flows(H, 0.3, *_BASE, 30)])
    defect = np.abs(np.swapaxes(Zs, -1, -2) @ _J @ Zs - _J)
    assert Zs.shape == (31, 3, 2, 2)
    assert float(np.max(defect)) < 1e-8


def test_negative_time_reverses_flow():
    H = _bump_hamiltonian(2.0)
    x = np.array([[0.4]])
    xi = np.array([[1.1]])
    X, Xi, *_ = integrate_flow(H, 0.2, x, xi, 20)
    Xb, Xib, *_ = integrate_flow(H, -0.2, X, Xi, 20)
    np.testing.assert_allclose(Xb, x, atol=1e-10)
    np.testing.assert_allclose(Xib, xi, atol=1e-10)


def _assembled_AZ(H, X, Xi, Z):
    """The general-d variational product: A assembled from the jet, then A @ Z."""
    _, _, hxx, hxixi, hxxi, _, _ = H.jet(X, Xi)
    A = np.concatenate((np.concatenate((np.swapaxes(hxxi, 1, 2), hxixi), axis=2),
                        np.concatenate((-hxx, -hxxi), axis=2)), axis=1)
    return A @ Z


@pytest.mark.parametrize("sigma", [0.5, 2.0])
@pytest.mark.parametrize("metric", [flat_metric(dim=1), gaussian_bump_metric(dim=1, epsilon=0.1)],
                         ids=["flat", "bump"])
def test_one_dimensional_stage_matches_assembled_product(metric, sigma):
    H = fractional_symbol(metric, sigma, xi_band=(0.3, 3.0))
    rng = np.random.default_rng(5)
    X = rng.uniform(-1.5, 1.5, size=(64, 1))
    Xi = rng.choice([-1.0, 1.0], size=(64, 1)) * rng.uniform(0.7, 1.6, size=(64, 1))
    Z = rng.standard_normal((64, 2, 2))
    (_, _, AZ), _ = hamflow._stage(H, X, Xi, Z)
    want = _assembled_AZ(H, X, Xi, Z)
    if metric.is_flat:
        np.testing.assert_array_equal(AZ, want)
    else:
        assert np.max(np.abs(AZ - want)) <= 1e-15 * np.max(np.abs(want))


@pytest.mark.parametrize("sigma", [0.5, 2.0])
def test_flat_inverse_map_flows_once_from_the_predictor(sigma, monkeypatch):
    H = fractional_symbol(flat_metric(dim=1), sigma, xi_band=(0.2, 4.0))
    x = np.linspace(-1.0, 1.0, 7)[:, None]
    xi = np.array([[0.6], [-0.9], [1.2], [-1.5], [1.8], [0.8], [-1.1]])
    calls = []
    flow = hamflow.integrate_flow

    def counting(*args, **kwargs):
        calls.append(args[1])
        return flow(*args, **kwargs)

    monkeypatch.setattr(hamflow, "integrate_flow", counting)
    t = -0.4
    Y, end = inverse_map(H, t, x, xi, 2)
    assert calls == [t]
    assert np.max(np.abs(end.X - x)) <= NEWTON_TOL
    np.testing.assert_array_equal(Y, x - t * H.grad_xi(x, xi))
    # at t = 0 Newton starts, and stays, at x
    Y0, end0 = inverse_map(H, 0.0, x, xi, 2)
    np.testing.assert_array_equal(Y0, x)
    np.testing.assert_array_equal(end0.X, x)
    assert calls == [t, 0.0]


def test_guard_reads_the_jet_and_checks_every_node():
    # the first RK4 stage's jet carries p for its node, and the end node's
    # jet, read for the integrals, carries it for the last
    H = _bump_hamiltonian(2.0)
    # a start outside the band raises at node 0
    with pytest.raises(GuardBandError, match="at node 0 of 4"):
        integrate_flow(H, 0.01, np.array([[0.0]]), np.array([[2.0]]), 4)
    # non-finite nodes fail the band check
    with pytest.raises(GuardBandError):
        integrate_flow(H, 0.01, np.array([[np.nan]]), np.array([[1.0]]), 4)


def test_per_point_times_give_each_point_its_scalar_flow_and_solve():
    # one batch of times of both signs, each point stepping by its own t / n
    H = _bump_hamiltonian(2.0)
    x = np.array([[0.4], [-0.3], [0.1]])
    xi = np.array([[1.1], [0.9], [1.3]])
    t = np.array([0.3, -0.25, 0.28])
    end = integrate_flow(H, t, x, xi, 30)
    Y, flow = inverse_map(H, t, end.X, xi, 30)
    for k in range(3):
        want = integrate_flow(H, t[k], x[k:k + 1], xi[k:k + 1], 30)
        for got, ref in zip(end, want):
            np.testing.assert_array_equal(got[k], ref[0])
        Yk, flow_k = inverse_map(H, t[k], end.X[k:k + 1], xi[k:k + 1], 30)
        np.testing.assert_array_equal(Y[k], Yk[0])
        for arr, arr_k in zip(flow, flow_k):
            np.testing.assert_array_equal(arr[k], arr_k[0])
    with pytest.raises(ValueError, match="per-point times"):
        integrate_flow(H, t[:2], x, xi, 30)
    with pytest.raises(ValueError, match="t = 0"):
        integrate_flow(H, np.array([0.3, 0.0, 0.28]), x, xi, 30)


def test_guard_band_error_names_the_point_s_own_time():
    H = _bump_hamiltonian(2.0)
    # p = 1.1 xi^2 leaves the band [0.3, 3] only at the second start
    with pytest.raises(GuardBandError, match=r"at node 0 of 4 toward t=0\.23$"):
        integrate_flow(H, np.array([0.1, 0.23]), [[0.0], [0.0]], [[1.0], [2.0]], 4)


def test_caustic_error_names_the_worst_point_s_own_time(monkeypatch):
    # with no Newton sweep, only the predictor's residual on the bump remains;
    # at |x| = 7 the predictor is already exact
    monkeypatch.setattr(hamflow, "NEWTON_MAX_ITER", 0)
    H = _bump_hamiltonian(2.0)
    with pytest.raises(CausticError, match=r"at t=0\.17: .* at x=\[0\.2\]"):
        inverse_map(H, np.array([0.3, 0.17]), [[7.0], [0.2]], [[1.0], [1.2]], 20)
