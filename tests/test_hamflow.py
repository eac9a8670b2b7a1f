"""Bicharacteristic flow, variational Jacobians and the inverse map."""

import dataclasses

import numpy as np
import pytest

from fracwkb import hamflow
from fracwkb.hamflow import (NEWTON_TOL, CausticError, GuardBandError, integrate_flow,
                             inverse_map)
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
    _, Xs, Xis, _ = integrate_flow(H, t, x, xi, 37)
    X, Xi = Xs[-1], Xis[-1]
    expected = x + t * sigma * xi * np.abs(xi) ** (sigma - 2.0)
    np.testing.assert_allclose(X, expected, rtol=1e-13)
    np.testing.assert_allclose(Xi, xi, rtol=0, atol=1e-15)


def test_flat_flow_negative_frequency():
    H = fractional_symbol(flat_metric(dim=1), 2.0)
    _, Xs, Xis, _ = integrate_flow(H, 0.25, np.array([[0.0]]), np.array([[-1.5]]), 25)
    np.testing.assert_allclose(Xs[-1, 0, 0], -0.75, rtol=1e-13)
    np.testing.assert_allclose(Xis[-1, 0, 0], -1.5, rtol=1e-15)


def test_zero_time_is_identity():
    H = _bump_hamiltonian(2.0)
    x = np.array([[0.4], [0.7]])
    xi = np.array([[1.1], [0.9]])
    times, Xs, Xis, Zs = integrate_flow(H, 0.0, x, xi, 10)
    np.testing.assert_array_equal(times, [0.0])
    np.testing.assert_array_equal(Xs, [x])
    np.testing.assert_array_equal(Xis, [xi])
    np.testing.assert_array_equal(Zs, [np.broadcast_to(np.eye(2), (2, 2, 2))])


def test_integrate_flow_has_one_result_shape():
    # (times, X, Xi, Z) over n_steps + 1 nodes, or the one start node at t = 0
    H = _bump_hamiltonian(2.0)
    for t, nodes in ((0.0, 1), (0.3, 7), (-0.3, 7)):
        result = integrate_flow(H, t, *_BASE, 6)
        assert len(result) == 4
        assert all(isinstance(a, np.ndarray) for a in result)
        times, Xs, Xis, Zs = result
        np.testing.assert_array_equal(times, np.linspace(0.0, t, nodes))
        assert Xs.shape == Xis.shape == (nodes, 3, 1)
        assert Zs.shape == (nodes, 3, 2, 2)


@pytest.mark.parametrize("sigma", sorted(REFERENCE_ENDPOINTS))
def test_bump_flow_endpoint_matches_reference(sigma):
    H = _bump_hamiltonian(sigma)
    _, Xs, Xis, _ = integrate_flow(H, 0.3, np.array([[0.4]]), np.array([[1.1]]), 30)
    X_ref, Xi_ref = REFERENCE_ENDPOINTS[sigma]
    np.testing.assert_allclose(Xs[-1, 0, 0], X_ref, atol=1e-8)
    np.testing.assert_allclose(Xis[-1, 0, 0], Xi_ref, atol=1e-8)


def test_flat_variational_block_structure():
    H = fractional_symbol(flat_metric(dim=1), 2.0)
    t = 0.4
    *_, Zs = integrate_flow(H, t, np.array([[0.3]]), np.array([[1.2]]), 40)
    np.testing.assert_allclose(Zs[-1, 0], [[1.0, 2.0 * t], [0.0, 1.0]],
                               rtol=0, atol=1e-14)


def test_variational_jacobian_matches_differences():
    H = _bump_hamiltonian(2.0)
    t, x0, xi0 = 0.2, 0.4, 1.1
    *_, Zs = integrate_flow(H, t, np.array([[x0]]), np.array([[xi0]]), 20)
    step = 1e-6

    def endpoint(xv, xiv):
        _, Xs, Xis, _ = integrate_flow(H, t, np.array([[xv]]), np.array([[xiv]]), 20)
        return np.array([Xs[-1, 0, 0], Xis[-1, 0, 0]])

    fd = np.column_stack([
        (endpoint(x0 + step, xi0) - endpoint(x0 - step, xi0)) / (2 * step),
        (endpoint(x0, xi0 + step) - endpoint(x0, xi0 - step)) / (2 * step),
    ])
    np.testing.assert_allclose(Zs[-1, 0], fd, atol=1e-8)


def test_flow_group_property():
    H = _bump_hamiltonian(2.0)
    x = np.array([[0.4], [-0.2], [0.9]])
    xi = np.array([[1.1], [0.9], [1.3]])
    _, X1, Xi1, _ = integrate_flow(H, 0.1, x, xi, 50)
    _, X12, Xi12, _ = integrate_flow(H, 0.15, X1[-1], Xi1[-1], 75)
    _, Xd, Xid, _ = integrate_flow(H, 0.25, x, xi, 125)
    np.testing.assert_allclose(X12[-1], Xd[-1], rtol=0, atol=1e-12)
    np.testing.assert_allclose(Xi12[-1], Xid[-1], rtol=0, atol=1e-12)


def test_trajectory_nodes_match_endpoint():
    # 0.3 / 30 and 0.15 / 15 are the same double, so the first half of the
    # path is the whole path of the half-time flow
    H = _bump_hamiltonian(0.5)
    times, Xs, Xis, Zs = integrate_flow(H, 0.3, [[0.4]], [[1.1]], 30)
    assert times.shape == (31,)
    assert Xs.shape == (31, 1, 1) and Zs.shape == (31, 1, 2, 2)
    half = integrate_flow(H, 0.15, [[0.4]], [[1.1]], 15)
    for nodes, half_nodes in zip((Xs, Xis, Zs), half[1:]):
        np.testing.assert_array_equal(nodes[:16], half_nodes)


def test_inverse_map_round_trip():
    H = _bump_hamiltonian(2.0)
    y = np.array([[0.3], [0.5]])
    xi = np.array([[1.2], [1.0]])
    X = integrate_flow(H, 0.3, y, xi, 30)[1][-1]
    Y, (times, Xs, Xis, Zs) = inverse_map(H, 0.3, X, xi, 30)
    np.testing.assert_allclose(Y, y, atol=1e-10)
    # the returned path is the accepted flow from (Y, xi) and ends on X
    np.testing.assert_array_equal(times, np.linspace(0.0, 0.3, 31))
    np.testing.assert_array_equal(Xs[0], Y)
    np.testing.assert_array_equal(Xis[0], xi)
    assert np.max(np.abs(Xs[-1] - X)) <= NEWTON_TOL
    *_, Z_path = integrate_flow(H, 0.3, Y, xi, 30)
    np.testing.assert_array_equal(Zs[-1], Z_path[-1])


def test_inverse_map_zero_time():
    H = _bump_hamiltonian(2.0)
    x = np.array([[0.7]])
    Y, (times, Xs, Xis, Zs) = inverse_map(H, 0.0, x, np.array([[1.0]]), 4)
    np.testing.assert_array_equal(Y, x)
    np.testing.assert_array_equal(times, [0.0])
    np.testing.assert_array_equal(Xs, [x])
    np.testing.assert_array_equal(Xis, [[[1.0]]])
    np.testing.assert_array_equal(Zs, [[np.eye(2)]])


def test_guard_band_violation_raises():
    H = _bump_hamiltonian(2.0)          # guard band p in (0.3, 3.0)
    with pytest.raises(GuardBandError):
        integrate_flow(H, 0.1, np.array([[0.0]]), np.array([[2.0]]), 10)


def test_guard_band_inactive_without_band():
    metric = gaussian_bump_metric(dim=1, epsilon=0.1)
    H = fractional_symbol(metric, 2.0)
    _, Xs, _, _ = integrate_flow(H, 0.1, np.array([[0.0]]), np.array([[2.0]]), 10)
    assert np.isfinite(Xs).all()


def _oscillator(band):
    """H = x^2 + xi^2 on the flat metric: rotation with period pi in (x, xi)."""
    def jet(x, xi):
        n = x.shape[0]
        return (2.0 * x, 2.0 * xi, np.full((n, 1, 1), 2.0),
                np.full((n, 1, 1), 2.0), np.zeros((n, 1, 1)),
                x[:, 0] ** 2 + xi[:, 0] ** 2, None)

    H = SymbolFunction(1, lambda x, xi: x[:, 0] ** 2 + xi[:, 0] ** 2, jet=jet,
                       xi_band=band)
    H.metric = flat_metric(dim=1)
    return H


def test_guard_band_checked_along_the_whole_path():
    # from (0, 1) the flow is (sin 2s, cos 2s): p = xi^2 is 1 at s = 0 and at
    # s = pi, but falls to 0 at s = pi/4, far below the band's lower edge
    H = _oscillator((0.5, 2.0))
    _, Xs, Xis, _ = integrate_flow(_oscillator(None), np.pi, [[0.0]], [[1.0]], 315)
    assert 0.5 < Xis[-1, 0, 0] ** 2 < 2.0 and abs(Xs[-1, 0, 0]) < 1e-6
    with pytest.raises(GuardBandError):
        integrate_flow(H, np.pi, [[0.0]], [[1.0]], 315)


_J = np.array([[0.0, 1.0], [-1.0, 0.0]])
_BASE = (np.array([[0.4], [0.0], [-0.8]]), np.array([[1.1], [1.4], [0.9]]))


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
    _, Xs, Xis, Zs = integrate_flow(H, 1.3, x, xi, 40)
    for got, want in zip((Xs, Xis, Zs), _separate_rk4_path(H, 1.3, x, xi, 40)):
        np.testing.assert_array_equal(got[-1], want)


@pytest.mark.parametrize("sigma", [0.5, 2.0])
def test_jet_flow_keeps_the_separate_evaluator_values(sigma):
    H = _bump_hamiltonian(sigma)
    _, Xs, Xis, Zs = integrate_flow(H, 0.3, *_BASE, 30)
    X_ref, Xi_ref, Z_ref = _separate_rk4_path(H, 0.3, *_BASE, 30)
    np.testing.assert_array_equal(Xs[-1], X_ref)
    np.testing.assert_array_equal(Xis[-1], Xi_ref)
    # A @ Z may round its 2-term sums differently from the einsum
    np.testing.assert_allclose(Zs[-1], Z_ref, rtol=0, atol=1e-14)


def test_variational_step_evaluates_the_metric_once_per_stage():
    bump = gaussian_bump_metric(dim=1, epsilon=0.1)
    calls = []

    def counting(evaluate):
        def counted(pts):
            calls.append(len(pts))
            return evaluate(pts)
        return counted

    H = fractional_symbol(dataclasses.replace(
        bump, inverse_metric=counting(bump.inverse_metric),
        inverse_metric_jet=counting(bump.inverse_metric_jet)), 2.0, xi_band=(0.3, 3.0))
    integrate_flow(H, 0.01, *_BASE, 1)
    assert len(calls) <= 5          # four RK4 stages and the guard-band check


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
    Y, path = inverse_map(H, t, X, xi, n_steps)
    assert sizes[0] == 6 and len(sizes) > 1 and max(sizes[1:]) == 3
    # each point alone is what an all-point trial does for it
    for k in range(6):
        Yk, path_k = inverse_map(H, t, X[k:k + 1], xi[k:k + 1], n_steps)
        np.testing.assert_array_equal(Y[k], Yk[0])
        for arr, arr_k in zip(path[1:], path_k[1:]):
            np.testing.assert_array_equal(arr[:, k], arr_k[:, 0])


def test_integrate_flow_rejects_a_flow_without_steps():
    H = fractional_symbol(flat_metric(dim=1), 2.0)
    for n_steps in (0, -1):
        with pytest.raises(ValueError, match="n_steps"):
            integrate_flow(H, 0.5, [[0.1]], [[1.0]], n_steps)
    # t = 0 takes no step whatever n_steps says
    assert integrate_flow(H, 0.0, [[0.1]], [[1.0]], 0)[1].shape == (1, 1, 1)


@pytest.mark.parametrize("sigma", [0.5, 2.0])
def test_energy_conserved_along_flow(sigma):
    H = _bump_hamiltonian(sigma)
    x, xi = _BASE
    _, Xs, Xis, _ = integrate_flow(H, 0.3, x, xi, 30)
    ref = H(x, xi)
    drift = max(float(np.max(np.abs(H(X, Xi) - ref))) for X, Xi in zip(Xs, Xis))
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
    times, _, _, Zs = integrate_flow(H, 0.3, *_BASE, 30)
    defect = np.abs(np.swapaxes(Zs, -1, -2) @ _J @ Zs - _J)
    assert Zs.shape == (len(times), 3, 2, 2)
    assert float(np.max(defect)) < 1e-8


def test_negative_time_reverses_flow():
    H = _bump_hamiltonian(2.0)
    x = np.array([[0.4]])
    xi = np.array([[1.1]])
    _, Xs, Xis, _ = integrate_flow(H, 0.2, x, xi, 20)
    _, Xb, Xib, _ = integrate_flow(H, -0.2, Xs[-1], Xis[-1], 20)
    np.testing.assert_allclose(Xb[-1], x, atol=1e-10)
    np.testing.assert_allclose(Xib[-1], xi, atol=1e-10)


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
    Y, (_, Xs, _, _) = inverse_map(H, t, x, xi, 2)
    assert calls == [t]
    assert np.max(np.abs(Xs[-1] - x)) <= NEWTON_TOL
    np.testing.assert_array_equal(Y, x - t * H.grad_xi(x, xi))
    # at t = 0 Newton starts, and stays, at x
    Y0, (times, Xs0, _, _) = inverse_map(H, 0.0, x, xi, 2)
    np.testing.assert_array_equal(Y0, x)
    assert len(times) == 1 and calls == [t, 0.0]


def test_guard_reads_the_jet_and_checks_every_node(monkeypatch):
    # the first RK4 stage's jet carries p for its node, and the last node is
    # evaluated once: one principal_symbol call per path, none per step
    H = _bump_hamiltonian(2.0)
    calls = []
    p_eval = hamflow.principal_symbol
    monkeypatch.setattr(hamflow, "principal_symbol",
                        lambda *args: calls.append(1) or p_eval(*args))
    integrate_flow(H, 0.2, *_BASE, 20)
    assert len(calls) == 1
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
    times, Xs, Xis, Zs = integrate_flow(H, t, x, xi, 30)
    Y, path = inverse_map(H, t, Xs[-1], xi, 30)
    assert times.shape == (31, 3) and path[0].shape == (31, 3)
    for k in range(3):
        want = integrate_flow(H, t[k], x[k:k + 1], xi[k:k + 1], 30)
        np.testing.assert_array_equal(times[:, k], want[0])
        for got, ref in zip((Xs, Xis, Zs), want[1:]):
            np.testing.assert_array_equal(got[:, k], ref[:, 0])
        Yk, path_k = inverse_map(H, t[k], Xs[-1, k:k + 1], xi[k:k + 1], 30)
        np.testing.assert_array_equal(Y[k], Yk[0])
        for arr, arr_k in zip(path[1:], path_k[1:]):
            np.testing.assert_array_equal(arr[:, k], arr_k[:, 0])
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
