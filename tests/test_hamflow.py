"""Bicharacteristic flow, variational Jacobians and the inverse map."""

import numpy as np
import pytest

from fracwkb.hamflow import (NEWTON_TOL, GuardBandError, flow_horizon,
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
    X, Xi = integrate_flow(H, t, x, xi)
    expected = x + t * sigma * xi * np.abs(xi) ** (sigma - 2.0)
    np.testing.assert_allclose(X, expected, rtol=1e-13)
    np.testing.assert_allclose(Xi, xi, rtol=0, atol=1e-15)


def test_flat_flow_negative_frequency():
    H = fractional_symbol(flat_metric(dim=1), 2.0)
    X, Xi = integrate_flow(H, 0.25, np.array([[0.0]]), np.array([[-1.5]]))
    np.testing.assert_allclose(X[0, 0], -0.75, rtol=1e-13)
    np.testing.assert_allclose(Xi[0, 0], -1.5, rtol=1e-15)


def test_zero_time_is_identity():
    H = _bump_hamiltonian(2.0)
    x = np.array([[0.4], [0.7]])
    xi = np.array([[1.1], [0.9]])
    X, Xi, Z = integrate_flow(H, 0.0, x, xi, with_variational=True)
    np.testing.assert_array_equal(X, x)
    np.testing.assert_array_equal(Xi, xi)
    np.testing.assert_array_equal(Z, np.broadcast_to(np.eye(2), (2, 2, 2)))


@pytest.mark.parametrize("sigma", sorted(REFERENCE_ENDPOINTS))
def test_bump_flow_endpoint_matches_reference(sigma):
    H = _bump_hamiltonian(sigma)
    X, Xi = integrate_flow(H, 0.3, np.array([[0.4]]), np.array([[1.1]]))
    X_ref, Xi_ref = REFERENCE_ENDPOINTS[sigma]
    np.testing.assert_allclose(X[0, 0], X_ref, atol=1e-8)
    np.testing.assert_allclose(Xi[0, 0], Xi_ref, atol=1e-8)


def test_flat_variational_block_structure():
    H = fractional_symbol(flat_metric(dim=1), 2.0)
    t = 0.4
    _, _, Z = integrate_flow(H, t, np.array([[0.3]]), np.array([[1.2]]),
                             with_variational=True)
    np.testing.assert_allclose(Z[0], [[1.0, 2.0 * t], [0.0, 1.0]],
                               rtol=0, atol=1e-14)


def test_variational_jacobian_matches_differences():
    H = _bump_hamiltonian(2.0)
    t, x0, xi0 = 0.2, 0.4, 1.1
    _, _, Z = integrate_flow(H, t, np.array([[x0]]), np.array([[xi0]]),
                             with_variational=True)
    step = 1e-6

    def endpoint(xv, xiv):
        X, Xi = integrate_flow(H, t, np.array([[xv]]), np.array([[xiv]]))
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
    X1, Xi1 = integrate_flow(H, 0.1, x, xi, dt=0.002)
    X12, Xi12 = integrate_flow(H, 0.15, X1, Xi1, dt=0.002)
    Xd, Xid = integrate_flow(H, 0.25, x, xi, dt=0.002)
    np.testing.assert_allclose(X12, Xd, rtol=0, atol=1e-12)
    np.testing.assert_allclose(Xi12, Xid, rtol=0, atol=1e-12)


def test_trajectory_nodes_match_endpoint():
    H = _bump_hamiltonian(0.5)
    t = 0.3
    times, Xs, Xis, Zs = integrate_flow(H, t, [[0.4]], [[1.1]], n_steps=30,
                                        with_variational=True, path=True)
    assert times.shape == (31,)
    assert Xs.shape == (31, 1, 1) and Zs.shape == (31, 1, 2, 2)
    X_end, Xi_end = integrate_flow(H, t, [[0.4]], [[1.1]], n_steps=30)
    np.testing.assert_array_equal(Xs[-1], X_end)
    np.testing.assert_array_equal(Xis[-1], Xi_end)


def test_inverse_map_round_trip():
    H = _bump_hamiltonian(2.0)
    y = np.array([[0.3], [0.5]])
    xi = np.array([[1.2], [1.0]])
    X, _ = integrate_flow(H, 0.3, y, xi, n_steps=30)
    Y, (times, Xs, Xis, Zs) = inverse_map(H, 0.3, X, xi, 30)
    np.testing.assert_allclose(Y, y, atol=1e-10)
    # the returned path is the accepted flow from (Y, xi) and ends on X
    np.testing.assert_array_equal(times, np.linspace(0.0, 0.3, 31))
    np.testing.assert_array_equal(Xs[0], Y)
    np.testing.assert_array_equal(Xis[0], xi)
    assert np.max(np.abs(Xs[-1] - X)) <= NEWTON_TOL
    _, _, Z_end = integrate_flow(H, 0.3, Y, xi, n_steps=30, with_variational=True)
    np.testing.assert_array_equal(Zs[-1], Z_end)


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
        integrate_flow(H, 0.1, np.array([[0.0]]), np.array([[2.0]]))


def test_guard_band_inactive_without_band():
    metric = gaussian_bump_metric(dim=1, epsilon=0.1)
    H = fractional_symbol(metric, 2.0)
    X, _ = integrate_flow(H, 0.1, np.array([[0.0]]), np.array([[2.0]]))
    assert np.isfinite(X).all()


def _oscillator(band):
    """H = x^2 + xi^2 on the flat metric: rotation with period pi in (x, xi)."""
    H = SymbolFunction(
        1, lambda x, xi: x[:, 0] ** 2 + xi[:, 0] ** 2,
        grad_x=lambda x, xi: 2.0 * x, grad_xi=lambda x, xi: 2.0 * xi,
        hess_xx=lambda x, xi: np.full((x.shape[0], 1, 1), 2.0),
        hess_xixi=lambda x, xi: np.full((x.shape[0], 1, 1), 2.0),
        hess_xxi=lambda x, xi: np.zeros((x.shape[0], 1, 1)),
        xi_band=band)
    H.metric = flat_metric(dim=1)
    return H


def test_guard_band_checked_along_the_whole_path():
    # from (0, 1) the flow is (sin 2s, cos 2s): p = xi^2 is 1 at s = 0 and at
    # s = pi, but falls to 0 at s = pi/4, far below the band's lower edge
    H = _oscillator((0.5, 2.0))
    X, Xi = integrate_flow(_oscillator(None), np.pi, [[0.0]], [[1.0]])
    assert 0.5 < Xi[0, 0] ** 2 < 2.0 and abs(X[0, 0]) < 1e-6
    with pytest.raises(GuardBandError):
        integrate_flow(H, np.pi, [[0.0]], [[1.0]])
    with pytest.raises(GuardBandError):
        integrate_flow(H, np.pi, [[0.0]], [[1.0]], with_variational=True, path=True)


_J = np.array([[0.0, 1.0], [-1.0, 0.0]])
_BASE = (np.array([[0.4], [0.0], [-0.8]]), np.array([[1.1], [1.4], [0.9]]))


@pytest.mark.parametrize("sigma", [0.5, 2.0])
def test_energy_conserved_along_flow(sigma):
    H = _bump_hamiltonian(sigma)
    x, xi = _BASE
    _, Xs, Xis, _ = integrate_flow(H, 0.3, x, xi, path=True)
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
    times, _, _, Zs = integrate_flow(H, 0.3, *_BASE, with_variational=True, path=True)
    defect = np.abs(np.swapaxes(Zs, -1, -2) @ _J @ Zs - _J)
    assert Zs.shape == (len(times), 3, 2, 2)
    assert float(np.max(defect)) < 1e-8


def test_flow_horizon_flat_is_grid_maximum():
    H = fractional_symbol(flat_metric(dim=1), 2.0)
    grid = np.linspace(0.0, 0.5, 6)
    t0 = flow_horizon(H, grid, np.array([[0.0]]), np.array([[1.0]]))
    assert t0 == 0.5


def test_flow_horizon_shrinks_with_threshold():
    H = _bump_hamiltonian(2.0)
    x = np.linspace(-1.0, 1.0, 5)[:, None]
    xi = np.full((5, 1), 1.2)
    grid = np.linspace(0.0, 2.0, 11)
    loose = flow_horizon(H, grid, x, xi, threshold=10.0)
    tight = flow_horizon(H, grid, x, xi, threshold=0.2)
    assert loose == 2.0
    assert tight <= loose


def test_negative_time_reverses_flow():
    H = _bump_hamiltonian(2.0)
    x = np.array([[0.4]])
    xi = np.array([[1.1]])
    X, Xi = integrate_flow(H, 0.2, x, xi)
    Xb, Xib = integrate_flow(H, -0.2, X, Xi)
    np.testing.assert_allclose(Xb, x, atol=1e-10)
    np.testing.assert_allclose(Xib, xi, atol=1e-10)
