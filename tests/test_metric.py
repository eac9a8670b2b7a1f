"""Metric field construction, principal symbol, and assumption audits."""

import numpy as np
import pytest

from fracwkb.metric import (EllipticityError, MetricField, audit_assumptions,
                            check_sigma, flat_metric, gaussian_bump_metric,
                            loglog_fit, principal_symbol, solve_blocks)


def test_principal_symbol_identity_metric():
    m = flat_metric(dim=2)
    val = principal_symbol(m, np.array([[0.3, -1.2]]), np.array([[1.0, 0.0]]))
    assert val[0] == 1.0


def test_principal_symbol_bump_at_origin():
    m = gaussian_bump_metric(dim=1, epsilon=0.5)
    val = principal_symbol(m, np.array([[0.0]]), np.array([[1.0]]))
    np.testing.assert_allclose(val[0], 1.5, rtol=0, atol=1e-15)


def test_principal_symbol_exactly_quadratic():
    rng = np.random.default_rng(11)
    m = gaussian_bump_metric(dim=1, epsilon=0.3)
    for _ in range(25):
        x = rng.uniform(-2, 2, size=(4, 1))
        xi = rng.uniform(-3, 3, size=(4, 1))
        lam = rng.uniform(0.1, 5.0)
        p1 = principal_symbol(m, x, lam * xi)
        p2 = lam**2 * principal_symbol(m, x, xi)
        np.testing.assert_allclose(p1, p2, rtol=1e-13)


def test_rayleigh_quotient_within_ellipticity_band():
    rng = np.random.default_rng(7)
    m = gaussian_bump_metric(dim=1, epsilon=0.5)
    C = audit_assumptions(m).C_ellipticity
    x = rng.uniform(-8, 8, size=(200, 1))
    xi = rng.uniform(-4, 4, size=(200, 1))
    xi[np.abs(xi) < 0.1] = 0.5
    p = principal_symbol(m, x, xi)
    nsq = np.sum(xi**2, axis=1)
    assert np.all(p <= C * nsq * (1 + 1e-12))
    assert np.all(p >= nsq / C * (1 - 1e-12))


def test_audit_identity_metric():
    rep = audit_assumptions(flat_metric(dim=1))
    assert rep.C_ellipticity == 1.0
    assert rep.min_eigenvalue == 1.0
    assert rep.C_alpha[1] == 0.0
    assert rep.C_alpha[2] == 0.0


def test_audit_bump_half():
    rep = audit_assumptions(gaussian_bump_metric(dim=1, epsilon=0.5))
    np.testing.assert_allclose(rep.C_ellipticity, 1.5, rtol=0, atol=1e-12)


def test_audit_constants_stable_under_refinement():
    m = gaussian_bump_metric(dim=1, epsilon=0.1)
    lo = audit_assumptions(m, n_samples=201)
    hi = audit_assumptions(m, n_samples=401)
    assert hi.C_ellipticity >= lo.C_ellipticity - 1e-12
    for k in lo.C_alpha:
        assert hi.C_alpha[k] >= lo.C_alpha[k] - 1e-12
        assert hi.C_alpha[k] <= lo.C_alpha[k] * 1.01 + 1e-12


def _indefinite_metric():
    def _g(pts):
        w = 1.0 - 2.0 * np.exp(-np.sum(pts**2, axis=1))
        return w[:, None, None] * np.eye(1)

    def _jet(pts):
        n = pts.shape[0]
        return _g(pts), np.zeros((n, 1, 1, 1)), np.zeros((n, 1, 1, 1, 1))

    return MetricField(dim=1, box_length=16.0, inverse_metric=_g,
                       inverse_metric_jet=_jet,
                       derivative_order=2, is_flat=False, label="indefinite")


def test_audit_rejects_degenerate_metric():
    with pytest.raises(EllipticityError):
        audit_assumptions(_indefinite_metric())


def test_principal_symbol_rejects_non_finite():
    m = flat_metric(dim=1)
    with pytest.raises(ValueError):
        principal_symbol(m, np.array([[np.nan]]), np.array([[1.0]]))
    with pytest.raises(ValueError):
        principal_symbol(m, np.array([[0.0]]), np.array([[np.inf]]))


@pytest.mark.parametrize("bad", [0.0, 1.0, -2.0])
def test_check_sigma_rejects(bad):
    with pytest.raises(ValueError):
        check_sigma(bad)


@pytest.mark.parametrize("good", [0.5, 2.0, 3.0, 2.7])
def test_check_sigma_accepts(good):
    assert check_sigma(good) == good


@pytest.mark.parametrize("d", [1, 2, 3])
def test_solve_blocks_matches_lapack(d):
    rng = np.random.default_rng(d)
    M = rng.normal(size=(4, 50, d, d)) + 3.0 * np.eye(d)
    R = rng.normal(size=(4, 50, d, 1))      # one right-hand side, as a Newton step
    inv, sol = solve_blocks(M, np.eye(d)), solve_blocks(M, R)
    assert inv.shape == M.shape and sol.shape == R.shape
    if d == 1:
        # the division is LAPACK's value bit for bit
        np.testing.assert_array_equal(inv, np.linalg.inv(M))
        np.testing.assert_array_equal(sol, np.linalg.solve(M, R))
    np.testing.assert_allclose(inv, np.linalg.inv(M), rtol=1e-13, atol=1e-13)
    np.testing.assert_allclose(sol, np.linalg.solve(M, R), rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("n", [2, 5, 12])
def test_loglog_fit_matches_linregress(n):
    stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(n)
    x = np.sort(rng.uniform(0.01, 1.0, n))
    y = rng.uniform(0.01, 5.0, n)
    ref = stats.linregress(np.log(x), np.log(y))
    assert loglog_fit(x, y) == (ref.slope, ref.intercept, ref.rvalue ** 2)


def test_loglog_fit_exact_power_law():
    x = 2.0 ** -np.arange(3, 9)
    slope, intercept, r2 = loglog_fit(x, 3.0 * x ** -0.75)
    assert abs(slope + 0.75) < 1e-13
    assert abs(intercept - np.log(3.0)) < 1e-12
    assert abs(r2 - 1.0) < 1e-14


@pytest.mark.parametrize("x, y", [([0.5, 0.5, 0.5], [1.0, 2.0, 3.0]), ([], [])])
def test_loglog_fit_rejects_degenerate_x(x, y):
    with pytest.raises(ValueError):
        loglog_fit(np.asarray(x), np.asarray(y))
