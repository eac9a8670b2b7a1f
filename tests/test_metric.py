"""Metric field construction, principal symbol, and assumption audits."""

import dataclasses
import warnings

import numpy as np
import pytest

from fracwkb.metric import (EllipticityError, MetricField, as_pairs, as_points,
                            audit_assumptions, check_sigma, flat_metric,
                            gaussian_bump_metric, loglog_fit, principal_jet,
                            solve_blocks)


def test_principal_symbol_identity_metric():
    m = flat_metric(dim=2)
    val = principal_jet(m, np.array([[0.3, -1.2]]), np.array([[1.0, 0.0]]))[1]
    assert val[0] == 1.0


def test_principal_symbol_bump_at_origin():
    m = gaussian_bump_metric(dim=1, epsilon=0.5)
    val = principal_jet(m, np.array([[0.0]]), np.array([[1.0]]))[1]
    np.testing.assert_allclose(val[0], 1.5, rtol=0, atol=1e-15)


def test_principal_symbol_exactly_quadratic():
    rng = np.random.default_rng(11)
    m = gaussian_bump_metric(dim=1, epsilon=0.3)
    for _ in range(25):
        x = rng.uniform(-2, 2, size=(4, 1))
        xi = rng.uniform(-3, 3, size=(4, 1))
        lam = rng.uniform(0.1, 5.0)
        p1 = principal_jet(m, x, lam * xi)[1]
        p2 = lam**2 * principal_jet(m, x, xi)[1]
        np.testing.assert_allclose(p1, p2, rtol=1e-13)


def test_rayleigh_quotient_within_ellipticity_band():
    rng = np.random.default_rng(7)
    m = gaussian_bump_metric(dim=1, epsilon=0.5)
    C = audit_assumptions(m).C_ellipticity
    x = rng.uniform(-8, 8, size=(200, 1))
    xi = rng.uniform(-4, 4, size=(200, 1))
    xi[np.abs(xi) < 0.1] = 0.5
    p = principal_jet(m, x, xi)[1]
    nsq = np.sum(xi**2, axis=1)
    assert np.all(p <= C * nsq * (1 + 1e-12))
    assert np.all(p >= nsq / C * (1 - 1e-12))


def test_audit_identity_metric():
    rep = audit_assumptions(flat_metric(dim=1))
    assert rep.C_ellipticity == 1.0
    assert rep.min_eigenvalue == rep.max_eigenvalue == 1.0
    assert rep.C_alpha[1] == 0.0
    assert rep.C_alpha[2] == 0.0


def test_audit_rejects_an_empty_sample():
    with pytest.raises(ValueError, match="^n_samples must be >= 1"):
        audit_assumptions(flat_metric(dim=1), n_samples=0)


def test_audit_bump_half():
    rep = audit_assumptions(gaussian_bump_metric(dim=1, epsilon=0.5))
    np.testing.assert_allclose(rep.C_ellipticity, 1.5, rtol=0, atol=1e-12)
    assert rep.max_eigenvalue == rep.C_ellipticity


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

    return MetricField(dim=1, box_length=16.0, inverse_metric_jet=_jet, is_flat=False,
                       label="indefinite")


def test_inverse_metric_is_the_first_part_of_the_jet():
    m = gaussian_bump_metric(dim=1, epsilon=0.1)
    pts = np.linspace(-3.0, 3.0, 25)[:, None]
    e = 0.1 * np.exp(-np.sum(pts**2, axis=1))
    np.testing.assert_array_equal(m.inverse_metric(pts), (1.0 + e)[:, None, None] * np.eye(1))
    # the d = 1 jet is the general-d formula's values, written without the eye
    quad = 4.0 * pts[:, :, None] * pts[:, None, :] - 2.0 * np.eye(1)
    for got, want in zip(m.inverse_metric_jet(pts)[1:],
                         ((-2.0 * pts * e[:, None])[:, :, None, None] * np.eye(1),
                          (quad * e[:, None, None])[:, :, :, None, None] * np.eye(1))):
        np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(flat_metric(dim=2).inverse_metric(np.zeros((4, 2))),
                                  np.broadcast_to(np.eye(2), (4, 2, 2)))
    with pytest.raises(TypeError):
        dataclasses.replace(m, inverse_metric=lambda pts: np.ones((len(pts), 1, 1)))


def test_audit_rejects_degenerate_metric():
    with pytest.raises(EllipticityError):
        audit_assumptions(_indefinite_metric())


def test_metric_rejects_a_dimension_below_one():
    with pytest.raises(ValueError, match="dim must be a positive integer"):
        dataclasses.replace(flat_metric(dim=1), dim=0)


def test_point_batches_must_match_the_dimension_and_each_other():
    with pytest.raises(ValueError, match=r"2 component\(s\), got shape \(4, 3\)"):
        as_points(np.zeros((4, 3)), 2)
    with pytest.raises(ValueError, match="x and xi batches do not match"):
        as_pairs(np.zeros((2, 1)), np.zeros((3, 1)), 1)
    # a single point is broadcast against the other batch
    pts, cov = as_pairs(np.zeros((1, 1)), np.ones((3, 1)), 1)
    assert pts.shape == cov.shape == (3, 1)


@pytest.mark.parametrize("length", [np.inf, np.nan, 0.0])
def test_metric_rejects_a_box_that_is_not_positive_and_finite(length):
    with pytest.raises(ValueError, match="box_length"):
        dataclasses.replace(flat_metric(dim=1), box_length=length)
    with pytest.raises(ValueError, match="box_length"):
        gaussian_bump_metric(dim=1, box_length=length)


@pytest.mark.parametrize("epsilon", [np.nan, np.inf, -0.1])
def test_bump_metric_rejects_an_epsilon_that_is_not_nonnegative_and_finite(epsilon):
    with pytest.raises(ValueError, match="epsilon"):
        gaussian_bump_metric(dim=1, epsilon=epsilon)


@pytest.mark.parametrize("bad", [0.0, 1.0, -2.0, np.inf, np.nan])
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


@pytest.mark.parametrize("x, y", [([0.25, 0.0, 0.5], [1.0, 2.0, 3.0]),
                                  ([0.25, 0.5, 1.0], [1.0, np.nan, 3.0]),
                                  ([0.25, np.inf, 1.0], [1.0, 2.0, 3.0]),
                                  ([0.25, 0.5, 1.0], [1.0, -2.0, 3.0])])
def test_loglog_fit_rejects_samples_that_are_not_positive_and_finite(x, y):
    # the samples are checked before np.log, so no RuntimeWarning escapes
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="positive and finite"):
            loglog_fit(np.asarray(x), np.asarray(y))


@pytest.mark.parametrize("x, y", [([0.5, 0.5, 0.5], [1.0, 2.0, 3.0]), ([], [])])
def test_loglog_fit_rejects_degenerate_x(x, y):
    with pytest.raises(ValueError):
        loglog_fit(np.asarray(x), np.asarray(y))
