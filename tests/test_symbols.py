"""Cutoffs and phase-space symbol factories."""

import dataclasses
import warnings

import numpy as np
import pytest

from fracwkb.metric import flat_metric, gaussian_bump_metric, principal_jet
from fracwkb.symbols import (ConstantWindow, GaussianWindow, Jet, SymbolFunction,
                             fractional_symbol, localized_amplitude, make_bump)

# mpmath 50-digit values of the glued-exponential construction
# (notes/oracles/bump_values.py)
BUMP_QUARTER_4 = {
    0.3: 0.022977369910025588,
    0.35: 0.30294071603459255,
    0.45: 0.97702263008997441,
    3.0: 0.5,
    3.5: 0.064969169128664062,
}
BUMP_KERNEL_CFG = {0.4: 0.69705928396540745, 3.3: 0.74396249132475822}
# mpmath 50-digit first and second derivatives of make_bump(0.25, 3.8, (0.5, 3.0))
BUMP_KERNEL_CFG_DERIVATIVES = {
    (0.3, 1): 2.3852498530921182,
    (0.3, 2): 153.39180526874588,
    (0.4, 1): 7.625498060665369,
    (0.4, 2): -34.2268166412605,
    (3.3, 1): -2.3027193941706634,
    (3.3, 2): -4.732856649197433,
    (3.65, 1): -0.5990722646254392,
    (3.65, 2): 14.21448432608715,
}


def test_bump_plateau_and_outside():
    cut = make_bump(0.25, 4.0, (0.5, 2.0))
    assert cut(1.0) == 1.0
    assert cut(0.5) == 1.0
    assert cut(2.0) == 1.0
    assert cut(5.0) == 0.0
    assert cut(0.1) == 0.0


@pytest.mark.parametrize("lam,val", sorted(BUMP_QUARTER_4.items()))
def test_bump_frozen_values(lam, val):
    cut = make_bump(0.25, 4.0, (0.5, 2.0))
    np.testing.assert_allclose(cut(lam), val, rtol=1e-14)


@pytest.mark.parametrize("lam,val", sorted(BUMP_KERNEL_CFG.items()))
def test_bump_frozen_values_kernel_config(lam, val):
    cut = make_bump(0.25, 3.8, (0.5, 3.0))
    np.testing.assert_allclose(cut(lam), val, rtol=1e-14)


def test_bump_monotone_on_ramps():
    cut = make_bump(0.25, 4.0, (0.5, 2.0))
    rising = cut(np.linspace(0.25, 0.5, 60))
    falling = cut(np.linspace(2.0, 4.0, 60))
    assert np.all(np.diff(rising) >= 0.0)
    assert np.all(np.diff(falling) <= 0.0)
    assert np.all((cut(np.linspace(0.26, 0.49, 40)) > 0.0)
                  & (cut(np.linspace(0.26, 0.49, 40)) < 1.0))


def test_bump_rejects_inverted_intervals():
    with pytest.raises(ValueError):
        make_bump(1.0, 0.5, (0.6, 0.7))
    with pytest.raises(ValueError):
        make_bump(0.25, 4.0, (2.0, 0.5))
    with pytest.raises(ValueError):
        make_bump(-1.0, 4.0, (0.5, 2.0))
    # r2 = inf satisfies 0 < r1 < ... < r2 on its own
    for r2 in (np.inf, np.nan):
        with pytest.raises(ValueError, match="cutoff needs"):
            make_bump(0.25, r2, (0.5, 2.0))


def test_bump_derivative_vanishes_off_ramps():
    cut = make_bump(0.25, 4.0, (0.5, 2.0))
    assert cut._jet(1.0)[1] == pytest.approx(0.0, abs=1e-10)
    assert cut._jet(5.0)[1] == 0.0


@pytest.mark.parametrize("lam,order", sorted(BUMP_KERNEL_CFG_DERIVATIVES))
def test_bump_derivative_frozen_values(lam, order):
    cut = make_bump(0.25, 3.8, (0.5, 3.0))
    np.testing.assert_allclose(cut._jet(lam)[order],
                               BUMP_KERNEL_CFG_DERIVATIVES[lam, order], rtol=1e-13)


def test_bump_derivatives_finite_at_ramp_ends():
    cut = make_bump(1e-300, 3.8, (1.0, 3.0))
    # ramp ends, outside the support, and a rising-ramp argument of 1e-300
    ends = np.array([1e-300, 1.0, 3.0, 3.8, 0.0, 5.0, 2e-300])
    for order in (0, 1, 2):
        np.testing.assert_array_equal(cut._jet(ends)[order], 0.0 if order else cut(ends))


def test_cutoff_jets_agree_with_their_values_at_nan():
    # the jet takes its value from the same guarded step as the cutoff, so
    # at NaN both give 0, with zero derivatives and no warning
    nan = np.array([np.nan])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cut = make_bump(0.25, 4.0, (0.5, 2.0))
        assert cut(nan)[0] == 0.0
        for part in cut._jet(nan):
            np.testing.assert_array_equal(part, [0.0])
        a = localized_amplitude(flat_metric(dim=1), make_bump(0.25, 4.0, (0.5, 2.0)),
                                window=GaussianWindow(1, width=0.8))
        value = a([[0.3]], [[np.nan]])
        assert value[0] == 0.0
        np.testing.assert_array_equal(a.jet([[0.3]], [[np.nan]]).value, value)


def _x_xi(grad_xi=True, value=True, p=True):
    """a = x xi, whose jet carries grad_x and, as asked, grad_xi, the value and p."""
    def jet(pts, cov):
        return (cov, pts if grad_xi else None, None, None, None,
                pts[:, 0] * cov[:, 0] if value else None, cov[:, 0] ** 2 if p else None)

    return SymbolFunction(1, lambda pts, cov: pts[:, 0] * cov[:, 0], jet, label="x*xi")


def test_symbol_without_derivative_raises():
    sym = _x_xi(grad_xi=False)
    np.testing.assert_array_equal(sym.grad_x([[0.1]], [[1.0]]), [[1.0]])
    with pytest.raises(NotImplementedError, match=r"'x\*xi' has no grad_xi"):
        sym.grad_xi([[0.1]], [[1.0]])
    with pytest.raises(NotImplementedError, match=r"'x\*xi' has no hess_xx"):
        sym.hess_xx([[0.1]], [[1.0]])


def test_jet_without_the_seven_parts_raises():
    # a jet of the five derivatives alone, without the value and p
    sym = SymbolFunction(1, lambda pts, cov: pts[:, 0] * cov[:, 0],
                         lambda pts, cov: (cov, pts, None, None, None), label="x*xi")
    with pytest.raises(ValueError, match=r"'x\*xi' must return the seven parts \('grad_x', "):
        sym.jet([[0.1]], [[1.0]])


@pytest.mark.parametrize("missing", ["value", "p"])
def test_jet_without_its_value_or_p_raises(missing):
    # the value and p are required parts: no consumer evaluates them apart
    sym = _x_xi(**{missing: False})
    with pytest.raises(ValueError, match=r"'x\*xi' must return .* with a value and p"):
        sym.jet([[0.1]], [[1.0]])
    with pytest.raises(ValueError, match="with a value and p"):
        sym.grad_x([[0.1]], [[1.0]])


def test_cutoffs_declare_their_support_and_plateau():
    bump = make_bump(0.25, 4.0, (0.5, 2.0))
    assert bump.support == (0.25, 4.0) and bump.plateau == (0.5, 2.0)
    # an amplitude's p-band is its cutoff's support
    m = flat_metric(dim=1)
    assert localized_amplitude(m, bump).xi_band == (0.25, 4.0)
    assert localized_amplitude(m, bump).metric is m


@pytest.mark.parametrize("sigma", [0.5, 2.0, 3.0])
def test_fractional_symbol_matches_metric_power(sigma):
    m = gaussian_bump_metric(dim=1, epsilon=0.1)
    q0 = fractional_symbol(m, sigma, xi_band=(0.3, 3.0))
    x = np.linspace(-1.0, 1.0, 7)[:, None]
    xi = np.linspace(0.9, 1.5, 7)[:, None]
    p = principal_jet(m, x, xi)[1]
    np.testing.assert_allclose(q0(x, xi), p ** (0.5 * sigma), rtol=1e-13)


def test_fractional_symbol_gradients_match_differences():
    rng = np.random.default_rng(3)
    m = gaussian_bump_metric(dim=1, epsilon=0.1)
    q0 = fractional_symbol(m, 2.0, xi_band=(0.3, 3.0))
    step = 1e-6
    for _ in range(10):
        x = rng.uniform(-1.0, 1.0, size=(1, 1))
        xi = rng.uniform(0.9, 1.4, size=(1, 1))
        fd_x = (q0(x + step, xi) - q0(x - step, xi)) / (2 * step)
        fd_xi = (q0(x, xi + step) - q0(x, xi - step)) / (2 * step)
        np.testing.assert_allclose(q0.grad_x(x, xi)[0, 0], fd_x[0], rtol=1e-6)
        np.testing.assert_allclose(q0.grad_xi(x, xi)[0, 0], fd_xi[0], rtol=1e-6)


def test_fractional_symbol_hessians_match_differences():
    m = gaussian_bump_metric(dim=1, epsilon=0.1)
    q0 = fractional_symbol(m, 2.0, xi_band=(0.3, 3.0))
    x = np.array([[0.4]])
    xi = np.array([[1.1]])
    step = 1e-5
    fd = (q0.grad_x(x, xi + step) - q0.grad_x(x, xi - step)) / (2 * step)
    np.testing.assert_allclose(q0.hess_xxi(x, xi)[0, 0, 0], fd[0, 0], rtol=1e-5)
    fd2 = (q0.grad_xi(x, xi + step) - q0.grad_xi(x, xi - step)) / (2 * step)
    np.testing.assert_allclose(q0.hess_xixi(x, xi)[0, 0, 0], fd2[0, 0], rtol=1e-5)


def _separate_evaluators(m, sigma):
    """The chain-rule formulas of q0 = p^{s}, one metric evaluation each, in
    the operation order the fused jet keeps."""
    s = 0.5 * sigma

    def core(pts, cov):
        G, dG, _ = m.inverse_metric_jet(pts)
        p = np.einsum("ni,nij,nj->n", cov, G, cov)
        px = np.einsum("ni,nkij,nj->nk", cov, dG, cov)
        pxi = 2.0 * np.einsum("nij,nj->ni", G, cov)
        return G, dG, p, px, pxi

    def grad_x(pts, cov):
        _, _, p, px, _ = core(pts, cov)
        return s * (p ** (s - 1.0))[:, None] * px

    def grad_xi(pts, cov):
        _, _, p, _, pxi = core(pts, cov)
        return s * (p ** (s - 1.0))[:, None] * pxi

    def hess_xx(pts, cov):
        _, _, p, px, _ = core(pts, cov)
        pxx = np.einsum("ni,nklij,nj->nkl", cov, m.inverse_metric_jet(pts)[2], cov)
        return (s * (s - 1.0) * (p ** (s - 2.0))[:, None, None] * px[:, :, None] * px[:, None, :]
                + s * (p ** (s - 1.0))[:, None, None] * pxx)

    def hess_xixi(pts, cov):
        G, _, p, _, pxi = core(pts, cov)
        return (s * (s - 1.0) * (p ** (s - 2.0))[:, None, None] * pxi[:, :, None] * pxi[:, None, :]
                + 2.0 * s * (p ** (s - 1.0))[:, None, None] * G)

    def hess_xxi(pts, cov):
        _, dG, p, px, pxi = core(pts, cov)
        pxxi = 2.0 * np.einsum("nkij,nj->nki", dG, cov)
        return (s * (s - 1.0) * (p ** (s - 2.0))[:, None, None] * px[:, :, None] * pxi[:, None, :]
                + s * (p ** (s - 1.0))[:, None, None] * pxxi)

    return grad_x, grad_xi, hess_xx, hess_xixi, hess_xxi


@pytest.mark.parametrize("sigma", [0.5, 2.0, 3.0])
@pytest.mark.parametrize("xi_sign", [1.0, -1.0])
def test_fractional_symbol_jet_matches_separate_evaluators(sigma, xi_sign):
    m = gaussian_bump_metric(dim=1, epsilon=0.1)
    q0 = fractional_symbol(m, sigma, xi_band=(0.3, 3.0))
    rng = np.random.default_rng(11)
    x = rng.uniform(-1.5, 1.5, size=(40, 1))
    xi = xi_sign * rng.uniform(0.8, 1.6, size=(40, 1))
    jet = q0.jet(x, xi)
    assert isinstance(jet, Jet)
    for name, part, ref in zip(Jet._fields, jet, _separate_evaluators(m, sigma)):
        np.testing.assert_array_equal(part, getattr(q0, name)(x, xi), err_msg=name)
        np.testing.assert_array_equal(part, ref(x, xi), err_msg=name)


def test_localized_amplitude_jet_carries_the_x_derivatives():
    bump = gaussian_bump_metric(dim=1, epsilon=0.1)
    calls = []

    def counted(pts):
        calls.append(len(pts))
        return bump.inverse_metric_jet(pts)

    a = localized_amplitude(dataclasses.replace(bump, inverse_metric_jet=counted),
                            make_bump(0.3, 3.0, (0.5, 2.0)),
                            window=GaussianWindow(1, center=0.2, width=0.8))
    x = np.linspace(-1.0, 1.0, 9)[:, None]
    xi = np.linspace(0.7, 1.5, 9)[:, None]
    grad_x, grad_xi, hess_xx, hess_xixi, hess_xxi, _, _ = a.jet(x, xi)
    assert calls == [9]
    assert grad_xi is None and hess_xixi is None and hess_xxi is None
    np.testing.assert_array_equal(grad_x, a.grad_x(x, xi))
    np.testing.assert_array_equal(hess_xx, a.hess_xx(x, xi))
    with pytest.raises(NotImplementedError, match=r"'window\*cut\(p\)' has no grad_xi"):
        a.grad_xi(x, xi)


def test_localized_amplitude_derivatives_match_differences():
    m = gaussian_bump_metric(dim=1, epsilon=0.1)
    a = localized_amplitude(m, make_bump(0.3, 3.0, (0.5, 2.0)),
                            window=GaussianWindow(1, center=0.2, width=0.8))
    x = np.linspace(-1.0, 1.0, 9)[:, None]
    xi = np.full((9, 1), 0.9)
    step = 1e-5
    fd = (a(x + step, xi) - a(x - step, xi)) / (2 * step)
    np.testing.assert_allclose(a.grad_x(x, xi)[:, 0], fd, rtol=1e-7, atol=1e-9)
    fd2 = (a.grad_x(x + step, xi) - a.grad_x(x - step, xi)) / (2 * step)
    np.testing.assert_allclose(a.hess_xx(x, xi)[:, 0, 0], fd2[:, 0], rtol=1e-6, atol=1e-8)


@pytest.mark.parametrize("window", [ConstantWindow(1),
                                    GaussianWindow(1, center=0.3, width=0.8)])
def test_window_derivatives_match_differences(window):
    pts = np.linspace(-1.0, 1.0, 9)[:, None]
    step = 1e-6
    value, grad, hess = window._jet(pts)
    np.testing.assert_array_equal(value, window(pts))
    fd = (window(pts + step) - window(pts - step)) / (2 * step)
    np.testing.assert_allclose(grad[:, 0], fd, rtol=1e-6, atol=1e-9)
    fd2 = (window._jet(pts + step)[1] - window._jet(pts - step)[1]) / (2 * step)
    np.testing.assert_allclose(hess[:, 0, 0], fd2[:, 0], rtol=1e-6, atol=1e-9)


def test_localized_amplitude_support():
    m = flat_metric(dim=1)
    cut = make_bump(0.25, 4.0, (0.5, 2.0))
    a = localized_amplitude(m, cut)
    x = np.zeros((1, 1))
    assert a(x, np.array([[1.0]]))[0] == 1.0       # p = 1 on the plateau
    assert a(x, np.array([[3.0]]))[0] == 0.0       # p = 9 outside the support
    assert a(x, np.array([[0.3]]))[0] == 0.0       # p = 0.09 below the support


def test_localized_amplitude_inherits_window():
    m = flat_metric(dim=1)
    cut = make_bump(0.25, 4.0, (0.5, 2.0))
    win = GaussianWindow(1, center=0.0, width=0.5)
    a = localized_amplitude(m, cut, window=win)
    x = np.array([[0.0], [1.0]])
    xi = np.array([[1.0], [1.0]])
    vals = a(x, xi)
    np.testing.assert_allclose(vals, win(x) * cut(np.array([1.0, 1.0])), rtol=1e-13)


@pytest.mark.parametrize("sigma", [0.5, 2.0])
def test_symbol_jets_carry_the_value_and_p(sigma):
    m = gaussian_bump_metric(dim=1, epsilon=0.1)
    x = np.linspace(-1.0, 1.0, 8)[:, None]
    xi = np.linspace(-1.5, 1.5, 8)[:, None]
    p = principal_jet(m, x, xi)[1]
    q0 = fractional_symbol(m, sigma, xi_band=(0.3, 3.0))
    a = localized_amplitude(m, make_bump(0.3, 3.0, (0.5, 2.0)),
                            window=GaussianWindow(1, center=0.2, width=0.8))
    for sym in (q0, a):
        *_, value, p_jet = sym.jet(x, xi)
        np.testing.assert_array_equal(value, sym(x, xi))
        np.testing.assert_array_equal(p_jet, p)
