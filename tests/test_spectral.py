"""Periodic functional calculus: grids, propagation and localization."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from fracwkb.metric import MetricField, check_h, flat_metric, gaussian_bump_metric
from fracwkb.spectral import (BoxGrid, discretize_P_1d, flat_operator,
                              frequency_localize, localized_gaussian,
                              lp_lq_norm, make_grid,
                              measure_bernstein, modulated_gaussian,
                              propagate, sobolev_norm, state_from_fourier,
                              state_from_values)
from fracwkb.symbols import make_bump, smooth_step

import arclength_oracle
from fourier_states import plane_wave

# divergence-form FD + Richardson reference for the epsilon=0.1, L=16 bump
# metric (notes/oracles/eigs_bump.py); each nonzero eigenvalue is double
BUMP_EIGS = [0.0, 0.1558489529, 0.1558489529, 0.6233958114, 0.6233958114,
             1.4026405754, 1.4026405754, 2.4935832441, 2.4935832441,
             3.8962238151]


def _parseval_gap(u):
    """|physical L2 - Fourier-side L2|: with c_k = FFT(u) / n^d the two are
    ||u||_2 and sqrt(L^d sum |c_k|^2)."""
    fourier_side = np.sqrt(u.grid.length**u.grid.dim * np.sum(np.abs(u.fourier) ** 2))
    return abs(u.l2_norm() - float(fourier_side))


def test_plane_wave_norms():
    grid = make_grid(1, 128)
    u = plane_wave(grid, 3)
    np.testing.assert_allclose(u.l2_norm(), np.sqrt(2.0 * np.pi), rtol=1e-13)
    np.testing.assert_allclose(u.lq_norm(np.inf), 1.0, rtol=1e-13)
    assert _parseval_gap(u) < 1e-12


def test_fourier_round_trip():
    grid = make_grid(1, 64)
    u = modulated_gaussian(grid, np.pi, 0.4, omega=5.0)
    v = state_from_fourier(grid, u.fourier)
    np.testing.assert_allclose(v.values, u.values, atol=1e-13)
    assert _parseval_gap(u) < 1e-12


def test_fourier_is_computed_on_first_read():
    grid = make_grid(1, 64)
    u = modulated_gaussian(grid, np.pi, 0.4, omega=5.0)
    assert "fourier" not in vars(u)
    np.testing.assert_array_equal(u.fourier, np.fft.fftn(u.values, axes=(-1,)) / 64)
    assert "fourier" in vars(u)
    with pytest.raises(TypeError):
        dataclasses.replace(u, fourier=u.fourier)


def test_state_from_fourier_keeps_the_given_coefficients():
    grid = make_grid(1, 64)
    c = np.zeros(64, dtype=complex)
    c[[3, 5]] = [0.5, 0.25j]
    u = state_from_fourier(grid, c)
    np.testing.assert_array_equal(u.fourier, c)
    # a second transform of the values would not give back the zeros exactly
    assert np.max(np.abs(np.fft.fft(u.values) / 64 - c)) > 0.0


def test_one_dimensional_transforms_are_fftn_bit_for_bit():
    """1-D fields transform along their last axis alone, with fftn's bits."""
    grid = make_grid(1, 256)
    rng = np.random.default_rng(7)
    values = rng.standard_normal((3, 256)) + 1j * rng.standard_normal((3, 256))
    u = state_from_values(grid, values)
    np.testing.assert_array_equal(u.fourier, np.fft.fftn(values, axes=(-1,)) / 256)
    v = state_from_fourier(grid, u.fourier)
    np.testing.assert_array_equal(v.values, np.fft.ifftn(u.fourier * 256, axes=(-1,)))


def test_two_dimensional_fields_round_trip():
    grid = make_grid(2, 32)
    u = modulated_gaussian(grid, (np.pi, 2.0), 0.5, omega=(3.0, -2.0))
    np.testing.assert_array_equal(u.fourier, np.fft.fftn(u.values, axes=(-2, -1)) / 32**2)
    v = state_from_fourier(grid, u.fourier)
    np.testing.assert_allclose(v.values, u.values, rtol=0, atol=1e-13)
    assert _parseval_gap(u) < 1e-12


def _band_limited_stack(path):
    """An operator and a two-field stack whose coefficients are exact zeros
    off some modes: given Fourier modes on the flat path; on the eig path
    (the flat metric's eigenbasis, weight 1) fields equal at nodes j and
    n - j, whose odd-block coefficients are then exact zeros."""
    if path == "flat":
        grid = make_grid(1, 64)
        c = np.zeros((2, 64), dtype=complex)
        c[0, [3, 5]] = [0.5, 0.25j]
        c[1, [5, -7]] = [1.0, -0.5]
        return flat_operator(grid), state_from_fourier(grid, c)
    op = discretize_P_1d(flat_metric(dim=1), 65)
    rng = np.random.default_rng(3)
    half = rng.standard_normal((2, 33)) + 1j * rng.standard_normal((2, 33))
    return op, state_from_values(op.grid, np.concatenate([half, half[:, :0:-1]], axis=1))


@pytest.mark.parametrize("path", ["flat", "eig"])
def test_apply_function_evaluates_fn_on_the_occupied_modes_only(path):
    """fn sees the eigenvalues of the modes some field occupies, and f(P) u
    is the dense product's bit for bit."""
    op, u = _band_limited_stack(path)
    coeffs = op.coefficients(u)
    occupied = np.any(coeffs != 0, axis=0)
    assert 0 < np.count_nonzero(occupied) < occupied.size
    times = np.array([[-0.3], [0.7]])
    seen = []

    def fn(lam):
        seen.append(lam)
        return np.exp(1j * times * lam ** 0.75)

    got = op.apply_function(u, fn).values
    assert len(seen) == 1
    np.testing.assert_array_equal(seen[0], op.lam[occupied])
    want = op.synthesize(coeffs * np.exp(1j * times * op.lam ** 0.75)).values
    np.testing.assert_array_equal(got, want)


def test_apply_function_on_a_2d_grid_matches_the_dense_product():
    grid = make_grid(2, 16)
    op = flat_operator(grid)
    c = np.zeros((16, 16), dtype=complex)
    c[1, 2], c[-3, 0], c[4, -5] = 1.0, 0.5j, -0.25
    u = state_from_fourier(grid, c)
    times = np.array([-0.3, 0.7])[:, None, None]
    seen = []

    def fn(lam):
        seen.append(lam)
        return np.exp(1j * times * lam)

    got = op.apply_function(u, fn).values
    np.testing.assert_array_equal(seen[0].ravel(), grid.lam()[c != 0])
    want = op.synthesize(c * np.exp(1j * times * grid.lam())).values
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("path", ["flat", "eig"])
def test_apply_function_of_the_zero_state_is_zero(path):
    op = _band_limited_stack(path)[0]
    seen = []

    def fn(lam):
        seen.append(lam)
        return np.exp(1j * np.array([[0.1], [0.2], [0.3]]) * lam)

    got = op.apply_function(state_from_values(op.grid, np.zeros(op.grid.n)), fn).values
    assert seen[0].size == 0
    assert got.shape == (3, op.grid.n)
    np.testing.assert_array_equal(got, 0.0)


def test_eigenbasis_transforms_take_no_fft():
    op = discretize_P_1d(gaussian_bump_metric(dim=1, epsilon=0.1), 65)
    u = modulated_gaussian(op.grid, 8.0, 0.5, omega=2.0)
    v = op.synthesize(op.coefficients(u))
    assert op.kind == "eig" and flat_operator(op.grid).kind == "flat"
    assert "fourier" not in vars(u) and "fourier" not in vars(v)
    with pytest.raises(TypeError):
        dataclasses.replace(op, kind="flat")


@pytest.mark.parametrize("n, length", [(0, 2.0 * np.pi), (-3, 2.0 * np.pi), (8, 0.0),
                                       (8, -1.0), (8, np.inf), (8, np.nan)])
def test_grid_rejects_an_empty_or_unbounded_box(n, length):
    with pytest.raises(ValueError, match="n >= 1"):
        make_grid(1, n, length)
    with pytest.raises(ValueError, match="n >= 1"):
        BoxGrid(1, n, length)


def test_propagate_zero_time_identity():
    grid = make_grid(1, 64)
    u = modulated_gaussian(grid, np.pi, 0.4, omega=3.0)
    v = propagate(u, flat_operator(grid), 2.0, 0.0)
    np.testing.assert_allclose(v.values, u.values, atol=1e-14)


def _weighted_norm(u, op):
    """sqrt(sum |u|^2 w dx), the norm the operator's eigenbasis is orthonormal in."""
    return np.sqrt(np.sum(np.abs(u.values) ** 2 * op.weight) * op.grid.spacing)


@pytest.mark.parametrize(
    "sigma, path",
    [pytest.param(s, "flat", id=str(s)) for s in (0.5, 2.0, 3.0)]
    + [pytest.param(s, "eig", id=f"eig-{s}") for s in (0.5, 2.0, 3.0)],
)
def test_propagate_is_unitary(sigma, path):
    if path == "flat":
        op = flat_operator(make_grid(1, 128))
        u = modulated_gaussian(op.grid, 2.0, 0.3, omega=8.0)
    else:
        op = discretize_P_1d(gaussian_bump_metric(dim=1, epsilon=0.1), 255)
        u = modulated_gaussian(op.grid, 8.0, 1.0, omega=2.0)
    v = propagate(u, op, sigma, 0.7)
    np.testing.assert_allclose(_weighted_norm(v, op), _weighted_norm(u, op), rtol=1e-12)


def test_propagate_single_mode_phase():
    grid = make_grid(1, 64)
    u = plane_wave(grid, 3)
    op = flat_operator(grid)
    t = 0.7
    for sigma in (0.5, 2.0):
        v = propagate(u, op, sigma, t)
        np.testing.assert_allclose(v.values, np.exp(1j * t * 3.0**sigma) * u.values,
                                   atol=1e-12)
    w = propagate(u, op, 2.0, t, h=0.25)
    np.testing.assert_allclose(w.values, np.exp(1j * t * 0.25 * 9.0) * u.values,
                               atol=1e-12)


def test_propagate_group_property():
    grid = make_grid(1, 128)
    op = discretize_P_1d(gaussian_bump_metric(dim=1, epsilon=0.1), 65)
    u = modulated_gaussian(op.grid, 8.0, 1.0, omega=2.0)
    via = propagate(propagate(u, op, 0.5, 0.3), op, 0.5, 0.4)
    direct = propagate(u, op, 0.5, 0.7)
    np.testing.assert_allclose(via.values, direct.values, atol=1e-12)


def test_localized_gaussian_sits_in_the_band_at_the_centre():
    grid = make_grid(1, 512)
    cut = make_bump(0.25, 4.0, (0.5, 2.0))
    h = 1.0 / 16.0
    u = localized_gaussian(grid, cut, h)
    op = flat_operator(grid)
    coeffs = op.coefficients(u)
    outside = (h**2 * op.lam <= 0.25) | (h**2 * op.lam >= 4.0)
    assert np.max(np.abs(coeffs[outside])) == 0.0
    peak = grid.meshes()[0][np.argmax(np.abs(u.values))]
    assert abs(peak - np.pi) < 0.1


def test_frequency_localize_plateau_and_tail():
    grid = make_grid(1, 256)
    cut = make_bump(0.25, 4.0, (0.5, 2.0))
    h = 1.0 / 8.0
    on_plateau = frequency_localize(plane_wave(grid, 8), cut, h)   # h^2 lam = 1
    np.testing.assert_allclose(on_plateau.values, plane_wave(grid, 8).values,
                               atol=1e-13)
    killed = frequency_localize(plane_wave(grid, 40), cut, h)      # h^2 lam = 25
    assert killed.lq_norm(np.inf) < 1e-13


@pytest.mark.parametrize("h", [0.0, -0.1, np.inf, np.nan])
def test_h_that_is_not_positive_and_finite_is_rejected(h):
    # unchecked, h = -0.1 makes h^{sigma-1} complex and the unitary group
    # multiplies this state's L2 norm by 723.5, h = inf leaves the state as
    # it is and h = 0 localizes it to the zero state
    grid = make_grid(1, 64)
    cut = make_bump(0.25, 4.0, (0.5, 2.0))
    u = modulated_gaussian(grid, np.pi, 0.5, 3.0)
    calls = [lambda: check_h(h),
             lambda: propagate(u, flat_operator(grid), 0.5, 1.0, h=h),
             lambda: frequency_localize(u, cut, h),
             lambda: localized_gaussian(grid, cut, h)]
    for call in calls:
        with pytest.raises(ValueError, match=r"^h must be positive and finite"):
            call()


def test_littlewood_paley_reconstruction():
    grid = make_grid(1, 256)
    # the low pass chi falls from 1 to 0 on [1, 4]; with phi(lam) =
    # chi(lam) - chi(4 lam) the blocks telescope to chi(lam / 4^8)
    chi = lambda lam: smooth_step((4.0 - lam) / 3.0)
    phi = lambda lam: chi(lam) - chi(4.0 * lam)
    u = modulated_gaussian(grid, np.pi, 0.3, omega=20.0)
    h = 1.0
    total = frequency_localize(u, chi, h).values.copy()
    for k in range(1, 9):
        block = frequency_localize(u, lambda lam, k=k: phi(lam / 4.0**k), h)
        total += block.values
    np.testing.assert_allclose(total, u.values, atol=1e-10)


def test_sobolev_norm_gamma_zero_is_l2():
    grid = make_grid(1, 128)
    u = modulated_gaussian(grid, 1.0, 0.4, omega=6.0)
    np.testing.assert_allclose(sobolev_norm(u, 0.0), u.l2_norm(), rtol=1e-12)


def test_sobolev_norm_single_mode():
    grid = make_grid(1, 128)
    u = plane_wave(grid, 4)
    expected = np.sqrt(2.0 * np.pi) * (1.0 + 16.0) ** 1.0
    np.testing.assert_allclose(sobolev_norm(u, 2.0), expected, rtol=1e-12)


def test_sobolev_norm_eigenbasis_mode():
    op = discretize_P_1d(gaussian_bump_metric(dim=1, epsilon=0.1), 65)
    j = 5
    u = state_from_values(op.grid, op.basis[:, j])
    np.testing.assert_allclose(sobolev_norm(u, 2.0, op), 1.0 + op.lam[j],
                               rtol=1e-8)


@pytest.mark.parametrize("path", ["flat", "eig"])
def test_parseval_factor_turns_coefficients_into_the_weighted_l2_norm(path):
    if path == "flat":
        op = flat_operator(make_grid(1, 64))
    else:
        op = discretize_P_1d(gaussian_bump_metric(dim=1, epsilon=0.1), 65)
    u = modulated_gaussian(op.grid, 2.0, 0.5, omega=3.0)
    coeff_side = op.parseval_factor * np.sum(np.abs(op.coefficients(u)) ** 2)
    grid_side = op.grid.cell_volume * np.sum(op.weight * np.abs(u.values) ** 2)
    np.testing.assert_allclose(coeff_side, grid_side, rtol=1e-12)


def test_eigenbasis_weighted_orthonormality():
    op = discretize_P_1d(gaussian_bump_metric(dim=1, epsilon=0.1), 65)
    gram = (op.basis.T * (op.weight * op.grid.spacing)) @ op.basis
    np.testing.assert_allclose(gram, np.eye(65), atol=1e-10)


def test_unfolded_basis_is_weighted_orthonormal_at_full_size():
    """At the benchmark's n = 1023 the basis unfolded from the two blocks is
    orthonormal in the weighted inner product (largest Gram gap 3.4e-15)."""
    op = discretize_P_1d(gaussian_bump_metric(dim=1, epsilon=0.1), 1023)
    gram = (op.basis.T * (op.weight * op.grid.spacing)) @ op.basis
    np.testing.assert_allclose(gram, np.eye(1023), rtol=0, atol=1e-12)


def test_lp_lq_norm_closed_forms():
    grid = make_grid(1, 64)
    states = state_from_values(grid, np.tile(plane_wave(grid, 2).values, (9, 1)))
    times = np.linspace(0.0, 1.0, 9)
    L = 2.0 * np.pi
    np.testing.assert_allclose(lp_lq_norm(states, times, 2, 2), L ** 0.5,
                               rtol=1e-12)
    np.testing.assert_allclose(lp_lq_norm(states, times, np.inf, 4),
                               L ** 0.25, rtol=1e-12)
    np.testing.assert_allclose(lp_lq_norm(states, times, 2, np.inf), 1.0,
                               rtol=1e-12)


def test_lp_lq_norm_refinement_stable():
    grid = make_grid(1, 64)

    def sampled(n):
        times = np.linspace(0.0, 1.0, n)
        states = state_from_values(grid, (1.0 + times[:, None]**2) * plane_wave(grid, 1).values)
        return lp_lq_norm(states, times, 4, 2)

    coarse, fine = sampled(33), sampled(65)
    assert abs(coarse - fine) / fine < 5e-3


def test_lq_norm_of_a_stack_is_its_fields_norms():
    grid = make_grid(1, 64)
    op = flat_operator(grid)
    u = modulated_gaussian(grid, 3.0, 0.5, 4.0)
    times = np.linspace(-0.5, 1.0, 9)
    stack = propagate(u, op, 2.0, times)
    # the q-th root of a stack's sums is numpy's array power, which may round
    # one ulp away from the scalar power of a single field's sum
    for q in (2, 4, np.inf):
        np.testing.assert_allclose(
            stack.lq_norm(q), [propagate(u, op, 2.0, t).lq_norm(q) for t in times],
            rtol=1e-15, atol=0)


def test_lp_lq_norm_validation():
    grid = make_grid(1, 16)
    with pytest.raises(ValueError):
        lp_lq_norm(state_from_values(grid, np.empty((0, 16))), [], 2, 2)
    with pytest.raises(ValueError):
        lp_lq_norm(plane_wave(grid, 0), [0.0, 1.0], 2, 2)


def test_flat_eigensolver_recovers_squares():
    op = discretize_P_1d(flat_metric(dim=1), 65)
    np.testing.assert_allclose(op.lam[:7], [0, 1, 1, 4, 4, 9, 9], atol=1e-10)


def test_bump_eigenvalues_match_reference():
    op = discretize_P_1d(gaussian_bump_metric(dim=1, epsilon=0.1), 129)
    np.testing.assert_allclose(op.lam[:10], BUMP_EIGS, atol=1e-8)


@pytest.mark.parametrize("n, tol", [(65, 2e-13), (255, 3e-12)])
def test_bump_spectrum_is_the_circle_of_its_arclength(n, tol):
    """-Delta_g on the bump is -d^2/ds^2 on a circle of length L' = int G^{-1/2}:
    the first ten nonzero eigenvalues are (2 pi k / L')^2, k = 1..5, twice
    each (measured relative gaps 1.0e-13 at n = 65, 1.4e-12 at n = 255)."""
    metric = gaussian_bump_metric(dim=1, epsilon=0.1)
    op = discretize_P_1d(metric, n)
    L = arclength_oracle.circle_length(0.1, metric.box_length)
    exact = np.repeat((2.0 * np.pi * np.arange(1, 6) / L) ** 2, 2)
    assert op.lam[0] == 0.0
    np.testing.assert_allclose(op.lam[1:11], exact, rtol=tol, atol=0)


def test_eigenvalues_spectrally_converged():
    metric = gaussian_bump_metric(dim=1, epsilon=0.1)
    lam_a = discretize_P_1d(metric, 129).lam[1]
    lam_b = discretize_P_1d(metric, 257).lam[1]
    assert abs(lam_a - lam_b) < 1e-10


def test_eigensolver_input_validation():
    metric = gaussian_bump_metric(dim=1, epsilon=0.1)
    with pytest.raises(ValueError):
        discretize_P_1d(metric, 128)
    with pytest.raises(ValueError):
        discretize_P_1d(metric, 2001)
    with pytest.raises(ValueError):
        discretize_P_1d(gaussian_bump_metric(dim=2, epsilon=0.1), 65)


def _bump_state(op, seed=0):
    rng = np.random.default_rng(seed)
    n = op.grid.n
    return state_from_values(op.grid, rng.standard_normal(n) + 1j * rng.standard_normal(n))


@pytest.mark.parametrize("n", [65, 255])
def test_eig_transforms_are_the_complex_basis_products(n):
    """The real products on the float view give the complex-basis products,
    synthesize undoes coefficients, and a stack transforms as its fields."""
    op = discretize_P_1d(gaussian_bump_metric(dim=1, epsilon=0.1), n)
    u = _bump_state(op)
    basis = op.basis.astype(complex)
    want = basis.T @ (u.values * op.weight) * op.grid.spacing
    coeffs = op.coefficients(u)
    np.testing.assert_allclose(coeffs, want, rtol=1e-13, atol=1e-13 * np.max(np.abs(want)))
    back = op.synthesize(coeffs).values
    np.testing.assert_allclose(back, basis @ coeffs, rtol=1e-13,
                               atol=1e-13 * np.max(np.abs(back)))
    np.testing.assert_allclose(back, u.values, rtol=1e-12,
                               atol=1e-12 * np.max(np.abs(u.values)))
    others = [_bump_state(op, seed) for seed in (1, 2)]
    stack = state_from_values(op.grid, np.stack([u.values] + [v.values for v in others]))
    stack_coeffs = op.coefficients(stack)
    stack_back = op.synthesize(stack_coeffs).values
    for k, v in enumerate([u] + others):
        np.testing.assert_allclose(stack_coeffs[k], op.coefficients(v), rtol=1e-14, atol=1e-15)
        np.testing.assert_allclose(stack_back[k], op.synthesize(stack_coeffs[k]).values,
                                   rtol=1e-14, atol=1e-15)


def test_eig_transforms_make_no_complex_copy_of_the_basis():
    """numpy casts a real matrix times a complex vector to a complex copy of
    the matrix (twice the basis in bytes); the transforms allocate none, and
    they work on the blocks without building the n x n basis."""
    op = discretize_P_1d(gaussian_bump_metric(dim=1, epsilon=0.1), 511)
    u = _bump_state(op)
    tracemalloc.start()
    try:
        op.synthesize(op.coefficients(u))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert "basis" not in vars(op)
    assert peak < op.basis.nbytes / 4


def _derivative_matrix(n, length):
    """Spectral first derivative: the circulant D[i, j] = col[(i - j) % n],
    whose first column col is the derivative of the unit impulse."""
    omega = 2.0 * np.pi * np.fft.fftfreq(n, d=1.0 / n) / length
    col = np.real(np.fft.ifft(1j * omega))
    idx = np.arange(n)
    return col[np.subtract.outer(idx, idx) % n]


def _assembled_matrix(metric, n):
    """The symmetrized weighted divergence-form matrix, assembled unfolded."""
    grid = make_grid(1, n, metric.box_length)
    G = metric.inverse_metric(grid.axis()[:, None] - 0.5 * metric.box_length)[:, 0, 0]
    w = G ** -0.5
    D = _derivative_matrix(n, metric.box_length)
    B = -(w ** -0.5)[:, None] * ((D * (G * w)) @ D) * (w ** -0.5)
    return 0.5 * (B + B.T)


@pytest.mark.parametrize("n", [65, 255])
def test_split_eigenvalues_match_a_full_eigh(n):
    """The bump is even about the box centre, so the folded operator is two
    blocks of sizes (n + 1)/2 and (n - 1)/2 whose eigenvalues are those of
    the whole matrix.  eigh's error is relative to the operator's norm: the
    largest gap is 1.8e-15 (n = 65) and 3.4e-15 (n = 255) of the top
    eigenvalue, and 1.3e-13 and 8.1e-13 of its own eigenvalue."""
    metric = gaussian_bump_metric(dim=1, epsilon=0.1)
    op = discretize_P_1d(metric, n)
    assert [len(v) for v in op.blocks] == [(n + 1) // 2, (n - 1) // 2]
    full = np.linalg.eigvalsh(_assembled_matrix(metric, n))
    np.testing.assert_allclose(op.lam, np.clip(full, 0.0, None), rtol=0,
                               atol=1e-12 * full[-1])


def _shifted_bump(centre, epsilon=0.1, box_length=16.0):
    """G = 1 + eps e^{-(x - centre)^2}: a bump off the box centre, so the
    grid's reflection does not preserve it."""
    def jet(pts):
        y = pts - centre
        e = epsilon * np.exp(-y**2)
        return ((1.0 + e)[:, :, None], (-2.0 * y * e)[:, :, None, None],
                ((4.0 * y**2 - 2.0) * e)[:, :, None, None, None])
    return MetricField(dim=1, box_length=box_length, inverse_metric_jet=jet,
                       label=f"shifted_bump(centre={centre})")


def test_uneven_metric_is_one_coupled_block():
    """Off the box centre the even and odd halves couple, so the folded
    operator is one block.  Its transforms still invert each other, and its
    spectrum is still the circle of its arclength, which a shift inside the
    box does not change (measured gap 1.7e-13)."""
    metric = _shifted_bump(1.3)
    op = discretize_P_1d(metric, 65)
    assert [len(v) for v in op.blocks] == [65]
    u = _bump_state(op)
    back = op.synthesize(op.coefficients(u)).values
    np.testing.assert_allclose(back, u.values, rtol=0, atol=1e-12 * np.max(np.abs(u.values)))
    L = arclength_oracle.circle_length(0.1, metric.box_length)
    exact = np.repeat((2.0 * np.pi * np.arange(1, 6) / L) ** 2, 2)
    assert abs(op.lam[0]) < 1e-12
    np.testing.assert_allclose(op.lam[1:11], exact, rtol=5e-13, atol=0)


def test_uneven_block_matches_a_full_eigh():
    """The one coupled block of an uneven metric has the spectrum of the
    unfolded matrix."""
    metric = _shifted_bump(1.3)
    op = discretize_P_1d(metric, 65)
    full = np.linalg.eigvalsh(_assembled_matrix(metric, 65))
    np.testing.assert_allclose(op.lam, np.clip(full, 0.0, None), rtol=0,
                               atol=1e-12 * full[-1])


@pytest.mark.parametrize("metric, n", [(flat_metric(dim=1), 65),
                                       (gaussian_bump_metric(dim=1, epsilon=0.1), 1023)],
                         ids=["flat-65", "bump-1023"])
def test_even_metrics_split_into_two_blocks_with_one_kernel_mode(metric, n):
    """An even metric's samples equal their mirrors to an ulp, so its
    operator is two blocks; the constants are its one zero eigenvalue, set
    to 0 from the rounding of either sign eigh leaves there."""
    op = discretize_P_1d(metric, n)
    assert [len(v) for v in op.blocks] == [(n + 1) // 2, (n - 1) // 2]
    assert np.count_nonzero(op.lam == 0.0) == 1 and op.lam[1] > 0.1


def test_eigensolver_frees_its_assembly_before_eigh():
    """No n x n matrix is built on an even metric: the peak is 1.3 basis
    sizes at n = 511 (N^T's folded rows, half a basis, then the first block
    beside the second's weighted rows and product, a quarter each), where
    assembling the whole matrix peaked at 3.0 and an eigh of the whole
    matrix beside its assembly at 5.0."""
    metric = gaussian_bump_metric(dim=1, epsilon=0.1)
    tracemalloc.start()
    try:
        op = discretize_P_1d(metric, 511)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * op.basis.nbytes


def test_derivative_matrix_is_the_circulant_spectral_derivative():
    n, length = 129, 16.0
    omega = 2.0 * np.pi * np.fft.fftfreq(n, d=1.0 / n) / length
    want = np.real(np.fft.ifft(1j * omega[:, None] * np.fft.fft(np.eye(n), axis=0), axis=0))
    D = _derivative_matrix(n, length)
    np.testing.assert_allclose(D, want, rtol=0.0, atol=1e-13 * np.max(np.abs(want)))
    np.testing.assert_array_equal(np.roll(D, (1, 1), axis=(0, 1)), D)


@pytest.mark.parametrize("path", ["flat", "eig"])
def test_propagate_stack_matches_each_state(path):
    if path == "flat":
        op = flat_operator(make_grid(1, 64))
    else:
        op = discretize_P_1d(gaussian_bump_metric(dim=1, epsilon=0.1), 65)
    u = modulated_gaussian(op.grid, 2.0, 0.5, omega=3.0)
    times = np.array([-0.3, 0.0, 0.1, 0.7])
    free = propagate(u, op, 2.0, times).values
    stack = state_from_values(op.grid, np.stack([u.values * (k + 1) for k in range(4)]))
    moved = propagate(stack, op, 0.5, times, h=0.25).values
    for k, t in enumerate(times):
        np.testing.assert_allclose(free[k], propagate(u, op, 2.0, t).values,
                                   rtol=1e-14, atol=1e-14)
        one = state_from_values(op.grid, stack.values[k])
        np.testing.assert_allclose(moved[k], propagate(one, op, 0.5, t, h=0.25).values,
                                   rtol=1e-14, atol=1e-14)


def test_bernstein_localization_slope():
    grid = make_grid(1, 512)
    cut = make_bump(0.25, 4.0, (0.5, 2.0))
    fit = measure_bernstein(grid, cut, [2.0**-k for k in range(2, 7)])
    assert abs(fit.slope + 0.5) < 0.1
    assert fit.r2 > 0.99


def test_bernstein_rejects_unresolvable_band():
    grid = make_grid(1, 32)
    cut = make_bump(0.25, 4.0, (0.5, 2.0))
    with pytest.raises(ValueError):
        measure_bernstein(grid, cut, [1.0 / 16.0, 1.0 / 8.0])
