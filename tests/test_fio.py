"""Oscillatory-integral application, kernels and decay measurements."""

import numpy as np
import pytest

from fracwkb import fio, transport
from fracwkb.fio import (InsufficientDataError, ResolutionError, apply_fio,
                         dispersive_fit, kernel, kernel_sup,
                         operator_norm_estimate, remainder_decay,
                         stationary_phase_prediction)
from fracwkb.hamjac import build_phase
from fracwkb.metric import flat_metric, gaussian_bump_metric, tensor_pairs
from fracwkb.spectral import (flat_operator, localized_gaussian, make_grid, plane_wave,
                              propagate, state_from_values)
from fracwkb.symbols import (GaussianWindow, fractional_symbol,
                             localized_amplitude, make_bump)
from fracwkb.transport import solve_transport

H_REF = 2.0**-6
T_REF = 8.0 * H_REF
# adaptive scipy.integrate.quad reference for K(8h, 0, -0.5) in the setup
# below (notes/oracles/kernel_quad.py)
K_REF = 6.132204298520 + 1.334468729813j


def _kernel_setup(sigma=2.0, order=1):
    metric = flat_metric(dim=1)
    q0 = fractional_symbol(metric, sigma, xi_band=(0.2, 18.0))
    cut = make_bump(0.25, 16.0, (1.0, 4.0))
    a_init = localized_amplitude(metric, cut)
    x = np.linspace(0.0, 2.0 * np.pi, 9)[:, None]
    xi = np.linspace(0.8, 1.6, 3)[:, None]
    phase = build_phase(q0, [0.0, T_REF], x, xi)
    return phase, solve_transport(a_init, phase, N=order), cut


@pytest.mark.parametrize("sigma", [0.5, 2.0])
def test_apply_fio_matches_exact_multiplier(sigma):
    """Constant-window flat parametrix equals the spectral propagator."""
    phase, amp, _ = _kernel_setup(sigma)
    grid = make_grid(1, 512)
    h = 2.0**-4
    u = state_from_values(grid, plane_wave(grid, 17).values
                          + 0.5 * plane_wave(grid, 25).values)
    out = apply_fio(phase, amp, u, h, 0.3)
    ref = propagate(u, flat_operator(grid), sigma, 0.3, h=h)
    np.testing.assert_allclose(out.values, ref.values, atol=1e-12)


def test_apply_fio_zero_time_on_plateau_modes():
    phase, amp, _ = _kernel_setup()
    grid = make_grid(1, 512)
    u = plane_wave(grid, 20)
    out = apply_fio(phase, amp, u, 2.0**-4, 0.0)
    np.testing.assert_allclose(out.values, u.values, atol=1e-13)


def test_apply_fio_is_linear():
    phase, amp, _ = _kernel_setup()
    grid = make_grid(1, 512)
    h = 2.0**-4
    u = plane_wave(grid, 18)
    v = plane_wave(grid, 27)
    w = state_from_values(grid, u.values + 2.0 * v.values)
    lhs = apply_fio(phase, amp, w, h, 0.2).values
    rhs = (apply_fio(phase, amp, u, h, 0.2).values
           + 2.0 * apply_fio(phase, amp, v, h, 0.2).values)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_apply_fio_rejects_unresolved_band():
    phase, amp, _ = _kernel_setup()
    grid = make_grid(1, 64)
    with pytest.raises(ResolutionError):
        apply_fio(phase, amp, plane_wave(grid, 17), 2.0**-4, 0.1)


def test_apply_fio_rejects_out_of_band_energy():
    phase, amp, _ = _kernel_setup()
    grid = make_grid(1, 512)
    u = state_from_values(grid, plane_wave(grid, 17).values
                          + plane_wave(grid, 200).values)
    with pytest.raises(ValueError):
        apply_fio(phase, amp, u, 2.0**-4, 0.1)


@pytest.mark.parametrize("call", [
    lambda p, a: apply_fio(p, a, plane_wave(make_grid(1, 512), 20), 2.0**-4, 0.0),
    lambda p, a: kernel(p, a, H_REF, T_REF, [0.0], [0.0]),
    lambda p, a: kernel_sup(p, a, H_REF, T_REF, (-0.5, 0.5), (-0.5, 0.5)),
    lambda p, a: dispersive_fit(p, a, H_REF, np.linspace(0.1, 0.5, 6)),
    lambda p, a: remainder_decay(p, a, [2.0**-4]),
    lambda p, a: operator_norm_estimate(p, a, 2.0**-4, 0.1, make_grid(1, 512)),
], ids=["apply_fio", "kernel", "kernel_sup", "dispersive_fit", "remainder_decay",
        "operator_norm_estimate"])
def test_consumers_reject_tables_of_another_symbol(call):
    _, amp, _ = _kernel_setup()
    other, _, _ = _kernel_setup()           # the same settings, another q0
    with pytest.raises(ValueError, match="phase and amplitude tables disagree"):
        call(other, amp)


def test_apply_fio_rejects_empty_band():
    phase, amp, _ = _kernel_setup()
    grid = make_grid(1, 64)
    with pytest.raises(ValueError):
        apply_fio(phase, amp, plane_wave(grid, 1), 100.0, 0.1)


def test_kernel_matches_quadrature_reference():
    phase, amp, _ = _kernel_setup()
    K = kernel(phase, amp, H_REF, T_REF, np.array([0.0]), np.array([-0.5]))
    np.testing.assert_allclose(K.values[0, 0], K_REF, atol=1e-9)
    assert K.lam == pytest.approx(8.0)


def test_kernel_resolution_cap():
    phase, amp, _ = _kernel_setup()
    with pytest.raises(ResolutionError):
        kernel(phase, amp, 1e-7, 0.125, np.array([0.0]), np.array([0.0]))


def test_kernel_zero_time_hermitian():
    phase, amp, _ = _kernel_setup()
    g = np.linspace(-1.0, 1.0, 17)
    K = kernel(phase, amp, H_REF, 0.0, g, g)
    gap = np.max(np.abs(K.values - K.values.conj().T))
    assert gap < 1e-8 * K.sup()


@pytest.mark.parametrize("h", [0.0, -0.01, np.inf, np.nan])
def test_h_that_is_not_positive_and_finite_is_rejected(h):
    phase, amp, _ = _kernel_setup()
    grid = make_grid(1, 512)
    calls = [lambda: kernel(phase, amp, h, T_REF, [0.0], [0.0]),
             lambda: apply_fio(phase, amp, plane_wave(grid, 20), h, 0.1),
             lambda: operator_norm_estimate(phase, amp, h, 0.1, grid),
             lambda: remainder_decay(phase, amp, [h], t=0.1),
             lambda: stationary_phase_prediction(amp, h, T_REF, 0.0, -2.0)]
    for call in calls:
        with pytest.raises(ValueError, match=r"^h must be positive and finite"):
            call()


@pytest.mark.parametrize("x, y, name", [([], [0.0], "x_grid"), ([0.0], [], "y_grid")])
def test_kernel_rejects_an_empty_grid(x, y, name):
    phase, amp, _ = _kernel_setup()
    with pytest.raises(ValueError, match=f"^{name} is empty"):
        kernel(phase, amp, H_REF, T_REF, x, y)


def test_kernel_sup_bounded_by_amplitude_mass():
    phase, amp, cut = _kernel_setup()
    xs = np.linspace(0.5, 4.0, 2001)
    mass = 2.0 * np.trapezoid(cut(xs**2), xs)
    bound = mass / (2.0 * np.pi * H_REF)
    sup = kernel_sup(phase, amp, H_REF, T_REF, (-0.5, 0.5), (-2.0, 2.0))
    assert 0.0 < sup <= 1.001 * bound


def test_stationary_phase_prediction_near_kernel_peak():
    phase, amp, _ = _kernel_setup()
    (y,), (predicted,) = stationary_phase_prediction(amp, H_REF, T_REF, 0.0, -2.0)
    assert y == pytest.approx(-0.5, abs=1e-12)
    # the flat closed form: d_xi^2 S = 2t and a_0 = 1 at xi^2 = 4
    assert predicted == pytest.approx(np.sqrt(np.pi * H_REF / T_REF) / (2.0 * np.pi * H_REF),
                                      rel=1e-13)
    K = kernel(phase, amp, H_REF, T_REF, np.array([0.0]), np.array([y]))
    assert abs(abs(K.values[0, 0]) - predicted) / predicted < 0.15


def test_stationary_phase_prediction_validation():
    phase, amp, _ = _kernel_setup()
    with pytest.raises(ValueError, match="prediction needs t != 0"):
        stationary_phase_prediction(amp, H_REF, 0.0, 0.0, -2.0)


@pytest.mark.parametrize("t, xi", [(0.25, -1.0), (0.5, 1.2)])
def test_stationary_phase_gap_shrinks_on_the_bump(t, xi):
    # off the flat metric the prediction has no closed form; its gap to the
    # kernel at the stationary point decays like h / t, so by at least 8 over
    # three halvings of h
    phase, amp = _bump_tables(t)
    gaps = []
    for h in (2.0**-5, 2.0**-8):
        (y,), (predicted,) = stationary_phase_prediction(amp, h, t, 0.0, xi)
        K = kernel(phase, amp, h, t, [0.0], [y])
        gaps.append(abs(abs(K.values[0, 0]) - predicted) / predicted)
    assert gaps[1] <= gaps[0] / 8.0


def test_consumers_reject_a_symbol_or_grid_that_is_not_1d():
    metric = flat_metric(dim=2)
    q0 = fractional_symbol(metric, 2.0, xi_band=(0.2, 4.0))
    phase = build_phase(q0, [0.0, 0.1], [[0.0, 0.0]], [[1.0, 0.0]])
    amp = solve_transport(localized_amplitude(metric, make_bump(0.25, 3.8, (0.5, 3.0))), phase)
    with pytest.raises(ValueError, match="implemented on 1-D grids"):
        kernel(phase, amp, H_REF, T_REF, [0.0], [0.0])
    phase, amp, _ = _kernel_setup()
    with pytest.raises(ValueError, match="implemented on 1-D grids"):
        apply_fio(phase, amp, plane_wave(make_grid(2, 16), [1, 0]), 2.0**-4, 0.1)


def test_kernel_negligible_beyond_critical_speed():
    phase, amp, _ = _kernel_setup()
    # the kernel phase has no critical point for |x - y| / t above
    # 2 sigma xi_max^{sigma-1} + 1 = 17 (sigma = 2, xi_max = 4)
    y_far = -17.0 * T_REF - 1.0
    K = kernel(phase, amp, H_REF, T_REF, np.array([0.0]), np.array([y_far]))
    assert abs(K.values[0, 0]) < 1e-4


def test_operator_norm_close_to_unity():
    """Constant-window symbol bounded by 1: the L2 norm sits at the plateau."""
    phase, amp, _ = _kernel_setup()
    grid = make_grid(1, 2048)           # the band at H_REF needs all 2,048 points
    est = operator_norm_estimate(phase, amp, H_REF, T_REF, grid)
    # the flat constant-window FIO is a multiplier whose symbol peaks at 1
    assert abs(est - 1.0) <= 1e-12


def test_operator_norm_rejects_unresolved_band():
    # one resolution rule for both: with the standard cutoff at h = 2^-4 the
    # band needs 248 points, where the estimate alone used to return a value
    h = 2.0**-4
    phase, amp = _decay_tables(h, 6)
    grid = make_grid(1, 64)
    u = localized_gaussian(grid, make_bump(0.25, 3.8, (0.5, 3.0)), h)
    for call in (lambda: apply_fio(phase, amp, u, h, 0.1),
                 lambda: operator_norm_estimate(phase, amp, h, 0.1, grid)):
        with pytest.raises(ResolutionError, match="has 64 points but the retained band needs 248"):
            call()


def test_dispersive_fit_requires_enough_samples():
    phase, amp, _ = _kernel_setup()
    with pytest.raises(InsufficientDataError):
        dispersive_fit(phase, amp, H_REF, np.linspace(0.1, 0.5, 5))


@pytest.mark.parametrize("bad", [0.0, -0.0, np.nan, np.inf])
def test_dispersive_fit_rejects_a_sample_without_a_log_before_any_kernel(bad, monkeypatch):
    phase, amp, _ = _kernel_setup()
    monkeypatch.setattr(fio, "kernel", lambda *args: pytest.fail("a kernel was computed"))
    ts = np.linspace(0.1, 0.5, 6)
    ts[3] = bad
    with pytest.raises(ValueError, match=rf"nonzero and finite, got t={bad}$"):
        dispersive_fit(phase, amp, H_REF, ts)


def test_dispersive_fit_requires_four_nonzero_sups():
    # a window centred far outside the sup's x span: every sup is 0
    h = 2.0**-3
    metric = flat_metric(dim=1)
    q0 = fractional_symbol(metric, 2.0, xi_band=(0.2, 4.0))
    a_init = localized_amplitude(metric, make_bump(0.25, 3.8, (0.5, 3.0)),
                                 window=GaussianWindow(1, center=100.0, width=0.1))
    ts = np.geomspace(2.0 * h, 1.0, 6)
    phase = build_phase(q0, ts, np.linspace(0.0, 2.0 * np.pi, 9)[:, None],
                        np.linspace(0.8, 1.6, 3)[:, None])
    with pytest.raises(InsufficientDataError, match="only 0 finite kernel sups out of 6"):
        dispersive_fit(phase, solve_transport(a_init, phase, N=1), h, ts)


def test_remainder_decay_order_gap():
    metric = flat_metric(dim=1)
    q0 = fractional_symbol(metric, 2.0, xi_band=(0.2, 4.0))
    cut = make_bump(0.25, 3.8, (0.5, 3.0))
    a_init = localized_amplitude(metric, cut,
                                 window=GaussianWindow(1, center=np.pi, width=0.6))
    x = np.linspace(0.0, 2.0 * np.pi, 9)[:, None]
    xi = np.linspace(0.8, 1.6, 3)[:, None]
    phase = build_phase(q0, [0.0, 0.15], x, xi)
    h_sweep = [2.0**-3, 2.0**-4, 2.0**-5]
    fit1 = remainder_decay(phase, solve_transport(a_init, phase, N=1), h_sweep)
    fit2 = remainder_decay(phase, solve_transport(a_init, phase, N=2), h_sweep)
    assert 0.6 < fit1.slope < 1.4
    assert fit2.slope > 1.5
    assert fit2.slope > fit1.slope
    assert fit2.remainders[-1] < fit1.remainders[-1]


@pytest.mark.parametrize("h_sweep, match", [
    ([2.0**-3], "^the remainder fit needs at least two distinct h"),
    ([2.0**-3, 2.0**-3], "^the remainder fit needs at least two distinct h"),
    ([2.0**-3, 2.0**-4, 0.0], "^h must be positive and finite"),
], ids=["one-h", "one-distinct-h", "bad-h-last"])
def test_remainder_decay_checks_its_sweep_before_any_fio(monkeypatch, h_sweep, match):
    phase, amp, _ = _kernel_setup()
    monkeypatch.setattr(fio, "apply_fio", None)
    with pytest.raises(ValueError, match=match):
        remainder_decay(phase, amp, h_sweep)


def test_remainder_decay_rejects_curved_metric():
    phase, amp = _bump_tables(0.1)
    with pytest.raises(ValueError):
        remainder_decay(phase, amp, [0.1, 0.05], t=0.1)


def test_remainder_decay_needs_the_amplitude_cutoff():
    # the reference state is localized by the amplitude's cutoff, and an
    # initial symbol that is not a localized amplitude carries none
    metric = flat_metric(dim=1)
    q0 = fractional_symbol(metric, 2.0, xi_band=(0.2, 4.0))
    phase = build_phase(q0, [0.0, 0.1], np.array([[0.0]]), np.array([[1.0]]))
    amp = solve_transport(fractional_symbol(metric, 2.0, xi_band=(0.25, 3.8)), phase)
    with pytest.raises(ValueError, match="amplitude must carry its frequency cutoff"):
        remainder_decay(phase, amp, [2.0**-3, 2.0**-4])


def _decay_tables(h, n_t):
    """Flat sigma = 2 tables of the dispersive decay fit at scale h."""
    metric = flat_metric(dim=1)
    q0 = fractional_symbol(metric, 2.0, xi_band=(0.2, 4.0))
    a_init = localized_amplitude(metric, make_bump(0.25, 3.8, (0.5, 3.0)))
    phase = build_phase(q0, np.geomspace(2.0 * h, 1.0, n_t),
                        np.linspace(0.0, 2.0 * np.pi, 9)[:, None],
                        np.linspace(0.8, 1.6, 3)[:, None], dt=0.01)
    return phase, solve_transport(a_init, phase, N=1)


def test_kernel_sup_raises_when_rounds_run_out(monkeypatch):
    # two rounds give 9.81 (16 points per span) and 12.59 (31 points, which
    # now include x = y = 0), 28% apart: no estimate to hand back
    h = 2.0**-6
    phase, amp = _decay_tables(h, 10)
    monkeypatch.setattr(fio, "SUP_REFINE_TOL", 1e-9)
    with pytest.raises(ResolutionError, match=r"9\.808\d* and 12\.58"):
        kernel_sup(phase, amp, h, 0.03125, (-0.5, 0.5), (-3.0, 3.0), max_rounds=2)


@pytest.mark.parametrize("max_rounds", [1, 0])
def test_kernel_sup_needs_two_rounds_before_any_kernel(max_rounds, monkeypatch):
    # convergence compares two estimates, so fewer rounds can never settle
    phase, amp, _ = _kernel_setup()
    monkeypatch.setattr(fio, "kernel", lambda *args: pytest.fail("a kernel was computed"))
    with pytest.raises(ValueError, match=f"max_rounds must be >= 2, got {max_rounds}$"):
        kernel_sup(phase, amp, H_REF, T_REF, (-0.5, 0.5), (-1.0, 1.0), max_rounds=max_rounds)


def test_kernel_resolves_cutoff_on_small_window(monkeypatch):
    # here the phase barely oscillates across the xi band, so the xi count
    # is set by the floor, which must resolve the cutoff chi(xi^2) itself;
    # the reference raises the floor to 4001 points
    h = 2.0**-5
    phase, amp = _decay_tables(h, 6)
    t, x, y = 0.054, np.array([0.151, -0.016]), np.array([0.314, -0.022, 0.156, -0.007])
    got = kernel(phase, amp, h, t, x, y).values
    monkeypatch.setattr(fio, "XI_POINTS_MIN", 4001)
    K_ref = kernel(phase, amp, h, t, x, y)
    assert K_ref.n_xi == 4001
    ref = K_ref.values
    assert np.max(np.abs(got - ref)) / np.max(np.abs(ref)) < 1e-8


def _bump_tables(t):
    """Bump (eps = 0.1) sigma = 2 tables out to time t; the cutoff's p-band is (0.3, 3.0)."""
    metric = gaussian_bump_metric(dim=1, epsilon=0.1)
    q0 = fractional_symbol(metric, 2.0, xi_band=(0.2, 4.0))
    a_init = localized_amplitude(metric, make_bump(0.3, 3.0, (0.5, 2.0)))
    phase = build_phase(q0, [0.0, t], np.array([[0.0]]), np.array([[1.0]]))
    return phase, solve_transport(a_init, phase)


@pytest.mark.parametrize("case", ["flat", "bump"])
def test_characteristic_solves_per_call_do_not_depend_on_h(monkeypatch, case):
    # Y, S and the rate integral do not depend on h: `kernel` and `apply_fio`
    # solve the same coarse grid at h and h/2, far fewer points than the
    # (x node, xi node) pairs they return
    if case == "flat":
        t, cut, length, n = 0.3, (0.25, 3.8, (0.5, 3.0)), 2.0 * np.pi, 256
        phase, amp = _decay_tables(2.0**-5, 6)
    else:
        t, cut, length, n = 0.1, (0.3, 3.0, (0.5, 2.0)), 16.0, 1024
        phase, amp = _bump_tables(0.1)
    solved = []
    phase_point_data = transport.phase_point_data

    def recording(q0, t, x, xi, dt):
        solved.append(len(x))
        return phase_point_data(q0, t, x, xi, dt=dt)

    monkeypatch.setattr(transport, "phase_point_data", recording)
    x, y = np.linspace(-0.5, 0.5, 61), np.linspace(-1.0, 1.0, 16)
    counts = []
    for h, grid in ((2.0**-4, make_grid(1, n, length)), (2.0**-5, make_grid(1, 2 * n, length))):
        del solved[:]
        pairs = x.size * 2 * kernel(phase, amp, h, t, x, y).n_xi
        assert sum(solved) < pairs / 10
        counts.append(sum(solved))
        del solved[:]
        apply_fio(phase, amp, localized_gaussian(grid, make_bump(*cut), h), h, t)
        keep, _ = fio._mode_band(amp, h, grid)
        assert sum(solved) < grid.n * keep.size / 10
        counts.append(sum(solved))
    assert counts[:2] == counts[2:]


def _direct_factors(amp, h, t, x, xi):
    """A e^{iS/h} with one characteristic solved for every (x, xi) pair."""
    data = amp.evaluate(t, *tensor_pairs(x, xi))
    A = data.a[0].reshape(x.shape[0], xi.shape[0])
    for j in range(1, amp.order):
        A = A + h**j * data.a[j].reshape(A.shape)
    return A * np.exp(1j * data.S.reshape(A.shape) / h)


def _kernel_xi_nodes(amp, count):
    lo, hi, _ = fio._xi_hull(amp)
    return np.concatenate([np.linspace(-hi, -lo, count), np.linspace(lo, hi, count)])[:, None]


def _rel_gap(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


@pytest.mark.parametrize("sigma", [2.0, 0.5])
def test_interpolated_factors_match_the_direct_pass_on_flat(sigma):
    phase, amp, _ = _kernel_setup(sigma, order=2 if sigma == 2.0 else 1)
    h, t = 2.0**-5, 0.3
    x = np.linspace(-0.5, 0.5, 17)[:, None]
    xi = _kernel_xi_nodes(amp, 301)
    assert _rel_gap(fio._fio_factors(amp, h, t, x, xi), _direct_factors(amp, h, t, x, xi)) <= 1e-12
    grid = make_grid(1, 2048)
    keep, mode_matrix = fio._mode_band(amp, h, grid)
    want = _direct_factors(amp, h, t, grid.axis()[:, None], h * grid.omega_axis()[keep, None])
    assert _rel_gap(mode_matrix(t), want) <= 1e-12


def test_interpolated_factors_match_the_direct_pass_on_the_bump():
    # the direct pass carries Newton noise of about 2e-11 in S, i.e. about
    # 1e-9 relative in e^{iS/h} at these h
    phase, amp = _bump_tables(0.25)
    h, t = 2.0**-5, 0.25
    x = np.linspace(-0.5, 0.5, 33)[:, None]
    xi = _kernel_xi_nodes(amp, 257)
    assert _rel_gap(fio._fio_factors(amp, h, t, x, xi), _direct_factors(amp, h, t, x, xi)) <= 1e-8
    h = 2.0**-4
    grid = make_grid(1, 1024, 16.0)
    keep, mode_matrix = fio._mode_band(amp, h, grid)
    rows = slice(None, None, 8)              # the direct pass on every 8th x node
    want = _direct_factors(amp, h, t, grid.axis()[rows, None], h * grid.omega_axis()[keep, None])
    assert _rel_gap(mode_matrix(t)[rows], want) <= 1e-8


def test_barycentric_counts_a_shared_endpoint_once():
    """Each point takes one node set: the first whose range holds it."""
    sets = fio._lobatto([(0.0, 8.0), (8.0, 16.0)], 9)
    points = np.array([2.0, 8.0, 12.5])
    B = fio._barycentric(sets, points)
    np.testing.assert_allclose(B.sum(axis=1), 1.0, rtol=0, atol=1e-15)
    # 9 nodes per set interpolate sin to 3e-3; a doubled row gives 1.98 at x = 8
    np.testing.assert_allclose(B @ np.sin(np.concatenate(sets)), np.sin(points),
                               rtol=0, atol=5e-3)


def test_interpolant_that_cannot_meet_its_tolerance_raises(monkeypatch):
    # below rounding no level passes its check: the xi axis (x is one node)
    # reaches INTERP_NODES_CAP and the error names its gap
    phase, amp, _ = _kernel_setup(0.5)
    monkeypatch.setattr(fio, "INTERP_TOL", 1e-18)
    with pytest.raises(ResolutionError, match=r"in xi on 129 nodes misses its check by "
                                              r"\d\.\d+e-\d+ > INTERP_TOL = 1e-18"):
        kernel(phase, amp, H_REF, T_REF, [0.0], [0.0])


def test_mode_band_without_a_guard_band_keeps_every_live_mode():
    # with no guard band on q0 the band is the touch test alone: every mode
    # on which a_0 = a_init is nonzero at some x of the box is kept (the
    # amplitude's p-band used to stand in as a guard and dropped 8 of them)
    metric = gaussian_bump_metric(dim=1, epsilon=0.1)
    q0 = fractional_symbol(metric, 2.0)
    a_init = localized_amplitude(metric, make_bump(0.3, 3.0, (0.5, 2.0)))
    amp = solve_transport(a_init, build_phase(q0, [0.0, 0.1], np.array([[0.0]]),
                                              np.array([[1.0]])))
    h = 2.0**-4
    grid = make_grid(1, 2048, 16.0)
    keep, _ = fio._mode_band(amp, h, grid)
    omega = grid.omega_axis()
    modes = np.flatnonzero(np.abs(h * omega) < 2.5)
    a0 = a_init(*tensor_pairs(grid.axis()[:, None], h * omega[modes, None]))
    live = modes[np.any(a0.reshape(grid.n, modes.size) != 0.0, axis=0)]
    assert live.size == 98
    assert np.all(np.isin(live, keep))


@pytest.mark.parametrize("guard", [(0.2, 4.0), (0.2, 4.75)], ids=["narrow", "wide"])
def test_kernel_checks_the_guard_band_before_any_flow(monkeypatch, guard):
    # the standard cutoff's hull on the eps = 0.1 bump reaches p in
    # [0.25 / 1.1, 3.8 * 1.1]; its pairs beyond 4.0 have a_0 = 0 but used to
    # raise GuardBandError in the middle of a flow; apply_fio and
    # operator_norm_estimate read the same hull and raise the same error
    metric = gaussian_bump_metric(dim=1, epsilon=0.1)
    q0 = fractional_symbol(metric, 2.0, xi_band=guard)
    cut = make_bump(0.25, 3.8, (0.5, 3.0))
    a_init = localized_amplitude(metric, cut)
    phase = build_phase(q0, [0.0, 0.1], np.array([[0.0]]), np.array([[1.0]]))
    amp = solve_transport(a_init, phase)
    solved = []
    factors = fio._fio_factors

    def recording(*args):
        solved.append(args[3].shape[0])
        return factors(*args)

    monkeypatch.setattr(fio, "_fio_factors", recording)
    x = np.linspace(-0.5, 0.5, 5)
    h, grid = 2.0**-4, make_grid(1, 1024, metric.box_length)
    calls = [lambda: kernel(phase, amp, 2.0**-5, 0.1, x, [0.0]).values,
             lambda: apply_fio(phase, amp, localized_gaussian(grid, cut, h), h, 0.1).values,
             lambda: operator_norm_estimate(phase, amp, h, 0.1, grid)]
    for call in calls:
        if guard[1] < 4.18:
            with pytest.raises(ValueError, match=r"guard band \[0\.2, 4\] does not hold "
                                                 r"the p range \[0\.227273, 4\.18\]"):
                call()
        else:
            assert np.all(np.isfinite(call()))
    assert solved == ([] if guard[1] < 4.18 else [5, grid.n, grid.n])


@pytest.mark.parametrize("bump", [False, True], ids=["flat", "bump"])
def test_mode_band_keeps_the_modes_in_the_xi_hull(bump):
    if bump:
        phase, amp = _bump_tables(0.1)
        h, grid = 2.0**-4, make_grid(1, 2048, 16.0)
    else:
        phase, amp, _ = _kernel_setup()
        h, grid = H_REF, make_grid(1, 2048)
    lo, hi, _ = fio._xi_hull(amp)
    h_omega = h * np.abs(grid.omega_axis())
    keep, _ = fio._mode_band(amp, h, grid)
    assert keep.size > 0
    np.testing.assert_array_equal(keep, np.flatnonzero((lo <= h_omega) & (h_omega <= hi)))


def test_xi_hull_holds_the_bump_amplitude_support():
    # a_0(t, x, xi) = a_init(Y, xi) with the backward base point Y about 1.7
    # from x at t = 0.5, where G differs from its values on the x nodes; a
    # hull from G on those nodes ends inside the support (a_0 reached 1.0e-2
    # beyond it), the hull from G's range over the box holds all of it
    phase, amp = _bump_tables(0.5)
    x = np.linspace(-0.5, 0.5, 31)[:, None]
    lo, hi, _ = fio._xi_hull(amp)
    for a, b in ((-hi, -lo), (lo, hi)):
        inset = 0.025 * (b - a)
        xi = np.array([a - 1e-9 * abs(a), b + 1e-9 * abs(b), a + inset, b - inset])
        a0 = amp.evaluate(0.5, *tensor_pairs(x, xi[:, None])).a[0].reshape(x.size, 4)
        assert np.all(a0[:, :2] == 0.0)
        assert np.all(a0[:, 2:] != 0.0)
