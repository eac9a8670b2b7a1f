"""Split-step, Picard, and wave solvers with their conservation laws."""

import math
import re
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

import fracwkb.nlfs
from fracwkb.metric import gaussian_bump_metric
from fracwkb.nlfs import (BlowUpError, ContractionError, NlfsProblem,
                          _sin_over, conserved,
                          global_continuation, picard_iterate, sobolev_bound,
                          solve_nlfs, solve_nlfw)
from fracwkb.spectral import (SpectralOperator, discretize_P_1d, flat_operator,
                              make_grid, modulated_gaussian, propagate, sobolev_norm,
                              state_from_values)

from fourier_states import plane_wave

N_GRID = 64


@pytest.fixture(scope="module")
def setup():
    grid = make_grid(1, N_GRID)
    return grid, flat_operator(grid)


def _combo(grid, pairs):
    vals = np.zeros(N_GRID, dtype=complex)
    for k, a in pairs:
        vals += a * plane_wave(grid, k).values
    return state_from_values(grid, vals)


def _zero(grid):
    return state_from_values(grid, np.zeros(N_GRID, dtype=complex))


def _problem(grid, op, u0, **over):
    kwargs = dict(sigma=2.0, nu=3.0, mu=1, u0=u0, T=0.1, dt=0.01, op=op)
    kwargs.update(over)
    return NlfsProblem(**kwargs)


def test_zero_data_stays_zero(setup):
    grid, op = setup
    traj = solve_nlfs(_problem(grid, op, _zero(grid), T=0.5))
    for state in traj.states:
        np.testing.assert_array_equal(state.values, 0.0)


def test_linear_limit_matches_free_propagator(setup):
    grid, op = setup
    u0 = _combo(grid, [(3, 1.0), (-1, 0.5)])
    traj = solve_nlfs(_problem(grid, op, u0, mu=0, T=0.5))
    direct = propagate(u0, op, 2.0, 0.5)
    assert_allclose(traj.final.values, direct.values, atol=1e-12)


def test_mass_conserved_to_rounding(setup):
    grid, op = setup
    prob = _problem(grid, op, _combo(grid, [(2, 0.3), (-3, 0.1)]),
                    T=1.0, dt=0.005)
    traj = solve_nlfs(prob)
    q0 = conserved(prob, prob.u0)
    qT = conserved(prob, traj.final)
    assert abs(qT.mass - q0.mass) < 1e-12


def test_energy_drift_second_order_in_dt(setup):
    grid, op = setup
    u0 = _combo(grid, [(2, 0.3), (-3, 0.1)])
    drifts = []
    for dt in (0.005, 0.0025):
        prob = _problem(grid, op, u0, T=1.0, dt=dt)
        q0 = conserved(prob, prob.u0)
        qT = conserved(prob, solve_nlfs(prob).final)
        drifts.append(abs(qT.energy - q0.energy))
    assert drifts[1] < 1e-9
    assert 3.5 < drifts[0] / drifts[1] < 4.5


def test_trajectory_store_every(setup, monkeypatch):
    grid, op = setup
    # 10 steps keep every 10 // 5 = 2nd
    monkeypatch.setattr(fracwkb.nlfs, "KEPT_STEPS", 5)
    traj = solve_nlfs(_problem(grid, op, _combo(grid, [(1, 0.1)]), mu=0))
    assert_allclose(traj.times, [0.0, 0.02, 0.04, 0.06, 0.08, 0.1],
                    atol=1e-15)
    assert len(traj.states) == 6
    assert traj.final is traj.states[-1]


def test_picard_zero_data(setup):
    grid, op = setup
    report = picard_iterate(_problem(grid, op, _zero(grid), T=0.2), n_iter=4)
    np.testing.assert_array_equal(report.diffs, 0.0)
    assert report.rate == 0.0


def test_picard_first_correction_closed_form(setup):
    """First Duhamel difference of a single mode is A^3 T sqrt(2 pi).

    The free evolution keeps |u| = A pointwise, so the first correction is
    i A^3 t times the mode and the sup-in-time L2 difference at t = T is
    exactly A^3 T sqrt(2 pi); the measured value only carries the trapezoid
    error of the time quadrature.
    """
    grid, op = setup
    A, T = 0.01, 0.1
    prob = _problem(grid, op, _combo(grid, [(1, A)]), T=T)
    report = picard_iterate(prob, n_iter=6, n_t=65)
    assert_allclose(report.diffs[0], A**3 * T * np.sqrt(2.0 * np.pi),
                    rtol=1e-11)
    assert_allclose(report.ratios[0], 0.5 * A**2 * T, rtol=1e-4)
    assert report.rate == report.ratios[0]


def test_picard_matches_split_step(setup):
    grid, op = setup
    u0 = _combo(grid, [(1, 0.01)])
    report = picard_iterate(_problem(grid, op, u0), n_iter=6, n_t=65)
    traj = solve_nlfs(_problem(grid, op, u0, dt=0.001))
    assert np.max(np.abs(traj.final.values - report.final.values)) < 1e-12


def _operator(path):
    if path == "flat":
        return flat_operator(make_grid(1, N_GRID))
    if path == "flat-2d":
        return flat_operator(make_grid(2, 32))
    return discretize_P_1d(gaussian_bump_metric(dim=1, epsilon=0.1), 65)


def _per_state_picard(prob, n_iter, n_t):
    """The Duhamel iteration with one propagate call per state and time."""
    times = np.linspace(0.0, prob.T, n_t)
    grid, op, sigma = prob.u0.grid, prob.op, prob.sigma
    cur = [propagate(prob.u0, op, sigma, t).values for t in times]
    diffs = []
    for _ in range(n_iter):
        integrand = np.array([
            propagate(state_from_values(grid, 1j * prob.mu * np.abs(c) ** (prob.nu - 1.0) * c),
                      op, sigma, -t).values for c, t in zip(cur, times)])
        acc = np.zeros_like(integrand)
        dt = np.diff(times).reshape((-1,) + (1,) * grid.dim)
        acc[1:] = np.cumsum(dt * (integrand[1:] + integrand[:-1]) / 2.0, axis=0)
        nxt = [propagate(state_from_values(grid, prob.u0.values + a), op, sigma, t).values
               for a, t in zip(acc, times)]
        diffs.append(max(np.linalg.norm(a - b) for a, b in zip(nxt, cur))
                     * math.sqrt(grid.cell_volume))
        cur = nxt
    return np.array(cur), np.array(diffs)


@pytest.mark.parametrize("path", ["flat", "flat-2d", "eig"])
def test_batched_picard_matches_per_state_propagation(path):
    """The coefficient-space iteration against the Duhamel map in values, one
    propagate call per state and time; in 2-D the group table broadcasts
    over both grid axes."""
    op = _operator(path)
    u0 = modulated_gaussian(op.grid, 0.5 * op.grid.length, 0.5, omega=3.0)
    prob = _problem(op.grid, op, u0, T=0.05)
    report = picard_iterate(prob, n_iter=4, n_t=9)
    states, diffs = _per_state_picard(prob, 4, 9)
    assert_allclose(np.array([s.values for s in report.states]), states,
                    rtol=1e-13, atol=1e-13)
    assert_allclose(report.diffs, diffs, rtol=1e-12, atol=1e-13 * diffs[0])


@pytest.mark.parametrize("path", ["flat", "flat-2d", "eig"])
@pytest.mark.parametrize("n_iter", [1, 3])
def test_picard_makes_two_transforms_per_iteration(path, n_iter, monkeypatch):
    """One transform of u0 and one synthesis of the free evolution, then per
    iteration one transform of the nonlinearity and one synthesis."""
    op = _operator(path)
    calls = []

    def counted(name):
        method = getattr(SpectralOperator, name)

        def call(self, arg):
            calls.append(name)
            return method(self, arg)
        return call

    for name in ("coefficients", "synthesize"):
        monkeypatch.setattr(SpectralOperator, name, counted(name))
    u0 = modulated_gaussian(op.grid, 0.5 * op.grid.length, 0.5, omega=3.0)
    picard_iterate(_problem(op.grid, op, u0, T=0.05), n_iter=n_iter, n_t=9)
    assert calls == ["coefficients", "synthesize"] * (1 + n_iter)


@pytest.mark.parametrize("path", ["flat", "eig"])
def test_wave_solver_moves_the_pair_as_each_state_alone(path):
    """solve_nlfw's steps against kick, the exact cos/sin flow with v and w
    transformed one state at a time, and kick again."""
    op = _operator(path)
    v = modulated_gaussian(op.grid, 0.5 * op.grid.length, 0.5, omega=3.0)
    w = state_from_values(op.grid, 0.2 * np.real(v.values).astype(complex))
    prob = _problem(op.grid, op, v, T=0.05, v1=w)
    dt, mu_vals = prob.T / 5, op.lam ** 1.0
    c, s_over = np.cos(dt * mu_vals), _sin_over(mu_vals, dt)
    want_v, want_w = v.values, w.values
    for _ in range(5):
        want_w = want_w - 0.5 * dt * np.abs(want_v) ** 2 * want_v
        cv = op.coefficients(state_from_values(op.grid, want_v))
        cw = op.coefficients(state_from_values(op.grid, want_w))
        want_v = op.synthesize(c * cv + s_over * cw).values
        want_w = op.synthesize(-(mu_vals**2) * s_over * cv + c * cw).values
        want_w = want_w - 0.5 * dt * np.abs(want_v) ** 2 * want_v
    got_v, got_w = solve_nlfw(prob).final
    assert_allclose(got_v.values, want_v, rtol=1e-13, atol=1e-13)
    assert_allclose(got_w.values, want_w, rtol=1e-13, atol=1e-12)


def test_picard_rejects_expanding_window(setup):
    grid, op = setup
    prob = _problem(grid, op, _combo(grid, [(1, 1.5)]), T=1.5)
    with pytest.raises(ContractionError):
        picard_iterate(prob, n_iter=6)


@pytest.mark.parametrize("kwargs", [dict(n_iter=0), dict(n_t=1)])
def test_picard_rejects_empty_iteration(setup, kwargs):
    """No iteration, or a single time node, measures no contraction."""
    grid, op = setup
    with pytest.raises(ValueError):
        picard_iterate(_problem(grid, op, _combo(grid, [(1, 0.01)])), **kwargs)


def test_picard_blowup_guard(setup):
    grid, op = setup
    prob = _problem(grid, op, _combo(grid, [(1, 3.0)]), nu=5.0, mu=-1, T=1.0)
    message = "sup amplitude exceeded 1e+06 x initial at t=0.171875"
    with pytest.raises(BlowUpError, match=f"^{re.escape(message)}$") as err:
        picard_iterate(prob, n_iter=4)
    assert err.value.t_last == 0.171875      # the first of the 65 nodes over the bound


def test_blowup_on_nonfinite_data(setup):
    grid, op = setup
    vals = np.ones(N_GRID, dtype=complex)
    vals[3] = np.nan
    prob = _problem(grid, op, state_from_values(grid, vals))
    with pytest.raises(BlowUpError) as err:
        solve_nlfs(prob)
    assert err.value.t_last == 0.0


@pytest.mark.parametrize("entry, message", [
    (np.nan, "non-finite values at t=0.5"),
    (np.inf, "non-finite values at t=0.5"),
    (-np.inf, "non-finite values at t=0.5"),
    (complex(np.nan, np.inf), "non-finite values at t=0.5"),
    (complex(0.0, -np.inf), "non-finite values at t=0.5"),
    (2e6, "sup amplitude exceeded 1e+06 x initial at t=0.5"),
], ids=["nan", "inf", "-inf", "nan+inf*1j", "-inf*1j", "over-threshold"])
def test_blowup_guard_reads_one_maximum(entry, message):
    """The guard reads max |u| alone: max carries a NaN through, and |z| is
    inf when either part is infinite."""
    values = np.ones(16, dtype=complex)
    values[5] = entry
    with pytest.raises(BlowUpError, match=f"^{re.escape(message)}$") as err:
        fracwkb.nlfs._blowup_guard(values, 0.5, 1.0)
    assert err.value.t_last == 0.5
    fracwkb.nlfs._blowup_guard(np.full(16, 1e6 + 0j), 0.5, 1.0)     # at the bound: no error


def test_split_step_time_reversal(setup):
    grid, op = setup
    u0 = _combo(grid, [(1, 0.4), (-2, 0.2)])
    fwd = solve_nlfs(_problem(grid, op, u0, T=0.3, dt=0.005))
    back = solve_nlfs(_problem(grid, op, fwd.final, T=-0.3, dt=0.005))
    assert_allclose(back.final.values, u0.values, atol=1e-12)


def test_wave_kernel_mode_is_linear_in_time(setup):
    grid, op = setup
    v0 = state_from_values(grid, 0.7 * np.ones(N_GRID, dtype=complex))
    v1 = state_from_values(grid, 0.3 * np.ones(N_GRID, dtype=complex))
    prob = _problem(grid, op, v0, mu=0, T=0.8, v1=v1)
    vT, wT = solve_nlfw(prob).final
    assert_allclose(vT.values, 0.7 + 0.8 * 0.3, atol=1e-13)
    assert_allclose(wT.values, 0.3, atol=1e-13)


def test_wave_single_mode_cosine(setup):
    grid, op = setup
    k = 3
    prob = _problem(grid, op, _combo(grid, [(k, 1.0)]), mu=0, T=0.4,
                    dt=0.005, v1=_zero(grid))
    vT, _ = solve_nlfw(prob).final
    expected = np.cos(0.4 * abs(k) ** 2.0) * plane_wave(grid, k).values
    assert_allclose(vT.values, expected, atol=1e-12)


def test_wave_energy_drift_second_order(setup):
    grid, op = setup
    v0 = _combo(grid, [(1, 0.3), (2, 0.2)])
    v1 = _combo(grid, [(1, 0.1)])
    drifts = []
    for dt in (0.004, 0.002):
        prob = _problem(grid, op, v0, T=0.5, dt=dt, v1=v1)
        e0 = conserved(prob, prob.u0, prob.v1)
        vT, wT = solve_nlfw(prob).final
        drifts.append(abs(conserved(prob, vT, wT).energy - e0.energy))
    assert 3.5 < drifts[0] / drifts[1] < 4.5


def test_wave_requires_velocity(setup):
    grid, op = setup
    with pytest.raises(ValueError):
        solve_nlfw(_problem(grid, op, _combo(grid, [(1, 0.1)]), mu=0))


@pytest.mark.parametrize("sigma", [1.5, 2.0])
def test_conserved_single_mode_closed_form(setup, sigma):
    grid, op = setup
    A, k = 0.2, 3
    prob = _problem(grid, op, _combo(grid, [(k, A)]), sigma=sigma)
    q = conserved(prob, prob.u0)
    L = 2.0 * np.pi
    assert_allclose(q.mass, L * A**2, rtol=1e-13)
    assert_allclose(q.energy,
                    0.5 * L * abs(k) ** sigma * A**2 + 0.25 * L * A**4,
                    rtol=1e-13)


def test_defocusing_energy_nonnegative(setup):
    grid, op = setup
    rng = np.random.default_rng(7)
    vals = rng.normal(size=N_GRID) + 1j * rng.normal(size=N_GRID)
    prob = _problem(grid, op, state_from_values(grid, vals))
    assert conserved(prob, prob.u0).energy >= 0.0


@pytest.mark.parametrize("sigma,factor", [(2.0, 1.0), (3.0, 2.0**0.5)])
def test_sobolev_bound_closed_form(setup, sigma, factor):
    grid, op = setup
    prob = _problem(grid, op, _combo(grid, [(1, 0.3), (4, 0.1)]), sigma=sigma)
    q = conserved(prob, prob.u0)
    assert_allclose(sobolev_bound(prob),
                    np.sqrt(factor * (q.mass + 2.0 * q.energy)), rtol=1e-13)


def test_sobolev_bound_rejects_focusing(setup):
    grid, op = setup
    with pytest.raises(ValueError):
        sobolev_bound(_problem(grid, op, _combo(grid, [(1, 0.1)]), mu=-1))


def test_continuation_covers_interval_within_bound(setup):
    grid, op = setup
    prob = _problem(grid, op, _combo(grid, [(1, 0.3), (4, 0.1)]),
                    T=1.2, dt=0.01)
    result = global_continuation(prob, 1.2)
    assert result.times[-1] == pytest.approx(1.2, abs=1e-12)
    assert sum(length for _, length in result.segments) == \
        pytest.approx(1.2, abs=1e-12)
    assert result.bound == pytest.approx(sobolev_bound(prob), rel=1e-13)
    sup = max(sobolev_norm(s, 0.5 * prob.sigma, op) for s in result.states)
    assert sup <= result.bound


def test_continuation_halves_a_window_that_does_not_contract(setup):
    # at amplitude 2 the probe of the first 0.5 window does not contract, so
    # the window is halved twice; the next ones take 0.5 and what is left
    grid, op = setup
    u0 = state_from_values(grid, 2.0 * modulated_gaussian(grid, np.pi, 0.5, 3.0).values)
    result = global_continuation(_problem(grid, op, u0, T=1.0, dt=0.01), 1.0)
    # (start, length): each window starts where the last ended, out to T = 1
    assert result.segments == [(0.0, 0.125), (0.125, 0.5), (0.625, 0.375)]
    assert result.times[-1] == pytest.approx(1.0, abs=1e-12)


def test_continuation_zero_data(setup):
    grid, op = setup
    result = global_continuation(
        _problem(grid, op, _zero(grid), T=0.7, dt=0.01), 0.7)
    assert result.times[-1] == pytest.approx(0.7, abs=1e-12)
    for state in result.states:
        np.testing.assert_array_equal(state.values, 0.0)


def test_continuation_blowup_in_a_window_carries_the_global_time(setup, monkeypatch):
    """A split step that blows up in the second window reports t_done + t_last."""
    grid, op = setup
    u0 = _combo(grid, [(1, 0.3), (4, 0.1)])
    real_solve = fracwkb.nlfs.solve_nlfs

    def solve(local):
        if local.u0 is not u0:
            raise BlowUpError(0.01, "window blew up")
        return real_solve(local)

    monkeypatch.setattr(fracwkb.nlfs, "solve_nlfs", solve)
    with pytest.raises(BlowUpError) as err:
        global_continuation(_problem(grid, op, u0, T=1.2, dt=0.01), 1.2)
    assert err.value.t_last == pytest.approx(0.5 + 0.01, abs=1e-12)


@pytest.mark.parametrize("amp", [14.0, 16.0])
def test_continuation_without_a_contracting_window_raises(setup, amp):
    # at amplitude 16 the 0.5 window's probe blows up (BlowUpError) and at 14
    # it stops contracting (ContractionError): both are probes that do not
    # contract, so the window is halved; no halving contracts, and the
    # continuation names its start, before any split step
    grid, op = setup
    u0 = state_from_values(grid, amp * modulated_gaussian(grid, np.pi, 0.5, 3.0).values)
    with pytest.raises(ContractionError, match="no contracting window found at t=0$"):
        global_continuation(_problem(grid, op, u0, T=0.5, dt=1e-3), 0.5)


def test_continuation_halves_a_window_whose_probe_blows_up(setup):
    # a wide packet at amplitude 10: the probe of the first 0.5 window blows
    # up, and the window is halved like one that does not contract
    grid, op = setup
    u0 = state_from_values(grid, 10.0 * modulated_gaussian(grid, np.pi, 2.0, 3.0).values)
    prob = _problem(grid, op, u0, T=0.5, dt=1e-3)
    with pytest.raises(BlowUpError):
        picard_iterate(prob, n_iter=fracwkb.nlfs.PROBE_ITERATIONS, n_t=17)
    result = global_continuation(prob, 0.5)
    assert result.segments[0] == (0.0, 2.0**-8)
    assert len(result.segments) == 88
    assert result.times[-1] == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("T_total", [np.inf, np.nan, -1.0, 0.0])
def test_continuation_rejects_a_total_time_that_is_not_positive_and_finite(setup, T_total,
                                                                          monkeypatch):
    # inf would add windows forever; nan, -1 and 0 would return u0 alone
    grid, op = setup
    monkeypatch.setattr(fracwkb.nlfs, "picard_iterate", None)
    with pytest.raises(ValueError, match="^T_total must be positive and finite"):
        global_continuation(_problem(grid, op, _combo(grid, [(1, 0.1)]), T=0.5), T_total)


@pytest.mark.parametrize("mu", [-1, 0])
def test_continuation_requires_defocusing(setup, mu):
    grid, op = setup
    with pytest.raises(ValueError):
        global_continuation(
            _problem(grid, op, _combo(grid, [(1, 0.1)]), mu=mu, T=0.5), 0.5)


@pytest.mark.parametrize("over", [
    {"sigma": 1.0},
    {"nu": 1.0},
    {"mu": 0.5},
    {"dt": 0.0},
    {"T": 0.0},
    {"T": np.inf},
    {"T": np.nan},
    {"nu": np.inf},
    {"nu": np.nan},
])
def test_problem_validation(setup, over):
    grid, op = setup
    with pytest.raises(ValueError):
        _problem(grid, op, _combo(grid, [(1, 0.1)]), **over)


@pytest.mark.parametrize("dt", [np.inf, np.nan])
def test_problem_rejects_a_step_that_is_not_finite(setup, dt):
    # an infinite step would run one step of length T; NaN would reach the
    # step count's int conversion
    grid, op = setup
    with pytest.raises(ValueError, match="dt must be positive and finite"):
        _problem(grid, op, _combo(grid, [(1, 0.1)]), dt=dt)


def test_non_odd_nu_warns(setup):
    grid, op = setup
    with pytest.warns(UserWarning):
        _problem(grid, op, _combo(grid, [(1, 0.1)]), nu=2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _problem(grid, op, _combo(grid, [(1, 0.1)]), nu=5.0)
