"""Fast tests of the benchmark itself: its contract file, its checks, its tracer.

Run with `PYTHONPATH=src python -m pytest -q benchmarks` from the repo root.
Every check must reject a perturbed answer, and two traced rounds of the
same calls must report identical per-layer counts.
"""

import json
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import fracwkb.fio
import fracwkb.hamflow
import fracwkb.hamjac
import fracwkb.nlfs
import fracwkb.spectral
import fracwkb.symbols
import fracwkb.transport
from fracwkb.hamjac import build_phase
from fracwkb.metric import flat_metric, gaussian_bump_metric
from fracwkb.symbols import (ConstantWindow, GaussianWindow, fractional_symbol,
                             localized_amplitude, make_bump)
from fracwkb.transport import solve_transport

import reference as ref
import run
import workloads as wl
from tracer import Tracer
from worker import run_round

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_has_the_fixed_form():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["command"] == ["python3", "benchmarks/run.py"]
    assert SPEC["paths"] == ["benchmarks"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"}
        assert "\n" not in w["why"] and len(w["why"]) <= 200
    names = [w["name"] for w in SPEC["workloads"]]
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0.0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"])
        assert m["better"] in ("lower", "higher")
        names.append(m["name"])
    assert len(names) == len(set(names))
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_per_layer_metrics_are_the_tracer_metrics():
    reported = set(Tracer().layer_metrics()) | {"trace.wall_s", "trace.overhead_s"}
    assert {m["name"] for m in SPEC["per_layer"]} == reported


# -- every check rejects a perturbed answer ------------------------------------

@pytest.fixture(scope="module")
def flat_tables():
    flat = flat_metric(dim=1)
    q0 = fractional_symbol(flat, 2.0, xi_band=(0.2, 4.0))
    cut = make_bump(*wl.CUT_STANDARD[:2], wl.CUT_STANDARD[2:])
    a_init = localized_amplitude(flat, cut, window=ConstantWindow(1))
    tab = build_phase(q0, [0.0, 0.1, 0.3], np.linspace(0.0, 2.0 * np.pi, 5)[:, None],
                      np.linspace(0.8, 1.6, 3)[:, None])
    return tab, solve_transport(a_init, tab, N=1)


def test_kernel_check_rejects_a_reference_at_another_sigma(flat_tables):
    tab, amp = flat_tables
    h, t = 2.0**-5, 0.3
    # the window corners of the decay fit fix kernel's xi resolution, as in the workload
    x, y = np.array([-0.5, 0.5, 0.1]), np.array([-4.9, 4.9, 0.5, 0.9, -0.4])
    got = fracwkb.fio.kernel(tab, amp, h, t, x, y).values
    assert wl.check_kernel_values(got, ref.flat_kernel(t, x, y, h, 2.0, wl.CUT_STANDARD))["ok"]
    assert not wl.check_kernel_values(got, ref.flat_kernel(t, x, y, h, 2.1, wl.CUT_STANDARD))["ok"]


def test_flat_table_checks_reject_perturbed_tables(flat_tables):
    tab, amp = flat_tables
    assert wl.check_flat_phase(tab, 2.0)["ok"]
    assert not wl.check_flat_phase(SimpleNamespace(**{**vars(tab), "S": tab.S + 1e-8}), 2.0)["ok"]
    assert wl.check_flat_amplitude(amp, 2.0, wl.CUT_STANDARD, None)["ok"]
    assert not wl.check_flat_amplitude(amp, 2.0, (0.25, 3.8, 0.7, 3.0), None)["ok"]
    window = (1.0, 0.6)
    flat = flat_metric(dim=1)
    shifted = localized_amplitude(flat, make_bump(0.25, 3.8, (0.5, 3.0)),
                                  window=GaussianWindow(1, center=window[0], width=window[1]))
    amp_w = solve_transport(shifted, tab, N=1)
    assert wl.check_flat_amplitude(amp_w, 2.0, wl.CUT_STANDARD, window)["ok"]
    assert not wl.check_flat_amplitude(amp_w, 2.0, wl.CUT_STANDARD, (1.01, 0.6))["ok"]


def test_slope_checks_reject_wrong_slopes():
    assert wl.check_decay_slope(-0.49, 1)["ok"]
    assert not wl.check_decay_slope(-0.35, 1)["ok"]
    assert wl.check_remainder_slope(1.9, 2)["ok"]
    assert not wl.check_remainder_slope(0.96, 2)["ok"]
    bound = ref.semiclassical_exponent(8.0, 4.0, 1)
    assert bound == 0.125
    assert ref.unscaled_exponent(8.0, 4.0, 1, 2.0) == 0.125
    assert ref.unscaled_exponent(8.0, 4.0, 1, 0.5) == 0.1875
    assert wl.check_strichartz_slope(-0.13, bound, "s")["ok"]
    assert not wl.check_strichartz_slope(-0.24, bound, "s")["ok"]


@pytest.fixture(scope="module")
def bump_tables():
    """A strip of the curved workload's grid, at its t and x spacing."""
    c = wl.CurvedParametrix
    metric = gaussian_bump_metric(dim=1, epsilon=c.EPS)
    q0 = fractional_symbol(metric, 2.0, xi_band=(0.3, 3.0))
    a_init = localized_amplitude(metric, make_bump(*c.CUT[:2], c.CUT[2:]),
                                 window=GaussianWindow(1, center=0.0, width=0.8))
    tab = build_phase(q0, np.linspace(-0.05, 0.05, 11), np.linspace(-0.5, 0.5, 21)[:, None],
                      np.linspace(0.8, 1.6, 3)[:, None], dt=0.01)
    return tab, solve_transport(a_init, tab, N=1)


def test_curved_checks_reject_perturbed_tables(bump_tables):
    tab, amp = bump_tables
    eps = wl.CurvedParametrix.EPS
    assert wl.check_energy(tab, eps)["ok"]
    assert not wl.check_energy(SimpleNamespace(**{**vars(tab), "Y": tab.Y + 1e-6}), eps)["ok"]
    assert wl.check_hj(tab, eps, 2.0)["ok"]
    t = tab.t_grid[:, None, None]
    bent = SimpleNamespace(**{**vars(tab), "S": tab.S + 1e-3 * t**2})
    assert not wl.check_hj(bent, eps, 2.0)["ok"]
    assert not wl.check_hj(tab, 1.01 * eps, 2.0)["ok"]
    assert wl.check_transport(amp, tab, eps, 2.0)["ok"]
    # a_0 without its integrating factor exp(int f) misses the transport equation
    xi = np.broadcast_to(tab.xi_grid[:, 0], tab.S.shape).reshape(-1, 1)
    bare = amp.a_init(tab.Y.reshape(-1, 1), xi).reshape(tab.S.shape)
    assert np.max(np.abs(bare - amp.values[0])) > 0.0
    frozen = SimpleNamespace(values=bare[None])
    assert not wl.check_transport(frozen, tab, eps, 2.0)["ok"]


def test_spectral_checks_reject_perturbed_outputs():
    s = wl.SpectralEvolution
    length = ref.circle_length(s.EPS, s.BOX)
    good = SimpleNamespace(lam=ref.circle_eigenvalues(length, s.LOW_EIGS))
    bad = SimpleNamespace(lam=ref.circle_eigenvalues(1.01 * length, s.LOW_EIGS))
    workload = object.__new__(s)
    assert workload.check_eigenvalues(good)["ok"]
    assert not workload.check_eigenvalues(bad)["ok"]

    n = s.N_EIG
    state = np.exp(-np.linspace(-8.0, 8.0, n, endpoint=False) ** 2).astype(complex)
    steady = SimpleNamespace(states=[SimpleNamespace(values=state)] * 3)
    leaky = SimpleNamespace(states=[SimpleNamespace(values=state * f) for f in (1.0, 1.0, 1.0 + 1e-9)])
    assert workload.check_mass(steady)["ok"]
    assert not workload.check_mass(leaky)["ok"]

    m = 9
    op = SimpleNamespace(lam=np.arange(m, dtype=float) ** 2, basis=np.eye(n, m))
    v = np.zeros(n, dtype=complex)
    v[:m] = 0.3
    traj = SimpleNamespace(states=[SimpleNamespace(values=v)] * 2,
                           velocities=[SimpleNamespace(values=v)] * 2)
    pumped = SimpleNamespace(states=[SimpleNamespace(values=v), SimpleNamespace(values=1.001 * v)],
                             velocities=[SimpleNamespace(values=v)] * 2)
    assert workload.check_wave_energy(traj, op)["ok"]
    assert not workload.check_wave_energy(pumped, op)["ok"]


def test_rescaling_check_rejects_a_misscaled_propagator(monkeypatch):
    workload = object.__new__(wl.SpectralEvolution)
    assert workload.check_rescaling(2.0, np.random.default_rng(3))["ok"]
    exact = fracwkb.spectral.propagate

    def misscaled(u0, op, sigma, t, h=None):
        return exact(u0, op, sigma, t * (1.0 if h is None else h**sigma), h=None)

    monkeypatch.setattr(fracwkb.spectral, "propagate", misscaled)
    assert not workload.check_rescaling(2.0, np.random.default_rng(3))["ok"]


def test_continuation_check_rejects_an_unbounded_run():
    workload = wl.SpectralEvolution()
    bound = ref.flat_conservation_bound(workload.w0.values, 2.0 * np.pi, 2.0, 1, 3.0)
    result = SimpleNamespace(times=np.array([0.0, 10.0]), bound=bound,
                             states=[workload.w0])
    assert all(row["ok"] for row in workload.check_continuation(result))
    grown = SimpleNamespace(times=result.times, bound=bound,
                            states=[workload.w0, SimpleNamespace(values=3.0 * workload.w0.values)])
    assert not all(row["ok"] for row in workload.check_continuation(grown))


# -- tracer -----------------------------------------------------------------------

class _MiniWorkload:
    """Small flat calls through every traced fio and transport path."""

    def __init__(self):
        flat = flat_metric(dim=1)
        self.q0 = fractional_symbol(flat, 2.0, xi_band=(0.2, 4.0))
        self.a_init = localized_amplitude(flat, make_bump(0.25, 3.8, (0.5, 3.0)),
                                          window=GaussianWindow(1, center=np.pi, width=0.6))

    def operations(self):
        x = np.linspace(0.0, 2.0 * np.pi, 5)[:, None]
        xi = np.linspace(0.8, 1.6, 3)[:, None]
        return [
            ("phase", lambda out: wl.hamjac.build_phase(self.q0, [0.0, 0.15], x, xi)),
            ("amp", lambda out: wl.transport.solve_transport(self.a_init, out["phase"], N=2)),
            ("sup", lambda out: wl.fio.kernel_sup(out["phase"], out["amp"], 2.0**-3, 0.15,
                                                  (-0.5, 0.5), (-1.0, 1.0), max_rounds=2)),
            ("remainder", lambda out: wl.fio.remainder_decay(
                out["phase"], out["amp"], [2.0**-3, 2.0**-4], reference_propagator=wl.fft_reference)),
        ]

    def check(self, name, out, rng, outputs):
        return []


def _counts(layers):
    return {k: v for k, v in layers.items() if run.is_count(k)}


def test_traced_rounds_repeat_their_counts_and_restore_the_program(monkeypatch):
    originals = (fracwkb.hamflow.integrate_flow, fracwkb.hamjac.inverse_map,
                 fracwkb.transport.phase_point_data, fracwkb.symbols.SymbolFunction.grad_x,
                 fracwkb.spectral.SpectralOperator.coefficients, fracwkb.fio.state_from_values)
    mini = _MiniWorkload()
    tracer = Tracer()
    first = run_round(mini, 0, tracer)["layers"]
    second = run_round(mini, 1, tracer)["layers"]
    assert originals == (fracwkb.hamflow.integrate_flow, fracwkb.hamjac.inverse_map,
                         fracwkb.transport.phase_point_data, fracwkb.symbols.SymbolFunction.grad_x,
                         fracwkb.spectral.SpectralOperator.coefficients, fracwkb.fio.state_from_values)
    counts = _counts(first)
    assert counts == _counts(second)
    assert counts["fio.kernel_sup.calls"] == 1
    assert counts["fio.kernel_sup.rounds_per_call"] == 2.0
    assert 0.0 < counts["fio.kernel_sup.nonfinal_point_share"] < 1.0
    assert counts["fio.apply_fio.calls"] == 4
    assert counts["fio.apply_fio.matrix_entries"] > 0
    assert counts["hamflow.inverse_map.flows_per_call"] >= 1.0
    assert counts["spectral.transform.calls"] > 0
    assert first["symbols.self_s"] > 0.0

    # chunking makes amplitude_point_data recurse; the recursion counts once
    monkeypatch.setattr(fracwkb.transport, "MAX_POINT_BATCH", 1000)
    chunked = _counts(run_round(mini, 0, tracer)["layers"])
    assert chunked["transport.amplitude_point_data.points"] == counts["transport.amplitude_point_data.points"]
    assert chunked["fio.apply_fio.matrix_entries"] == counts["fio.apply_fio.matrix_entries"]


class _Calls:
    """A workload made of the given operations and checks."""

    def __init__(self, ops, rows=()):
        self.ops, self.rows = ops, list(rows)

    def operations(self):
        return self.ops

    def check(self, name, out, rng, outputs):
        return self.rows


def test_split_steps_are_counted_where_they_run(monkeypatch):
    grid = fracwkb.spectral.make_grid(1, 64, 2.0 * np.pi)
    u0 = fracwkb.spectral.modulated_gaussian(grid, np.pi, 0.5, 3.0)
    prob = fracwkb.nlfs.NlfsProblem(sigma=2.0, nu=3.0, mu=1, u0=u0, T=0.05, dt=0.01,
                                    op=fracwkb.spectral.flat_operator(grid))
    calls = _Calls([("nlfs", lambda out: wl.nlfs.solve_nlfs(prob)),
                    ("picard", lambda out: wl.nlfs.picard_iterate(prob, n_iter=2, n_t=9))])
    tracer = Tracer()
    assert run_round(calls, 0, tracer)["layers"]["nlfs.steps"] == 5
    # a solver that takes twice the steps shows in the count
    steps = fracwkb.nlfs._steps
    monkeypatch.setattr(fracwkb.nlfs, "_steps", lambda T, dt: steps(T, 0.5 * dt))
    assert run_round(calls, 0, tracer)["layers"]["nlfs.steps"] == 10


def test_reported_rows_do_not_fail_their_operation():
    noted = wl._row("known-fault", 1.0, 1e-8, False, gates=False)
    assert run_round(_Calls([("op", lambda out: None)], [noted]), 0)["failed"] == []
    gating = wl._row("claim", 1.0, 1e-8, False)
    assert run_round(_Calls([("op", lambda out: None)], [gating]), 0)["failed"] == ["op"]
