"""Per-layer spans and counters, recorded from outside the program.

`Tracer.install()` wraps the public functions of the timed fracwkb modules
(and the methods named below) in spans; `uninstall()` puts the originals
back, so untraced rounds run the program untouched. The modules bind each
other's functions with `from ... import`, so a wrapper replaces the function
under every name that refers to it in every loaded fracwkb module.

A span's self time is its duration minus the durations of the spans it
encloses. Counters are attributed where the work happens:

- `symbols.eval`: every SymbolFunction evaluator call and its batch size.
- `hamflow.*.point_steps`: batch size times RK4 steps, counted at
  `hamflow._rk4_step` and charged to the enclosing integrate_flow or
  flow_trajectory.
- `hamflow.inverse_map.flows`: integrate_flow calls made directly by
  inverse_map (Newton steps plus damping trials).
- `nlfs.steps`: split steps, counted at `nlfs._blowup_guard` (called once
  per step) inside solve_nlfs or solve_nlfw, not inside picard_iterate.
- `transport.amplitude_point_data.points`: counted once per outermost call,
  so its chunked recursion is not counted twice; the points are also charged
  to the enclosing fio.kernel or fio.apply_fio span.
- `fio.kernel.xi_points`: characteristic points / x points, i.e. xi nodes.
- `fio.kernel_sup`: the characteristic points of each kernel round.
- `spectral.transform`: SpectralOperator.coefficients/synthesize and
  state_from_values/state_from_fourier, counted once per outermost call.
"""

import sys
import time
import types
from collections import defaultdict

import fracwkb.fio
import fracwkb.hamflow
import fracwkb.hamjac
import fracwkb.nlfs
import fracwkb.spectral
import fracwkb.strichartz
import fracwkb.symbols
import fracwkb.transport

TIMED_MODULES = ("symbols", "hamflow", "hamjac", "transport", "fio",
                 "spectral", "strichartz", "nlfs")

SYMBOL_EVALUATORS = ("__call__", "grad_x", "grad_xi", "hess_xx", "hess_xixi", "hess_xxi")
TRANSFORM_FUNCTIONS = ("state_from_values", "state_from_fourier")
TRANSFORM_METHODS = ("coefficients", "synthesize")


class _Frame:
    __slots__ = ("name", "child", "amp_points", "rounds")

    def __init__(self, name):
        self.name = name
        self.child = 0.0
        self.amp_points = 0
        self.rounds = []


class Tracer:
    def __init__(self):
        self.stack = []
        self.patches = []
        self.reset()

    def reset(self):
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)

    # -- span bookkeeping -------------------------------------------------

    def _enclosing(self, *names):
        for frame in reversed(self.stack):
            if frame.name in names:
                return frame
        return None

    def _wrap(self, name, fn, on_exit=None):
        stack = self.stack
        tracer = self

        def traced(*args, **kwargs):
            frame = _Frame(name)
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                tracer.self_time[name] += duration - frame.child
                if stack:
                    stack[-1].child += duration
            if on_exit is not None:
                on_exit(frame, args, kwargs, result, duration)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- counters -----------------------------------------------------------

    def _on_symbol(self, frame, args, kwargs, result, duration):
        self.counts["symbols.eval_calls"] += 1
        self.counts["symbols.eval_points"] += len(result)

    def _on_transform(self, frame, args, kwargs, result, duration):
        if self._enclosing("spectral.transform") is None:
            self.counts["spectral.transform.calls"] += 1
            # coefficients() returns the array itself, the others a StateField
            self.counts["spectral.transform.points"] += getattr(result, "values", result).size

    def _on_integrate_flow(self, frame, args, kwargs, result, duration):
        self.counts["hamflow.integrate_flow.calls"] += 1
        if self.stack and self.stack[-1].name == "hamflow.inverse_map":
            self.counts["hamflow.inverse_map.flows"] += 1

    def _on_inverse_map(self, frame, args, kwargs, result, duration):
        self.counts["hamflow.inverse_map.calls"] += 1

    def _on_phase_point_data(self, frame, args, kwargs, result, duration):
        self.counts["hamjac.phase_point_data.points"] += result.S.shape[0]

    def _on_amplitude_point_data(self, frame, args, kwargs, result, duration):
        if self._enclosing("transport.amplitude_point_data") is not None:
            return
        points = result.a.shape[1]
        self.counts["transport.amplitude_point_data.points"] += points
        owner = self._enclosing("fio.kernel", "fio.apply_fio")
        if owner is not None:
            owner.amp_points += points

    def _on_kernel(self, frame, args, kwargs, result, duration):
        self.counts["fio.kernel.calls"] += 1
        self.counts["fio.kernel.xi_points"] += frame.amp_points // result.values.shape[0]
        if self.stack and self.stack[-1].name == "fio.kernel_sup":
            self.stack[-1].rounds.append(frame.amp_points)

    def _on_kernel_sup(self, frame, args, kwargs, result, duration):
        self.counts["fio.kernel_sup.calls"] += 1
        self.counts["fio.kernel_sup.rounds"] += len(frame.rounds)
        self.counts["fio.kernel_sup.points"] += sum(frame.rounds)
        self.counts["fio.kernel_sup.nonfinal_points"] += sum(frame.rounds[:-1])

    def _on_apply_fio(self, frame, args, kwargs, result, duration):
        self.counts["fio.apply_fio.calls"] += 1
        self.counts["fio.apply_fio.matrix_entries"] += frame.amp_points

    def _on_discretize(self, frame, args, kwargs, result, duration):
        self.self_time["spectral.discretize_P_1d.total"] += duration

    def _count_rk4(self, rk4):
        tracer = self

        def counted(H, X, Xi, Z, h):
            owner = tracer._enclosing("hamflow.integrate_flow", "hamflow.flow_trajectory")
            if owner is not None:
                tracer.counts[owner.name + ".point_steps"] += X.shape[0]
            return rk4(H, X, Xi, Z, h)

        return counted

    def _count_split_steps(self, guard):
        tracer = self

        def counted(values, t, sup0):
            owner = tracer._enclosing("nlfs.solve_nlfs", "nlfs.solve_nlfw", "nlfs.picard_iterate")
            if owner is not None and owner.name != "nlfs.picard_iterate":
                tracer.counts["nlfs.steps"] += 1
            return guard(values, t, sup0)

        return counted

    # -- installation -------------------------------------------------------

    def _hooks(self):
        return {
            "hamflow.integrate_flow": self._on_integrate_flow,
            "hamflow.inverse_map": self._on_inverse_map,
            "hamjac.phase_point_data": self._on_phase_point_data,
            "transport.amplitude_point_data": self._on_amplitude_point_data,
            "fio.kernel": self._on_kernel,
            "fio.kernel_sup": self._on_kernel_sup,
            "fio.apply_fio": self._on_apply_fio,
            "spectral.discretize_P_1d": self._on_discretize,
        }

    def _namespaces(self):
        mods = [m for name, m in sorted(sys.modules.items())
                if name == "fracwkb" or name.startswith("fracwkb.")]
        return [vars(m) for m in mods]

    def _replace_everywhere(self, original, replacement):
        for ns in self._namespaces():
            for key, value in list(ns.items()):
                if value is original:
                    self.patches.append((ns, key, original))
                    ns[key] = replacement

    def install(self):
        if self.patches:
            raise RuntimeError("tracer already installed")
        hooks = self._hooks()
        for short in TIMED_MODULES:
            module = sys.modules[f"fracwkb.{short}"]
            for attr in module.__all__:
                fn = getattr(module, attr)
                if not isinstance(fn, types.FunctionType) or fn.__module__ != module.__name__:
                    continue
                if attr in TRANSFORM_FUNCTIONS:
                    name, hook = "spectral.transform", self._on_transform
                else:
                    name = f"{short}.{attr}"
                    hook = hooks.get(name)
                self._replace_everywhere(fn, self._wrap(name, fn, hook))
        rk4 = fracwkb.hamflow._rk4_step
        self._replace_everywhere(rk4, self._count_rk4(rk4))
        guard = fracwkb.nlfs._blowup_guard
        self._replace_everywhere(guard, self._count_split_steps(guard))
        classes = [(fracwkb.symbols.SymbolFunction, SYMBOL_EVALUATORS,
                    "symbols.eval", self._on_symbol),
                   (fracwkb.spectral.SpectralOperator, TRANSFORM_METHODS,
                    "spectral.transform", self._on_transform)]
        for cls, methods, name, hook in classes:
            for attr in methods:
                original = cls.__dict__[attr]
                self.patches.append((cls, attr, original))
                setattr(cls, attr, self._wrap(name, original, hook))

    def uninstall(self):
        for owner, key, original in reversed(self.patches):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self.patches = []

    # -- report ---------------------------------------------------------------

    def layer_metrics(self):
        """The per-layer metrics of everything recorded since the last reset."""
        c, t = self.counts, self.self_time

        def ratio(num, den):
            return c[num] / c[den] if c[den] else 0.0

        def module_self(prefix):
            return sum((v for k, v in t.items()
                        if k.startswith(prefix + ".") and not k.endswith(".total")), 0.0)

        return {
            "symbols.eval_calls": c["symbols.eval_calls"],
            "symbols.eval_points": c["symbols.eval_points"],
            "symbols.self_s": module_self("symbols"),
            "hamflow.integrate_flow.calls": c["hamflow.integrate_flow.calls"],
            "hamflow.integrate_flow.point_steps": c["hamflow.integrate_flow.point_steps"],
            "hamflow.integrate_flow.self_s": t["hamflow.integrate_flow"],
            "hamflow.flow_trajectory.point_steps": c["hamflow.flow_trajectory.point_steps"],
            "hamflow.flow_trajectory.self_s": t["hamflow.flow_trajectory"],
            "hamflow.inverse_map.calls": c["hamflow.inverse_map.calls"],
            "hamflow.inverse_map.flows_per_call": ratio("hamflow.inverse_map.flows",
                                                        "hamflow.inverse_map.calls"),
            "hamflow.inverse_map.self_s": t["hamflow.inverse_map"],
            "hamflow.self_s": module_self("hamflow"),
            "hamjac.phase_point_data.points": c["hamjac.phase_point_data.points"],
            "hamjac.phase_point_data.self_s": t["hamjac.phase_point_data"],
            "hamjac.self_s": module_self("hamjac"),
            "transport.amplitude_point_data.points": c["transport.amplitude_point_data.points"],
            "transport.amplitude_point_data.self_s": t["transport.amplitude_point_data"],
            "transport.self_s": module_self("transport"),
            "fio.kernel.calls": c["fio.kernel.calls"],
            "fio.kernel.xi_points": c["fio.kernel.xi_points"],
            "fio.kernel.self_s": t["fio.kernel"],
            "fio.kernel_sup.calls": c["fio.kernel_sup.calls"],
            "fio.kernel_sup.rounds_per_call": ratio("fio.kernel_sup.rounds",
                                                    "fio.kernel_sup.calls"),
            "fio.kernel_sup.nonfinal_point_share": ratio("fio.kernel_sup.nonfinal_points",
                                                         "fio.kernel_sup.points"),
            "fio.apply_fio.calls": c["fio.apply_fio.calls"],
            "fio.apply_fio.matrix_entries": c["fio.apply_fio.matrix_entries"],
            "fio.apply_fio.self_s": t["fio.apply_fio"],
            "fio.self_s": module_self("fio"),
            "spectral.transform.calls": c["spectral.transform.calls"],
            "spectral.transform.points": c["spectral.transform.points"],
            "spectral.transform.self_s": t["spectral.transform"],
            "spectral.discretize_P_1d.s": t["spectral.discretize_P_1d.total"],
            "spectral.self_s": module_self("spectral"),
            "strichartz.self_s": module_self("strichartz"),
            "nlfs.steps": c["nlfs.steps"],
            "nlfs.self_s": module_self("nlfs"),
        }

