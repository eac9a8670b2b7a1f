"""Command-line experiment suites.

Each suite reads key=value configuration (file and/or flags), runs one
bundled experiment deterministically, writes CSV data plus a report of named
checks into the output directory, and exits nonzero when a check fails.
Unknown configuration keys are rejected before any computation starts.
"""

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from .fio import kernel, kernel_sup, dispersive_fit, stationary_phase_prediction
from .hamjac import build_phase, caustic_horizon, certify_phase_estimates, hj_residual
from .metric import (audit_assumptions, check_h, check_sigma, flat_metric,
                     gaussian_bump_metric)
from .nlfs import NlfsProblem, conserved, solve_nlfs, solve_nlfw
from .spectral import (discretize_P_1d, flat_operator, localized_gaussian, make_grid,
                       modulated_gaussian, sobolev_norm, state_from_values)
from .strichartz import (SLOPE_MARGIN, classify_pair, measure_semiclassical_scaling,
                         measure_unscaled_scaling, rescaling_identity_gap)
from .symbols import (ConstantWindow, fractional_symbol, localized_amplitude,
                      make_bump)
from .transport import solve_transport

__all__ = ["main"]


class ConfigError(ValueError):
    """Bad or unknown configuration before any computation."""


COMMON_KEYS = {
    "out": (str, "runs", "output directory"),
}

# A default given as a pair is (sigma < 1, sigma >= 1); `_resolve` picks one
# once sigma is checked, and a value that is set, 0 included, is kept.

SCHEMAS = {
    "phase": {
        "metric": (str, "bump", "flat or bump"),
        "epsilon": (float, 0.1, "bump amplitude"),
        "sigma": (float, 2.0, "dispersion exponent"),
        "band_lo": (float, 0.3, "flow guard band lower edge (in p)"),
        "band_hi": (float, 3.0, "flow guard band upper edge (in p)"),
        "x_lo": (float, -1.5, ""), "x_hi": (float, 1.5, ""),
        "n_x": (int, 31, ""),
        "xi_lo": (float, 0.8, ""), "xi_hi": (float, 1.6, ""),
        "n_xi": (int, 5, ""),
        "t_max": (float, 0.1, ""), "n_t": (int, 21, ""),
        "dt": (float, 0.01, "flow step"),
    },
    "kernel": {
        "sigma": (float, 2.0, ""),
        "h": (float, 2.0**-6, ""),
        # lambda = t/h = 8 at the default h; first-order stationary phase needs
        # the larger lambda at sigma < 1 (peak gap 0.44 at t = 0.125, 0.011 at t = 1)
        "t": (float, (1.0, 0.125), "kernel time; 0 checks symmetry on the x grid "
                                   "instead of decay"),
        "r1": (float, 0.25, "cutoff support lower edge"),
        "r2": (float, 16.0, "cutoff support upper edge"),
        "p1": (float, 1.0, "cutoff plateau lower edge"),
        "p2": (float, 4.0, "cutoff plateau upper edge"),
        "x_lo": (float, -0.5, ""), "x_hi": (float, 0.5, ""), "n_x": (int, 33, ""),
        "y_lo": (float, -3.0, ""), "y_hi": (float, 3.0, ""), "n_y": (int, 65, ""),
    },
    "dispersive": {
        "sigma": (float, 2.0, ""),
        "h": (float, 2.0**-6, ""),
        "t0": (float, (8.0, 1.0), "largest time"),
        "n_t": (int, (12, 10), "sample count"),
        "r1": (float, (0.1, 0.25), "cutoff support lower edge"),
        "r2": (float, (30.0, 3.8), ""), "p1": (float, 0.5, ""), "p2": (float, (1.0, 3.0), ""),
    },
    "strichartz": {
        "sigma": (float, 2.0, ""),
        "p": (float, 8.0, ""), "q": (float, 4.0, ""),
        "hmin": (float, 2.0**-9, ""), "hmax": (float, 2.0**-3, ""),
        "mode": (str, "semiclassical", "semiclassical or unscaled"),
        "t0": (float, 1.0, "half-width of the semiclassical time window"),
        "interval_lo": (float, 0.0, "unscaled-mode interval"),
        "interval_hi": (float, 1.0, ""),
        "n_t": (int, 65, ""),
        "r1": (float, 0.25, ""), "r2": (float, 3.8, ""),
        "p1": (float, 0.5, ""), "p2": (float, 3.0, ""),
    },
    "nlfs": {
        "metric": (str, "flat", "flat or bump"),
        "epsilon": (float, 0.1, ""),
        "sigma": (float, 2.0, ""), "nu": (float, 3.0, ""), "mu": (float, 1.0, ""),
        "T": (float, 1.0, ""), "dt": (float, 1e-3, ""),
        "n": (int, 256, "grid points (odd and below 1024 for the bump eigensolver)"),
        "amp": (float, 1.0, "initial amplitude"),
        "width": (float, 0.5, "initial Gaussian width"),
        "omega": (float, 3.0, "initial modulation frequency"),
    },
    "nlfw": {
        "metric": (str, "flat", "flat or bump"),
        "epsilon": (float, 0.1, ""),
        "sigma": (float, 2.0, ""), "nu": (float, 3.0, ""), "mu": (float, 1.0, ""),
        "T": (float, 0.5, ""), "dt": (float, 1e-3, ""),
        "n": (int, 256, "grid points (odd and below 1024 for the bump eigensolver)"),
        "amp": (float, 1.0, ""), "width": (float, 0.6, ""),
        "omega": (float, 2.0, ""),
        "v1_amp": (float, 0.2, "velocity = v1_amp * Re(v0)"),
    },
    "audit": {
        "metric": (str, "bump", "flat or bump"),
        "epsilon": (float, 0.1, ""),
        "n_samples": (int, 201, ""),
    },
}


def _parse_config_file(path):
    raw = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key = value, got {line!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        raw[key] = value
    return raw


def _resolve(suite, file_cfg, flag_cfg):
    schema = dict(SCHEMAS[suite])
    schema.update(COMMON_KEYS)
    cfg = {key: default for key, (_, default, _) in schema.items()}
    for source in (file_cfg, flag_cfg):
        for key, value in source.items():
            if key not in schema:
                raise ConfigError(
                    f"unknown key {key!r} for suite {suite!r}; "
                    f"known: {', '.join(sorted(schema))}")
            caster = schema[key][0]
            try:
                cfg[key] = caster(value) if not isinstance(value, caster) else value
            except (TypeError, ValueError) as err:
                raise ConfigError(f"key {key!r}: {err}") from err
    if "sigma" in cfg:
        try:
            check_sigma(cfg["sigma"])
        except ValueError as err:
            raise ConfigError(str(err)) from err
    for key, value in cfg.items():
        if isinstance(value, tuple):
            cfg[key] = value[0] if cfg["sigma"] < 1.0 else value[1]
    return cfg


def _metric_from(cfg):
    kind = cfg["metric"]
    if kind == "flat":
        return flat_metric(dim=1)
    if kind == "bump":
        return gaussian_bump_metric(dim=1, epsilon=cfg["epsilon"])
    raise ConfigError(f"metric must be flat or bump, got {kind!r}")


def _row(claim, value, threshold, ok):
    return {"claim": claim, "value": value, "threshold": threshold,
            "status": "PASS" if ok else "FAIL"}


def _write_csv(path, header, records):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for record in records:
            writer.writerow([repr(float(v)) if isinstance(v, float) else v
                             for v in record])


def _write_report(outdir, rows):
    _write_csv(outdir / "report.csv",
               ["claim", "value", "threshold", "status"],
               [(r["claim"], r["value"], r["threshold"], r["status"])
                for r in rows])
    for r in rows:
        print(f"{r['status']:4s} {r['claim']} = {r['value']} "
              f"(threshold {r['threshold']})")
    return all(r["status"] == "PASS" for r in rows)


def run_phase(cfg, outdir):
    if cfg["n_t"] < 5 or cfg["t_max"] == 0.0 or not np.isfinite(cfg["t_max"]):
        raise ConfigError(f"the residual stencil needs n_t >= 5 and t_max != 0 and finite, "
                          f"got n_t={cfg['n_t']} and t_max={cfg['t_max']}")
    m = _metric_from(cfg)
    q0 = fractional_symbol(m, cfg["sigma"], xi_band=(cfg["band_lo"], cfg["band_hi"]))
    xs = np.linspace(cfg["x_lo"], cfg["x_hi"], cfg["n_x"])[:, None]
    xis = np.linspace(cfg["xi_lo"], cfg["xi_hi"], cfg["n_xi"])[:, None]
    ts = np.linspace(-cfg["t_max"], cfg["t_max"], cfg["n_t"])
    tab = build_phase(q0, ts, xs, xis, dt=cfg["dt"])

    rows = []
    if m.is_flat:
        xxi = xs[:, 0][:, None] * xis[:, 0][None, :]
        exact = xxi[None] + ts[:, None, None] * np.abs(xis[:, 0])[None, None, :] ** cfg["sigma"]
        gap = float(np.max(np.abs(tab.S - exact)))
        rows.append(_row("phase-closed-form-gap", gap, 1e-10, gap < 1e-10))
    _, res_max = hj_residual(tab)
    # NaN when rounding hides the stencil's step, which the row then names
    step = f" skipping step dt = {ts[1] - ts[0]:.6g}" if np.isnan(res_max) else ""
    rows.append(_row("hj-residual-max" + step, res_max, 1e-5, res_max < 1e-5))
    rows.append(_row("mixed-hessian-asymmetry", tab.hess_asymmetry, 1e-8,
                     tab.hess_asymmetry < 1e-8))
    horizon, window = caustic_horizon(tab), abs(cfg["t_max"])
    rows.append(_row("caustic-free-horizon", horizon, window,
                     horizon >= window * (1.0 - 1e-12)))
    cert = certify_phase_estimates(tab)
    # times whose O(t) increment rounding hides are left out of the fit and
    # named; with none left the constants are NaN and the rows fail
    skipped = ", ".join(f"{t:.6g}" for t in cert.skipped_times)
    skipped = f" skipping t = {skipped}" if skipped else ""
    rows.append(_row("phase-linear-constant" + skipped, cert.C1, np.inf, np.isfinite(cert.C1)))
    rows.append(_row("phase-quadratic-constant" + skipped, cert.C2, np.inf,
                     np.isfinite(cert.C2)))

    records = []
    for k, t in enumerate(tab.t_grid):
        for i, x in enumerate(xs[:, 0]):
            for j, xi in enumerate(xis[:, 0]):
                records.append((float(t), float(x), float(xi),
                                float(tab.S[k, i, j]), float(tab.Y[k, i, j, 0])))
    _write_csv(outdir / "phase.csv", ["t", "x", "xi", "S", "Y"], records)
    return rows


def _flat_symbols(cfg):
    """q0, the cutoff and the initial symbol of the kernel suites; the flow's
    guard band is the cutoff's support [r1, r2] widened to [0.8 r1, 1.25 r2]."""
    m = flat_metric(dim=1)
    q0 = fractional_symbol(m, cfg["sigma"], xi_band=(0.8 * cfg["r1"], 1.25 * cfg["r2"]))
    cut = make_bump(cfg["r1"], cfg["r2"], (cfg["p1"], cfg["p2"]))
    return q0, cut, localized_amplitude(m, cut, window=ConstantWindow(1))


def run_kernel(cfg, outdir):
    q0, cut, amp0 = _flat_symbols(cfg)
    t = cfg["t"]
    tab = build_phase(q0, [t], np.zeros((1, 1)), np.array([[1.0]]), dt=0.01)
    amp = solve_transport(amp0, tab, N=1)
    xg = np.linspace(cfg["x_lo"], cfg["x_hi"], cfg["n_x"])
    yg = np.linspace(cfg["y_lo"], cfg["y_hi"], cfg["n_y"])
    K = kernel(tab, amp, cfg["h"], t, xg, yg)

    lam = np.linspace(cfg["r1"], cfg["r2"], 2001)
    mass = 2.0 * float(np.trapezoid(cut(lam) * 0.5 / np.sqrt(lam), lam))
    scaled = K.sup() * 2.0 * np.pi * cfg["h"]
    rows = [_row("kernel-sup-times-h", scaled, 1.05 * mass, scaled <= 1.05 * mass)]
    if t == 0.0:
        Kx = kernel(tab, amp, cfg["h"], t, xg, xg)      # K(x_i, x_j) = conj K(x_j, x_i)
        herm = float(np.max(np.abs(Kx.values - Kx.values.conj().T))) / Kx.sup()
        rows.append(_row("zero-time-hermitian-gap", herm, 1e-8, herm < 1e-8))
    else:
        # covectors of sign -sign(t) over the cutoff's support: their
        # stationary points y span the stationary set of x = 0
        xi = -np.sign(t) * np.linspace(np.sqrt(cfg["r1"]), np.sqrt(cfg["r2"]), 200)
        best = float(np.max(stationary_phase_prediction(amp, cfg["h"], t, 0.0, xi)[1]))
        sup = kernel_sup(tab, amp, cfg["h"], t, (cfg["x_lo"], cfg["x_hi"]),
                         (cfg["y_lo"], cfg["y_hi"]))
        gap = abs(sup - best) / best if best > 0.0 else np.inf
        rows.append(_row("stationary-peak-gap", gap, 0.2, gap <= 0.2))

    records = [(float(x), float(y), float(K.values[i, j].real),
                float(K.values[i, j].imag), float(abs(K.values[i, j])))
               for i, x in enumerate(xg) for j, y in enumerate(yg)]
    _write_csv(outdir / "kernel.csv", ["x", "y", "re", "im", "abs"], records)
    return rows


def run_dispersive(cfg, outdir):
    if not 0.0 < cfg["t0"] < np.inf:
        raise ConfigError(f"t0 must be positive and finite, got {cfg['t0']}")
    if cfg["n_t"] < 6:                # the decay fit's least sample count
        raise ConfigError(f"n_t must be at least 6 for the decay fit, got {cfg['n_t']}")
    try:
        check_h(cfg["h"])
    except ValueError as err:
        raise ConfigError(str(err)) from err
    # the slope is a log-log fit over the window from 2h to t0, so its ends
    # must differ by a factor of 2 at least; at t0 = 2h every sample shares
    # one time and the slope read -12
    lo, hi = sorted((cfg["t0"], 2.0 * cfg["h"]))
    if hi < 2.0 * lo:
        raise ConfigError(f"t0 and 2h must differ by a factor of at least 2 for the decay fit, "
                          f"got t0 = {cfg['t0']} and 2h = {2.0 * cfg['h']}")
    q0, _, amp0 = _flat_symbols(cfg)
    ts = np.geomspace(2.0 * cfg["h"], cfg["t0"], cfg["n_t"])
    tab = build_phase(q0, ts, np.linspace(0.0, 2.0 * np.pi, 9)[:, None],
                      np.linspace(0.8, 1.6, 3)[:, None], dt=0.01)
    amp = solve_transport(amp0, tab, N=1)
    fit = dispersive_fit(tab, amp, cfg["h"], ts)
    rows = [_row("dispersive-decay-slope", fit.slope, "-0.5 +/- 0.1",
                 abs(fit.slope + 0.5) <= 0.1),
            _row("dispersive-fit-r2", fit.r2, 0.8, fit.r2 >= 0.8)]
    _write_csv(outdir / "dispersive.csv", ["t", "lam", "sup"],
               [(float(t), float(t / cfg["h"]), float(s))
                for t, s in zip(fit.t_samples, fit.sups)])
    return rows


def run_strichartz(cfg, outdir):
    if not 0.0 < cfg["hmin"] <= cfg["hmax"] < np.inf:
        raise ConfigError(f"hmin and hmax must satisfy 0 < hmin <= hmax < inf, "
                          f"got hmin={cfg['hmin']} and hmax={cfg['hmax']}")
    if cfg["n_t"] < 2:
        raise ConfigError(f"n_t must be at least 2 for the time quadrature, got {cfg['n_t']}")
    if cfg["mode"] == "semiclassical" and not 0.0 < cfg["t0"] < np.inf:
        raise ConfigError(f"t0 must be positive and finite, got {cfg['t0']}")
    lo, hi = cfg["interval_lo"], cfg["interval_hi"]
    if cfg["mode"] == "unscaled" and not -np.inf < lo < hi < np.inf:
        raise ConfigError(f"interval_lo and interval_hi must be finite with interval_lo < "
                          f"interval_hi, got {lo} and {hi}")
    pair = classify_pair(cfg["p"], cfg["q"], 1, cfg["sigma"])
    rows = [_row("pair-admissible", pair.valid, True, pair.valid)]
    if not pair.valid:
        return rows
    sweep = []
    h = cfg["hmax"]
    while h >= cfg["hmin"] * (1.0 - 1e-12):
        sweep.append(h)
        h *= 0.5
    if len(sweep) < 5:
        raise ConfigError("hmin/hmax leave fewer than 5 dyadic sweep points")
    cut = make_bump(cfg["r1"], cfg["r2"], (cfg["p1"], cfg["p2"]))
    if cfg["mode"] == "semiclassical":
        fit = measure_semiclassical_scaling(cfg["sigma"], pair, cut, sweep,
                                            t0=cfg["t0"], n_t=cfg["n_t"])
    elif cfg["mode"] == "unscaled":
        fit = measure_unscaled_scaling(cfg["sigma"], pair, cut, sweep, interval=(lo, hi),
                                       n_t=cfg["n_t"])
    else:
        raise ConfigError(f"mode must be semiclassical or unscaled, got {cfg['mode']!r}")
    rows.append(_row(f"{cfg['mode']}-norm-slope", fit.slope,
                     f">= {-fit.exponent_bound - SLOPE_MARGIN}", fit.passes()))
    grid = make_grid(1, 1024, 2.0 * np.pi)
    h_mid = sweep[len(sweep) // 2]
    v = localized_gaussian(grid, cut, h_mid)
    gap = rescaling_identity_gap(cfg["sigma"], v, h_mid, cfg["p"], cfg["q"])
    rows.append(_row("time-rescaling-gap", gap, 1e-10, gap < 1e-10))
    _write_csv(outdir / "strichartz.csv", ["h", "ratio"],
               [(float(hh), float(r)) for hh, r in zip(fit.h, fit.ratios)])
    return rows


def _nlfs_problem(cfg, wave=False):
    """The suite's problem; a setting the grid or NlfsProblem rejects is a ConfigError."""
    m = _metric_from(cfg)
    try:
        op = (flat_operator(make_grid(1, cfg["n"], m.box_length)) if m.is_flat
              else discretize_P_1d(m, cfg["n"]))
    except ValueError as err:
        raise ConfigError(f"n = {cfg['n']} makes no {cfg['metric']} operator: {err}") from err
    grid = op.grid
    u0 = modulated_gaussian(grid, 0.5 * grid.length, cfg["width"], cfg["omega"])
    u0 = state_from_values(grid, cfg["amp"] * u0.values)
    v1 = state_from_values(grid, cfg["v1_amp"] * u0.values.real.astype(complex)) if wave else None
    try:
        return NlfsProblem(sigma=cfg["sigma"], nu=cfg["nu"], mu=cfg["mu"],
                           u0=u0, T=cfg["T"], dt=cfg["dt"], op=op, v1=v1)
    except ValueError as err:
        raise ConfigError(str(err)) from err


def run_nlfs(cfg, outdir):
    prob = _nlfs_problem(cfg)
    traj = solve_nlfs(prob)
    q0 = conserved(prob, traj.states[0])
    records = []
    mass_drift = energy_drift = 0.0
    for t, s in zip(traj.times, traj.states):
        q = conserved(prob, s)
        mass_drift = max(mass_drift, abs(q.mass - q0.mass) / max(q0.mass, 1e-30))
        energy_drift = max(energy_drift, abs(q.energy - q0.energy) / max(abs(q0.energy), 1e-30))
        records.append((float(t), q.mass, q.energy,
                        float(np.max(np.abs(s.values))),
                        sobolev_norm(s, 0.5 * cfg["sigma"], prob.op)))
    _write_csv(outdir / "monitors.csv", ["t", "mass", "energy", "linf", "h_sigma_half"],
               records)
    return [_row("mass-drift", mass_drift, 1e-10, mass_drift < 1e-10),
            _row("energy-drift", energy_drift, 1e-5, energy_drift < 1e-5)]


def run_nlfw(cfg, outdir):
    prob = _nlfs_problem(cfg, wave=True)
    traj = solve_nlfw(prob)
    q0 = conserved(prob, traj.states[0], traj.velocities[0])
    records = []
    drift = 0.0
    for t, s, w in zip(traj.times, traj.states, traj.velocities):
        q = conserved(prob, s, w)
        drift = max(drift, abs(q.energy - q0.energy) / max(abs(q0.energy), 1e-30))
        records.append((float(t), q.mass, q.energy,
                        float(np.max(np.abs(s.values)))))
    _write_csv(outdir / "monitors.csv", ["t", "mass", "energy", "linf"], records)
    return [_row("wave-energy-drift", drift, 1e-5, drift < 1e-5)]


def run_audit(cfg, outdir):
    m = _metric_from(cfg)
    report = audit_assumptions(m, n_samples=cfg["n_samples"])
    rows = [_row("ellipticity-constant", report.C_ellipticity, 100.0,
                 report.C_ellipticity <= 100.0),
            _row("min-metric-eigenvalue", report.min_eigenvalue, "> 0",
                 report.min_eigenvalue > 0.0)]
    _write_csv(outdir / "audit.csv", ["quantity", "value"],
               [("C_ellipticity", report.C_ellipticity),
                ("min_eigenvalue", report.min_eigenvalue)]
               + [(f"C_alpha_{k}", v) for k, v in sorted(report.C_alpha.items())])
    return rows


RUNNERS = {
    "phase": run_phase,
    "kernel": run_kernel,
    "dispersive": run_dispersive,
    "strichartz": run_strichartz,
    "nlfs": run_nlfs,
    "nlfw": run_nlfw,
    "audit": run_audit,
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="fracwkb",
        description="desk-scale dispersive-estimate experiment suites")
    sub = parser.add_subparsers(dest="suite", required=True)
    for suite, schema in SCHEMAS.items():
        sp = sub.add_parser(suite)
        sp.add_argument("--config", default=None, help="key=value file")
        merged = dict(schema)
        merged.update(COMMON_KEYS)
        for key, (caster, default, help_text) in merged.items():
            if isinstance(default, tuple):
                default = f"{default[0]} at sigma < 1, {default[1]} at sigma >= 1"
            sp.add_argument(f"--{key}", type=str, default=None,
                            help=f"{help_text} (default {default})".strip())
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    suite = args.suite
    flag_cfg = {key: value for key, value in vars(args).items()
                if key not in ("suite", "config") and value is not None}
    try:
        file_cfg = _parse_config_file(args.config) if args.config else {}
        cfg = _resolve(suite, file_cfg, flag_cfg)
        outdir = Path(cfg["out"]) / suite
        outdir.mkdir(parents=True, exist_ok=True)
        rows = RUNNERS[suite](cfg, outdir)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as err:
        print(f"{suite} failed: {err}", file=sys.stderr)
        return 1
    ok = _write_report(outdir, rows)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
