"""Run one fracwkb benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload flat-parametrix --seed 1 --seconds 24 --trace 0

Run from the root of a checkout. The workload runs in a fresh child process
(benchmarks/worker.py) that imports fracwkb from src/ and may use at most
--threads threads, BLAS included (default: the CPUs this process may use).
With --trace 0 four more children only set the workload up, and `setup_s`
is the median of the five set-up times. Times are calibrated to the
reference machine's speed (see `calibrated`). The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics:
the end-to-end metrics of BENCHMARK.json with --trace 0, its per-layer
metrics with --trace 1. Every detail of the run (round times, every
checked value next to its threshold, versions, git sha, thread counts) is
written to bench_results/<workload>-seed<seed>-trace<trace>-threads<threads>.json.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SETUP_PROBES = 4
# Time of worker.calibrate() on the reference machine (2 vCPUs, 2 BLAS
# threads) at a typical moment; wall_s is reported at this machine speed.
CALIBRATION_REFERENCE_S = 0.07
DEADLINE_S = 170.0
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result."""


def _spec(root):
    return json.loads((root / "BENCHMARK.json").read_text())


def _child_env(root, threads):
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARIABLES:
        env[var] = str(threads)
    return env


def _run_child(root, env, deadline, args, setup_only=False):
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchmarkError("no time left for another child process")
    cmd += ["--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as err:
        raise BenchmarkError(f"child process exceeded {timeout:.0f} s") from err
    if proc.returncode != 0:
        raise BenchmarkError(f"child process exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchmarkError("child process printed no result")
    return json.loads(lines[-1])


def _git_sha(root):
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _source_digest(root):
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "fracwkb").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def is_count(name):
    """Counts and ratios repeat exactly between rounds; times do not."""
    return not (name.endswith("_s") or name.endswith(".s"))


def median_metrics(rounds):
    """Median of each time over rounds; counts are taken from the first round."""
    return {k: rounds[0][k] if is_count(k) else statistics.median(r[k] for r in rounds)
            for k in rounds[0]}


def _counts_repeat(layer_rounds):
    first = layer_rounds[0]
    return all(r[k] == first[k] for r in layer_rounds for k in first if is_count(k))


def calibrated(seconds, calibration_s):
    """A time scaled to the reference machine speed.

    The reference machine's speed drifts by up to half with its neighbours'
    load, from one minute to the next and within a run. Dividing a time by
    the calibration times measured next to it, in the same process, takes
    that drift out; CALIBRATION_REFERENCE_S turns the ratio back into seconds.
    """
    return CALIBRATION_REFERENCE_S * seconds / statistics.median(calibration_s)


def summarize(spec, child, setups, trace):
    """The contract's metrics, from the main child's rounds and the set-up children.

    `setups` holds (setup_s, calibration_s) of every child."""
    rounds = child["rounds"]
    if trace:
        # times of a traced round are calibrated like its wall time
        traced = [{k: v if is_count(k) else calibrated(v, r["calibration_s"])
                   for k, v in r["layers"].items()} for r in rounds if r["traced"]]
        values = median_metrics(traced)
        untraced = [calibrated(r["wall_s"], r["calibration_s"]) for r in rounds if not r["traced"]]
        traced_wall = statistics.median(calibrated(r["wall_s"], r["calibration_s"])
                                        for r in rounds if r["traced"])
        values["trace.wall_s"] = traced_wall
        values["trace.overhead_s"] = traced_wall - statistics.median(untraced[1:])
        wanted = spec["per_layer"]
    else:
        values = {"wall_s": statistics.median(calibrated(r["wall_s"], r["calibration_s"])
                                              for r in rounds),
                  "setup_s": statistics.median(calibrated(*s) for s in setups),
                  "peak_rss_mb": child["peak_rss_mb"]}
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchmarkError(f"metrics not measured: {', '.join(missing)}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}


def _print_report(args, rounds, metrics, attempted, failed):
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"threads {args.threads}  rounds {len(rounds)}")
    for name, m in metrics.items():
        print(f"  {name:42s} {m['value']:.6g} {m['unit']}")
    print("checks (first round):")
    first = rounds[0]
    for op, rows in first["checks"].items():
        for row in rows:
            status = "PASS" if row["ok"] else "FAIL"
            if not row["gates"]:
                status = "NOTE " + ("pass" if row["ok"] else "miss")
            print(f"  {status} {op}: {row['claim']} = {row['value']:.6g} "
                  f"(threshold {row['threshold']})")
    for op, err in first["errors"].items():
        print(f"  FAIL {op}: {err}")
    print(f"operations attempted {attempted}, failed {failed}")


def main(argv=None):
    root = Path.cwd()
    if not (root / "src" / "fracwkb" / "__init__.py").is_file():
        print("run.py must be started from the root of a fracwkb checkout "
              "(src/fracwkb not found)", file=sys.stderr)
        return 2
    spec = _spec(root)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--threads", type=int, default=len(os.sched_getaffinity(0)),
                        help="thread limit for the child, BLAS included")
    args = parser.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    env = _child_env(root, args.threads)
    try:
        children = [] if args.trace else [
            _run_child(root, env, deadline, args, setup_only=True)
            for _ in range(SETUP_PROBES)]
        child = _run_child(root, env, deadline, args)
        children.append(child)
        setups = [(c["setup_s"], c["calibration_s"]) for c in children]
        metrics = summarize(spec, child, setups, args.trace)
    except BenchmarkError as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1

    rounds = child["rounds"]
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(len(r["failed"]) for r in rounds)
    # correct speaks of the operations that returned: none may fail a check
    correct = all(row["ok"] for r in rounds for rows in r["checks"].values() for row in rows
                  if row["gates"])
    counts_repeat = _counts_repeat([r["layers"] for r in rounds if r["traced"]]) if args.trace else None

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "threads": args.threads, "blas_threads": child["blas_threads"],
        "nproc": len(os.sched_getaffinity(0)), "git_sha": _git_sha(root),
        "src_sha256": _source_digest(root), "versions": child["versions"],
        "started": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "setups": [{"setup_s": t, "calibration_s": c} for t, c in setups],
        "peak_rss_mb": child["peak_rss_mb"],
        "uncalibrated_wall_s": statistics.median(r["wall_s"] for r in rounds if not r["traced"]),
        "uncalibrated_setup_s": statistics.median(t for t, _ in setups),
        "counts_repeat_between_rounds": counts_repeat,
        "metrics": metrics, "attempted": attempted, "failed": failed, "correct": correct,
        "rounds": rounds,
    }
    out_dir = root / "bench_results"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}-threads{args.threads}.json"
    out_file.write_text(json.dumps(record, indent=1) + "\n")

    _print_report(args, rounds, metrics, attempted, failed)
    if counts_repeat is False:
        print("warning: per-layer counts differ between traced rounds")
    print(f"uncalibrated medians: round {record['uncalibrated_wall_s']:.4f} s, "
          f"set-up {record['uncalibrated_setup_s']:.4f} s")
    print(f"details: {out_file.relative_to(root)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
