"""One benchmark child process: set a workload up, then run whole rounds of it.

Started by run.py with PYTHONPATH pointing at the checkout's src/ and the
BLAS thread count fixed in the environment. `--spawned-at` is the parent's
time.monotonic() just before the process was started (CLOCK_MONOTONIC is
system-wide on Linux), so `setup_s` covers interpreter start, the imports and
building the inputs. Prints one JSON object on its last line.
"""

import argparse
import gc
import json
import os
import resource
import sys
import time

import numpy as np

CALIBRATION_REPEATS = 3


def calibrate():
    """Time a fixed numpy loop that mixes the kinds of work the workloads do.

    Small-batch 2x2 einsums and elementwise maps (the characteristic solves),
    a 400 x 400 matrix-vector product (the dense eigenbasis transforms) and
    4096-point FFTs, on inputs that never change and with a working set of
    about 1.5 MB, so it leaves peak RSS alone. Its time tracks how fast the
    machine runs at the moment, not how fast fracwkb is.
    """
    rng = np.random.default_rng(0)
    blocks = rng.standard_normal((549, 2, 2))
    matrix = rng.standard_normal((400, 400))
    vector = rng.standard_normal(400)
    signal = rng.standard_normal(4096) + 0j
    start = time.perf_counter()
    for _ in range(300):
        np.einsum("nij,njk->nik", blocks, blocks)
        np.exp(-blocks[:, 0, 0] ** 2) * blocks[:, 1, 1]
    for _ in range(200):
        vector = matrix @ vector
        vector /= np.abs(vector).max()
    for _ in range(100):
        signal = np.fft.ifft(np.fft.fft(signal) * 0.5)
    return time.perf_counter() - start


def run_round(workload, seed, tracer=None):
    """Run every operation once (timed), then check every output (untimed)."""
    ops = workload.operations()
    outputs, errors, op_s = {}, {}, {}
    if tracer is not None:
        tracer.reset()
        tracer.install()
    try:
        start = time.perf_counter()
        for name, op in ops:
            t0 = time.perf_counter()
            try:
                outputs[name] = op(outputs)
            except Exception as err:  # an operation that raises is counted as failed
                errors[name] = f"{type(err).__name__}: {err}"
            op_s[name] = time.perf_counter() - t0
        wall = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    layers = tracer.layer_metrics() if tracer is not None else None

    rng = np.random.default_rng(seed)
    checks = {}
    for name, _ in ops:
        if name in errors:
            continue
        try:
            checks[name] = workload.check(name, outputs[name], rng, outputs)
        except Exception as err:  # a check that cannot be made fails its operation
            errors[name] = f"check raised {type(err).__name__}: {err}"
    failed = [name for name, _ in ops
              if name in errors or not all(row["ok"] for row in checks.get(name, [])
                                           if row["gates"])]
    return {"traced": tracer is not None, "wall_s": wall, "op_s": op_s,
            "attempted": len(ops), "failed": failed, "errors": errors,
            "checks": checks, "layers": layers}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    setup_s = time.monotonic() - args.spawned_at
    setup_calibration = [calibrate() for _ in range(CALIBRATION_REPEATS)]
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "calibration_s": setup_calibration}))
        return 0

    import scipy

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()

    # Whole rounds until the time is up. A traced run alternates untraced and
    # traced rounds (untraced first), so it measures its own overhead in the
    # same process; it makes at least three, so that an untraced round other
    # than the first (which pays first-call costs) is there to compare with.
    # The calibration loop runs three times after set-up and after every
    # round; each round keeps the six times around it, which measure the
    # machine's speed while it ran.
    rounds = []
    peak_rss_mb = None
    before = setup_calibration
    min_rounds = 3 if args.trace else 1
    start = time.monotonic()
    while len(rounds) < min_rounds or time.monotonic() - start < args.seconds:
        traced = args.trace == 1 and len(rounds) % 2 == 1
        result = run_round(workload, args.seed, tracer if traced else None)
        gc.collect()  # free this round's cycles before the next round
        if peak_rss_mb is None:
            # The peak of one round, checks included: a user run is one round.
            # Later rounds allocate into a heap the earlier ones fragmented,
            # which raised the peak of spectral-evolution by 9 to 17 MB at random.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        after = [calibrate() for _ in range(CALIBRATION_REPEATS)]
        result["calibration_s"] = before + after
        rounds.append(result)
        before = after

    report = {
        "setup_s": setup_s,
        "calibration_s": setup_calibration,
        "peak_rss_mb": peak_rss_mb,
        "rounds": rounds,
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                     "scipy": scipy.__version__},
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
