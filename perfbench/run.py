"""Benchmark of lswkit's scenario runner: end-to-end times and accuracy, or a
per-layer trace.

    python3 perfbench/run.py --workload coarsen-exponential --seed 1 --seconds 35 --trace 0

Runs whole rounds of the workload's scenarios through ``lswkit.cli.run_config``
in this one process until ``--seconds`` have passed, checks every round's
outputs, and prints one JSON object as its last line of standard output.
Round and set-up times are scaled to a reference host speed by a
calibration kernel timed between rounds (see ``calibrate``).
With ``--trace 0`` the metrics are end to end; with ``--trace 1`` the
rounds alternate untraced and traced, and the metrics are per layer.
Needs no install: lswkit is imported from ``src`` next to this directory.
Outputs go to ``.perfbench_out/<workload>`` at the repository root.
"""
from __future__ import annotations

import os

# one thread per BLAS/OpenMP pool, set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import configparser
import contextlib
import io
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 3
# seconds the calibration kernel takes on the reference host; this host
# took 0.22-0.26 s, varying with the load of other tenants
CAL_REF_S = 0.25

# set-up in a fresh interpreter: import lswkit and its CLI, build the initial
# profiles, print the monotonic clock (system-wide on Linux) at the end
SETUP_CHILD = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
import lswkit, lswkit.cli
for name, params in json.loads(sys.argv[2]):
    lswkit.make_family(name, **params)
print(time.perf_counter())
"""


def measure_setup(initial) -> float:
    """Median seconds from starting a process until its set-up is done."""
    samples = []
    spec = json.dumps([[name, params] for name, params in initial])
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", SETUP_CHILD, str(SRC), spec],
                              capture_output=True, text=True, check=True, timeout=120)
        samples.append(float(done.stdout.split()[-1]) - start)
    return statistics.median(samples)


def calibrate() -> float:
    """Seconds for a fixed kernel of small numpy operations that uses no lswkit.

    On a shared host the speed a process gets drifts by tens of percent over
    minutes.  The kernel runs between rounds, and the ratio of the median
    round to the median kernel time cancels most of that drift, while a
    change to lswkit moves only the rounds.
    """
    # the array lengths span those of the workloads, from per-call overhead
    # to per-element work
    xs = [np.linspace(1e-3, 1.0, n) for n in (2048, 512, 64)]
    ws = [np.exp(-x) for x in xs]
    start = time.perf_counter()
    acc = 0.0
    for i in range(2200):
        for x, w in zip(xs, ws):
            u = np.cbrt(x / (1.0 + 1e-4 * i))
            f = -0.5 * u * u - u - np.log1p(-0.999 * u)
            d = np.cumsum(np.diff(f) * w[:-1])
            acc += float(np.interp(0.5, x[1:], d)) + float(np.searchsorted(x, 0.3))
    elapsed = time.perf_counter() - start
    if not np.isfinite(acc):
        raise RuntimeError("calibration kernel produced a non-finite sum")
    return elapsed


def write_configs(sections: dict, where: Path) -> dict:
    where.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, opts in sections.items():
        cfg = configparser.ConfigParser()
        cfg[name] = opts
        paths[name] = where / f"{name}.ini"
        with paths[name].open("w") as f:
            cfg.write(f)
    return paths


def run_round(cli, configs: dict, out_root: Path) -> tuple:
    """Run every scenario once; returns (seconds, failed scenarios)."""
    elapsed, failed = 0.0, 0
    for name, path in configs.items():
        printed = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(printed):
                status = cli.run_config(str(path), str(out_root))
        except Exception:
            status = traceback.format_exc()
        elapsed += time.perf_counter() - start
        if status != 0:
            failed += 1
            print(f"{name}: scenario failed ({status})\n{printed.getvalue()}", file=sys.stderr)
    return elapsed, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "lswkit" / "__init__.py").is_file():
        print(f"error: lswkit sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    sections = wl.sections(random.Random(args.seed))
    base = OUT / wl.name
    configs = write_configs(sections, base / "configs")
    out_root = base / "out"

    setup_s = measure_setup(wl.initial) if not args.trace else None

    from lswkit import cli
    from tracer import Tracer

    tracer = Tracer()
    walls = {False: [], True: []}
    calibration = []
    failed = rounds = 0
    problems: list = []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and rounds % 2 == 1
        # a scenario that fails must not leave an earlier round's files to check
        shutil.rmtree(out_root, ignore_errors=True)
        if not args.trace:
            calibration.append(calibrate())
        with tracer if traced else contextlib.nullcontext():
            wall, bad = run_round(cli, configs, out_root)
        walls[traced].append(wall)
        failed += bad
        rounds += 1
        try:
            found = wl.check(out_root, sections)
        except Exception:
            found = [f"check error: {traceback.format_exc()}"]
        for p in found:
            if p not in problems:
                problems.append(p)
                print(f"check failed: {p}", file=sys.stderr)
        # trace runs end after a traced round, so the two kinds pair up
        if time.perf_counter() - start >= args.seconds and (not args.trace or traced):
            break

    if args.trace:
        tracer.save(base / "spans.npz")
        layer = tracer.metrics(len(walls[True]))
        layer["trace.overhead_s"] = statistics.median(walls[True]) - statistics.median(walls[False])
        if tracer.missing:
            print(f"missing probes: {', '.join(sorted(tracer.missing))}", file=sys.stderr)
        metrics = {k: {"value": v, "unit": _layer_unit(k)} for k, v in layer.items()}
    else:
        calibration.append(calibrate())
        speed = CAL_REF_S / statistics.median(calibration)
        drift, identity = wl.accuracy(out_root, sections)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": {"value": setup_s * speed, "unit": "s"},
            "wall_s": {"value": statistics.median(walls[False]) * speed, "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
            "mass_drift": {"value": drift, "unit": "relative"},
            "identity_err": {"value": identity, "unit": "relative"},
        }
    print(json.dumps({"correct": not problems, "attempted": rounds * len(configs),
                      "failed": failed, "metrics": metrics}))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_per_call"):
        return "count/call"
    if name.endswith("_per_step"):
        return "count/step"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
