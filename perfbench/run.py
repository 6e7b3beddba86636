"""Benchmark command: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The run repeats whole rounds until S
seconds have passed.  Each round is a fresh single-threaded process
(worker.py) that sets up the workload's inputs from the seed and runs its
CLI commands in-process; one round runs at a time.  The first round's
outputs are checked against the reference checkers; every later round must
reproduce them byte for byte.

With --trace 0 the result holds the end-to-end metrics, the medians over
rounds of: op_s, the wall time of the round's commands; setup_s, the time
from process start to ready; and peak_rss_mb, the process's peak resident
memory.  With --trace 1 every round is traced and the result holds the
per-layer metrics of tracer.py, again as medians over rounds.  Times are
scaled to the reference host speed measured by calibrate().

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  Work files go to
.perfbench_out/ at the checkout root.
"""

from __future__ import annotations

import os

# One thread per process, for this process's calibration loop and for the
# workers, which inherit the environment: the pools read these when numpy
# loads its BLAS.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("linear-analysis", "simulate-refit", "neural")
END_TO_END = {"op_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# a run must end within 180 s; no round may start a wait longer than this
DEADLINE_S = 170.0
# times are reported at the host speed at which calibrate() takes this long;
# on the reference host (2 cores, Python 3.11.7, numpy 2.4.6) it took 0.082 s
# in the host's fast state and 0.10-0.23 s in its slow one
CALIBRATION_REF_S = 0.1


class BenchmarkError(Exception):
    """The benchmark itself could not run; no result is printed."""


def calibrate() -> float:
    """Seconds taken by a fixed mix of scalar Python math, small numpy calls
    and vector numpy work: the host's speed now.  It runs in this process,
    which never imports the program, between rounds."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(120000):
        eta = (i % 97) / 10.0 - 4.0
        acc += eta + math.log1p(math.exp(-eta)) if eta > 0 else math.log1p(math.exp(eta))
    small = np.arange(3.0)
    for _ in range(12000):
        acc += float(np.asarray(small, dtype=float) @ np.exp(-small))
    big = np.linspace(-5.0, 5.0, 20000)
    for _ in range(200):
        acc += float(np.logaddexp(0.0, big).sum())
    return time.perf_counter() - start


def run_round(args, workdir: Path, check: bool, spans: Path | None, remaining: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--workdir", str(workdir), "--check", str(int(check)), "--trace", str(args.trace)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=ROOT, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"round did not finish within {remaining:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 < args.seconds <= 120:
        parser.error("--seconds must lie in (0, 120]")
    if not (ROOT / "src" / "spingarch" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'spingarch'}", file=sys.stderr)
        return 2

    run_dir = OUT / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    started = time.monotonic()
    rounds = []
    calibration = []
    try:
        while not rounds or time.monotonic() - started < args.seconds:
            first = not rounds
            spans = run_dir / "spans.npz" if first and args.trace else None
            calibration.append(calibrate())
            remaining = DEADLINE_S - (time.monotonic() - started)
            rounds.append(run_round(args, run_dir / "work", first, spans, remaining))
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    calibration.append(calibrate())

    (run_dir / "rounds.json").write_text(json.dumps({"calibration_s": calibration, "rounds": rounds}, indent=1))
    reference = {op["name"]: op for op in rounds[0]["ops"]}
    attempted = failed = 0
    correct = True
    for k, rnd in enumerate(rounds, start=1):
        for op in rnd["ops"]:
            attempted += 1
            problems = list(op["problems"])
            if k > 1 and op["digest"] != reference[op["name"]]["digest"]:
                problems.append("output differs from round 1")
            if op["rc"] != 0 or problems:
                failed += 1
                correct = correct and not problems
                print(f"round {k} {op['name']}: exit {op['rc']}; " + "; ".join(problems), file=sys.stderr)

    # The host's speed changes by up to 2x over minutes.  A fixed calibration
    # loop timed before every round and after the last tracks these changes,
    # so times are scaled to the speed at which the loop takes CALIBRATION_REF_S.
    scale = CALIBRATION_REF_S / statistics.median(calibration)
    print(f"calibration {statistics.median(calibration):.4f} s, scale {scale:.4f}; unscaled medians: "
          f"op {statistics.median(r['op_s'] for r in rounds):.4f} s, "
          f"setup {statistics.median(r['setup_s'] for r in rounds):.4f} s")
    if args.trace:
        from tracer import METRICS as units

        values = {name: statistics.median(r["layers"][name] for r in rounds) * (scale if unit in ("s", "ns") else 1)
                  for name, unit in units.items()}
        if rounds[0]["absent"]:
            print("absent layers: " + ", ".join(rounds[0]["absent"]))
    else:
        units = END_TO_END
        values = {
            "op_s": statistics.median(r["op_s"] for r in rounds) * scale,
            "setup_s": statistics.median(r["setup_s"] for r in rounds) * scale,
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in rounds),
        }
    for name, value in values.items():
        print(f"{name:28s} {value:14.6g} {units[name]}")
    print(f"{args.workload} seed {args.seed}: {len(rounds)} rounds, {attempted} operations, {failed} failed")
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
