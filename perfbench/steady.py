"""Steadiness check: interleaved sets of benchmark runs against the bounds.

    python3 perfbench/steady.py [--first-seed 1]

Makes ten runs of every workload in BENCHMARK.json in each of two sets,
interleaved: the i-th run of both sets and every workload comes before any
(i+1)-th run, so drift on the host lands on both sets alike.  Each run gets
its own seed, from --first-seed on.  For every workload and end-to-end metric
it prints each set's median and quartiles (as `statistics.quantiles(values,
n=4)` gives them), the spread (q3 - q1) / median, and set 2's median change
against set 1, next to the metric's bound in BENCHMARK.json.  The sets agree
when every spread and the size of every change, up or down, stay within the
bound, and both sets fail the same share of operations.  It exits 0 only
then.  The raw values go to .perfbench_out/steady.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = 2
RUNS = 10


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    results = {w: [[] for _ in range(SETS)] for w in workloads}
    for i in range(RUNS):
        for s in range(SETS):
            for w in workloads:
                seed = args.first_seed + s * RUNS + i
                result = one_run(w, seed, spec["run_seconds"])
                results[w][s].append({"seed": seed, **result})
                values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
                print(f"run {i + 1}/{RUNS} set {s + 1} {w} seed {seed}: {values}", file=sys.stderr)

    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    (out / "steady.json").write_text(json.dumps(results, indent=1))

    steady = True
    for w in workloads:
        print(f"\n{w}")
        shares = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs) for runs in results[w]]
        if len(set(shares)) > 1 or not all(r["correct"] for runs in results[w] for r in runs):
            steady = False
        print(f"  failed share per set: {shares}")
        for metric, bound in bounds.items():
            medians = []
            for s, runs in enumerate(results[w]):
                values = [r["metrics"][metric]["value"] for r in runs]
                q1, med, q3 = statistics.quantiles(values, n=4)
                medians.append(med)
                spread = (q3 - q1) / med
                change = (med - medians[0]) / medians[0]
                spread_ok = spread <= bound
                change_ok = abs(change) <= bound
                steady = steady and spread_ok and change_ok
                print(f"  {metric:12s} set {s + 1}: median {med:.5g}  q1 {q1:.5g}  q3 {q3:.5g}  "
                      f"spread {spread:.3f}  change {change:+.3f}  bound {bound}"
                      + ("" if spread_ok and change_ok else "  OVER"))
    print("\nsteady" if steady else "\nNOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
