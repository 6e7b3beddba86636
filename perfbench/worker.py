"""One round of a workload in a fresh process; started by run.py.

The round sets up (interpreter start, imports, input generation), runs the
workload's CLI commands in-process through `spingarch.cli.main`, optionally
checks their outputs and traces the layers, and prints one JSON report.  It
inherits run.py's environment, which pins the BLAS/OpenMP pools to one thread.


    python3 perfbench/worker.py --workload NAME --seed N --workdir DIR \\
        --t0 MONOTONIC_START --check 0|1 --trace 0|1 [--spans FILE]
"""

import argparse
import hashlib
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def digest(paths) -> str:
    """SHA-256 over the names and bytes of the given files and directory trees."""
    h = hashlib.sha256()
    for path in paths:
        files = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
        for f in files:
            h.update(f.name.encode() + b"\0")
            h.update(f.read_bytes() if f.exists() else b"<missing>")
    return h.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--check", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    import spingarch
    import spingarch.cli as cli

    if not Path(spingarch.__file__).resolve().is_relative_to(SRC):
        print(f"spingarch was imported from {spingarch.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    shutil.rmtree(args.workdir, ignore_errors=True)
    args.workdir.mkdir(parents=True)
    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    setup_s = time.monotonic() - args.t0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    ops = []
    op_s = 0.0
    for op in workload.ops:
        start = time.perf_counter()
        try:
            rc = cli.main(op.argv)
        except Exception:  # a crash is a failed operation, not a failed benchmark
            rc, crash = None, traceback.format_exc(limit=3)
        else:
            crash = None
        op_s += time.perf_counter() - start
        ops.append({"name": op.name, "rc": rc, "problems": [crash] if crash else []})
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for op, result in zip(workload.ops, ops):
        result["digest"] = digest(op.outputs)
        if args.check and result["rc"] == 0:
            try:
                result["problems"] += workload.checks[op.name]()
            except Exception:  # unreadable output
                result["problems"].append(traceback.format_exc(limit=3))

    report = {"setup_s": setup_s, "op_s": op_s, "rss_mb": rss_mb, "ops": ops}
    if tracer is not None:
        report["layers"] = tracer.layer_metrics(op_s)
        report["absent"] = tracer.absent
        if args.spans is not None:
            tracer.write(args.spans)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
