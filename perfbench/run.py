"""pcreg benchmark: end-to-end and per-layer timings on four seeded workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cli-fixture --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics of BENCHMARK.json:

1. set-up: fresh interpreters timed from spawn until ``import pcreg.cli``
   returns (median);
2. cold calls: whole ``pcreg`` subprocesses on the workload's inputs;
3. warm calls: in-process operations, ``pcreg.cli.main(argv)`` or, for
   fits-batch, one library fit, closed loop with one client.

The three kinds of samples are interleaved over the run, in turns of a few
seconds; see harness.measure.

``--trace 1`` measures the per-layer metrics instead: it alternates
untraced and traced warm operations over whole cycles of the workload's
inputs and reports each layer's self time and call count per operation,
plus the tracing overhead (traced minus untraced median call time).

Every operation's output is checked (see ``oracle.py``), and repeated
operations on one input must print byte-identical output.  The last line
of standard output is the JSON result; the line before it is a record of
the environment, seeds and sample counts.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

BLAS_THREADS = 1
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unavailable (not a git checkout)"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unavailable"
    return done.stdout.strip()


def environment(np, seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    try:
        scipy = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy = "not installed"
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy,
        "blas": blas,
        "nproc": os.cpu_count(),
        "blas_threads": {var: os.environ[var] for var in BLAS_VARIABLES},
        "seed": seed,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    start = time.perf_counter()
    spec_path = ROOT / "BENCHMARK.json"
    package = SRC / "pcreg" / "__init__.py"
    if not package.is_file() or not spec_path.is_file():
        print(f"perfbench: error: {package} or {spec_path} missing; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    workload_names = [w["name"] for w in spec["workloads"]]
    if args.workload not in workload_names:
        print(f"perfbench: error: unknown workload {args.workload!r}; choose from {workload_names}",
              file=sys.stderr)
        return 2

    # The thread setting must be in place before numpy loads its BLAS.
    for var in BLAS_VARIABLES:
        os.environ[var] = str(min(BLAS_THREADS, os.cpu_count() or 1))
    sys.path.insert(0, str(SRC))
    import numpy as np
    import pcreg

    if Path(pcreg.__file__).resolve().parent != package.parent.resolve():
        print(f"perfbench: error: imported pcreg from {pcreg.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import harness
    import workloads
    env = dict(os.environ, PYTHONPATH=str(SRC))

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        fixture = package.parent / "data" / "electricity_synthetic.csv"
        workload = workloads.build(args.workload, args.seed, fixture, workdir)
        runner = harness.Runner(workload, env, stop=start + harness.HARD_STOP_S)
        if args.trace:
            metrics, samples = harness.measure_traced(runner, args.seconds, time.perf_counter())
            wanted = spec["per_layer"]
        else:
            metrics, samples = harness.measure(runner, args.seconds, time.perf_counter())
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"perfbench: error: metrics {missing} were not measured", file=sys.stderr)
        return 1
    result_metrics = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted}

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for name, entry in result_metrics.items():
        count = f"samples: {json.dumps(samples[name])}" if name in samples else ""
        print(f"  {name:40s} {entry['value']:>14.6g} {entry['unit']:8s} {count}")
    failed_ratio = runner.failed / max(runner.attempted, 1)
    print(f"  {'failed_ratio':40s} {failed_ratio:>14.6g} ({runner.failed} of {runner.attempted})")
    for problem in runner.problems:
        print(f"  problem: {problem}")
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(np, args.seed),
        "samples": samples,
        "failed_ratio": failed_ratio,
        "problems": runner.problems,
    }
    if args.workload == "simulate-mc" and not args.trace:
        record["replicates_per_s"] = metrics["fits_per_s"]
    print("record " + json.dumps(record, sort_keys=True))
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": result_metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
