#!/usr/bin/env python3
"""Print a sha256 of every output of every perfbench case, or diff two checkouts.

Usage::

    python3 tools/output_digest.py CHECKOUT > digests.txt
    python3 tools/output_digest.py CHECKOUT OTHER

``CHECKOUT`` is the root of a pcreg source tree (it must hold ``src/pcreg``
and ``perfbench/workloads.py``).  The script generates the inputs of the
four perfbench workloads at the baseline seed 1 and the holdout seed 9173,
runs each case once in process exactly as the benchmark does (``cli.main``
for the CLI workloads; ``Dataset`` + ``standardize`` + ``compare_payload``
+ ``render_json`` for fits-batch) and prints one line per output:

    <workload> seed=<seed> <case> exit=<code> sha256=<digest of stdout>

The generated input directory is replaced by ``<workdir>`` in the output
before hashing, since the JSON echoes the input path.  Running the script
on two checkouts and diffing the listings shows whether a change kept
every output byte-identical.  The digests depend on the numpy/BLAS build,
so compare two checkouts on the same machine rather than against a stored
listing.  BLAS runs single-threaded, as in the benchmark.

Given two checkouts, the script runs each in its own fresh interpreter and
prints every output whose digest differs, with the JSON paths that changed
in it (list indices written ``[*]``) and the largest relative change
``|a - b| / max(|a|, |b|)`` per path; a change that is not between two
numbers (a flag, a string, a null, a missing key) reads ``non-numeric``.
A summary follows: how many outputs are byte-identical, how many exit
codes changed, and per path the number of outputs it changed in and its
largest relative change.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import multiprocessing
import os
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

SEEDS = (1, 9173)
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
NON_NUMERIC = float("inf")
MISSING = object()


def run_case(cli, model, workload, case) -> tuple[int, str]:
    """One operation as the benchmark's warm call performs it: (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        if workload.library:
            design = workload.designs[case.design]
            data = model.Dataset(y=design.y, x=design.x, names=design.names,
                                 intercept_included=design.intercept)
            data, record = cli.standardize(data, case.mode)
            return 0, cli.render_json(cli.compare_payload(data, case.d, record))
        code = cli.main(list(case.argv))
    return code, out.getvalue()


def outputs(root: Path) -> list[tuple[str, int, str]]:
    """Every case of the checkout at ``root``: (label, exit code, stdout)."""
    # The thread setting must be in place before numpy loads its BLAS.
    for var in BLAS_VARIABLES:
        os.environ[var] = "1"
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import pcreg.cli as cli
    import pcreg.model as model
    import workloads

    package = root / "src" / "pcreg"
    if Path(cli.__file__).resolve().parent != package:
        raise RuntimeError(f"imported pcreg from {cli.__file__}, not {package}")
    fixture = package / "data" / "electricity_synthetic.csv"
    results = []
    for name in workloads.NAMES:
        for seed in SEEDS:
            with tempfile.TemporaryDirectory(prefix="pcreg-digest-") as tmp:
                workload = workloads.build(name, seed, fixture, Path(tmp))
                for case in workload.cases:
                    code, text = run_case(cli, model, workload, case)
                    results.append((f"{name} seed={seed} {case.key}", code,
                                    text.replace(tmp, "<workdir>")))
    return results


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def changed_paths(a, b, path: str = "") -> dict[str, float]:
    """Largest relative change per JSON path between two parsed documents."""
    if isinstance(a, dict) and isinstance(b, dict):
        pairs = [(f"{path}.{key}" if path else key, a.get(key, MISSING), b.get(key, MISSING))
                 for key in sorted(set(a) | set(b))]
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        pairs = [(f"{path}[*]", x, y) for x, y in zip(a, b)]
    elif a == b and type(a) is type(b):
        return {}
    elif all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b)):
        return {path: abs(a - b) / max(abs(a), abs(b))}
    else:
        return {path: NON_NUMERIC}
    out: dict[str, float] = {}
    for where, x, y in pairs:
        for sub, change in changed_paths(x, y, where).items():
            out[sub] = max(out.get(sub, 0.0), change)
    return out


def text_changes(old: str, new: str) -> dict[str, float]:
    """Changed JSON paths, or one ``<text>`` entry for an output that is not JSON."""
    try:
        return changed_paths(json.loads(old), json.loads(new))
    except json.JSONDecodeError:
        return {"<text>": NON_NUMERIC}


def _fmt(change: float) -> str:
    return "non-numeric" if change == NON_NUMERIC else f"{change:.3e}"


def compare(roots: list[Path]) -> int:
    """Run both checkouts, each in a fresh interpreter, and print the field diff."""
    runs = []
    spawn = multiprocessing.get_context("spawn")
    for root in roots:
        with ProcessPoolExecutor(max_workers=1, mp_context=spawn) as pool:
            runs.append(pool.submit(outputs, root).result())
    old, new = runs
    if [label for label, _, _ in old] != [label for label, _, _ in new]:
        print("output_digest: error: the two checkouts run different cases", file=sys.stderr)
        return 2
    identical = exits_changed = 0
    totals: dict[str, tuple[int, float]] = {}
    for (label, code_a, text_a), (_, code_b, text_b) in zip(old, new):
        if code_a != code_b:
            exits_changed += 1
        if text_a == text_b and code_a == code_b:
            identical += 1
            continue
        print(f"{label} exit={code_a}->{code_b} "
              f"sha256={sha256(text_a)[:12]}->{sha256(text_b)[:12]}")
        for path, change in sorted(text_changes(text_a, text_b).items()):
            print(f"  {path}  {_fmt(change)}")
            count, worst = totals.get(path, (0, 0.0))
            totals[path] = (count + 1, max(worst, change))
    print(f"summary: {identical} of {len(old)} outputs byte-identical, "
          f"{exits_changed} exit code(s) changed")
    for path, (count, worst) in sorted(totals.items()):
        print(f"  {path}  changed in {count} output(s), largest relative change {_fmt(worst)}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout", type=Path, help="root of the source tree to digest")
    parser.add_argument("other", type=Path, nargs="?",
                        help="second source tree: print the outputs that differ, by field")
    args = parser.parse_args(argv)
    roots = [path.resolve() for path in (args.checkout, args.other) if path is not None]
    for root in roots:
        if not (root / "src" / "pcreg" / "__init__.py").is_file() \
                or not (root / "perfbench" / "workloads.py").is_file():
            print(f"output_digest: error: {root} has no src/pcreg or perfbench/workloads.py",
                  file=sys.stderr)
            return 2
    if len(roots) == 2:
        return compare(roots)
    try:
        results = outputs(roots[0])
    except RuntimeError as exc:
        print(f"output_digest: error: {exc}", file=sys.stderr)
        return 2
    for label, code, text in results:
        print(f"{label} exit={code} sha256={sha256(text)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
