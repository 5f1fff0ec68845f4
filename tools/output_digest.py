#!/usr/bin/env python3
"""Print a sha256 of every output of every perfbench case, for one checkout.

Usage::

    python3 tools/output_digest.py CHECKOUT > digests.txt

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
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

SEEDS = (1, 9173)
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout", type=Path, help="root of the source tree to digest")
    args = parser.parse_args(argv)
    root = args.checkout.resolve()
    package = root / "src" / "pcreg"
    workloads_py = root / "perfbench" / "workloads.py"
    if not (package / "__init__.py").is_file() or not workloads_py.is_file():
        print(f"output_digest: error: {root} has no src/pcreg or perfbench/workloads.py",
              file=sys.stderr)
        return 2

    # The thread setting must be in place before numpy loads its BLAS.
    for var in BLAS_VARIABLES:
        os.environ[var] = "1"
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import pcreg.cli as cli
    import pcreg.model as model
    import workloads

    if Path(cli.__file__).resolve().parent != package:
        print(f"output_digest: error: imported pcreg from {cli.__file__}, not {package}",
              file=sys.stderr)
        return 2
    fixture = package / "data" / "electricity_synthetic.csv"
    for name in workloads.NAMES:
        for seed in SEEDS:
            with tempfile.TemporaryDirectory(prefix="pcreg-digest-") as tmp:
                workload = workloads.build(name, seed, fixture, Path(tmp))
                for case in workload.cases:
                    code, text = run_case(cli, model, workload, case)
                    digest = hashlib.sha256(text.replace(tmp, "<workdir>").encode("utf-8"))
                    print(f"{name} seed={seed} {case.key} exit={code} "
                          f"sha256={digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
