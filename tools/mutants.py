#!/usr/bin/env python3
"""Run the tier-1 tests against each of a fixed list of one-line mutants.

Usage::

    python3 tools/mutants.py [CHECKOUT]

``CHECKOUT`` is the root of a pcreg source tree (default: this one).  Each
mutant replaces one text that occurs exactly once in a ``src/pcreg``
module.  Mutants are tried one at a time: the checkout is copied to a
temporary directory, the mutant is applied to the copy, and the tier-1
tests run there with ``-x``.  One line per mutant is printed, ``killed``
with the first failing test or ``survived``, and the exit status is 0
only if every mutant is killed (1 otherwise, 2 when an old text does not
occur exactly once).  A SIGTERM or SIGINT kills the running tests, removes
the copy and exits with 128 plus the signal number.  The whole list takes
a few minutes, so it is not part of the tier-1 tests;
``tests/test_mutants.py`` checks that every old text still occurs exactly
once, and how a run reports a failure and ends on a signal.
"""

from __future__ import annotations

import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple


class Mutant(NamedTuple):
    path: str
    old: str
    new: str
    reason: str


MUTANTS = (
    Mutant("src/pcreg/montecarlo.py", "z_floor_rss=rounding * norm_mu,", "z_floor_rss=rounding,",
           "the RSS z floor loses its |mu| factor: false alerts when the signal dwarfs the noise"),
    Mutant("src/pcreg/montecarlo.py", "rounding / f.sigma[d - 1]", "rounding / f.sigma[0]",
           "the slope z floor divides by s_1, not s_d: false alerts on a scaled column"),
    Mutant("src/pcreg/montecarlo.py", "cov = np.cov(draws, ddof=1)", "cov = np.cov(draws, ddof=0)",
           "the slope covariance and every MCSE divide by R, not R - 1"),
    Mutant("src/pcreg/montecarlo.py",
           "if not MIN_REPLICATES <= self.replicates <= MAX_REPLICATES:",
           "if not MIN_REPLICATES <= self.replicates:",
           "a huge replicate count reaches the draw array's allocation"),
    Mutant("src/pcreg/montecarlo.py", "if types & {str, np.str_, bool, np.bool_, type(None)}:",
           "if types & {bool, np.bool_, type(None)}:",
           "numbers written as JSON strings are read as numbers"),
    Mutant("src/pcreg/linalg.py", "f.sigma[cols] <= cutoff", "f.sigma[cols] < cutoff",
           "a singular value at the rank cutoff counts as nonzero"),
    Mutant("src/pcreg/linalg.py", "return g @ g.T",
           "return (f.v[:, cols] / f.sigma[cols] ** 2) @ f.v[:, cols].T",
           "a general product in place of syrk: the printed covariances are not symmetric"),
    Mutant("src/pcreg/model.py", "n + n % 2", "n",
           "odd-length residual rows start unaligned: an SSE kernel sums them in another order"),
    Mutant("src/pcreg/diagnostics.py", "exceeds_ols_k=se_k > se_ols,",
           "exceeds_ols_k=se_k >= se_ols,",
           "an omitted-space standard error equal to OLS's is flagged"),
    Mutant("src/pcreg/diagnostics.py", "abs(recovered - ols.sigma2)",
           "abs(recovered - pcr.sigma2_d)",
           "the sigma2 recovery residual compares with the PCR variance, not the OLS one"),
    Mutant("src/pcreg/diagnostics.py", "((n - p) / (n - d) - 1.0)", "((n - d) / (n - d) - 1.0)",
           "the plug-in bias books n - d for the error term's dof, not n - p"),
    Mutant("src/pcreg/cli.py", "if len(message) > 160:", "if len(message) > 1600:",
           "a usage error up to 1,600 characters is echoed whole"),
    Mutant("src/pcreg/cli.py", "_numeric_table(text, reader.line_num, len(header))",
           "_numeric_table(text, 1, len(header))",
           "the data block starts at physical line 2 whatever the header's length"),
    Mutant("src/pcreg/cli.py", "comments=None, quotechar='\"', ndmin=2", "comments=None, ndmin=2",
           "numpy's reader rejects quoted cells, which fall back to csv.reader and float()"),
    Mutant("src/pcreg/cli.py", 'row["asserted"] and math.isfinite(row["z"])',
           'math.isfinite(row["z"])',
           "a recorded row's |z|, such as the n-p dof variant's, raises the alert"),
    Mutant("src/pcreg/cli.py", "if zero_signs[0] != zero_signs[1]:", "if False:",
           "a 0.0 mirrored onto a -0.0 prints the upper triangle's sign on both sides"),
    Mutant("src/pcreg/cli.py", "and all(map(isinstance, chain.from_iterable(rows), repeat(float)))",
           "and True",
           "an int or bool below the diagonal prints as its mirrored float"),
    Mutant("src/pcreg/cli.py", "except UnicodeEncodeError as exc:",
           "except UnicodeDecodeError as exc:",
           "a table that stdout cannot encode ends in a traceback"),
)

TIER1 = ("-m", "pytest", "-q", "-x", "--continue-on-collection-errors")
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache",
                                 ".perfbench_work")
# A node id may hold spaces (a parametrized id); pytest ends it with " - "
# and the message, or with the end of the line.
FIRST_FAILURE = re.compile(r"^(?:FAILED|ERROR) (.+?)(?: - |$)", re.MULTILINE)


def anchor_problems(root: Path) -> list[str]:
    """One message per mutant whose old text does not occur exactly once."""
    problems = []
    for m in MUTANTS:
        count = (root / m.path).read_text(encoding="utf-8").count(m.old)
        if count != 1:
            problems.append(f"{m.path}: {m.old!r} occurs {count} times")
    return problems


def run_mutant(root: Path, m: Mutant) -> tuple[bool, str]:
    """(killed, first failing test or the last output line) for one mutant."""
    with tempfile.TemporaryDirectory(prefix="pcreg-mutant-") as tmp:
        copy = Path(tmp) / "tree"
        shutil.copytree(root, copy, ignore=IGNORED)
        target = copy / m.path
        target.write_text(target.read_text(encoding="utf-8").replace(m.old, m.new),
                          encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(copy / "src")}
        done = subprocess.run([sys.executable, *TIER1], cwd=copy, env=env,
                              capture_output=True, text=True, timeout=1800)
    if done.returncode == 0:
        return False, ""
    failure = FIRST_FAILURE.search(done.stdout)
    lines = (done.stdout + done.stderr).strip().splitlines()
    return True, failure.group(1) if failure else (lines[-1] if lines else "")


def _stop(signum, frame) -> None:
    """End the run by an exception, so that ``subprocess.run`` kills the
    tier-1 child and ``TemporaryDirectory`` removes the copy on the way out."""
    raise SystemExit(128 + signum)


def main(argv: list[str]) -> int:
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, _stop)
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parents[1]
    problems = anchor_problems(root)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 2
    survivors = 0
    for m in MUTANTS:
        killed, detail = run_mutant(root, m)
        survivors += not killed
        verdict = f"killed by {detail}" if killed else "survived"
        print(f"{m.path}: {m.old!r} -> {m.new!r}: {verdict}  ({m.reason})", flush=True)
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
