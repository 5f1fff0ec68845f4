"""The output digest of every benchmark case runs, and every case succeeds.

``tools/output_digest.py`` is the byte-identity gate between two
checkouts; it runs every perfbench case in process, through ``cli.main``
and through the library path (``Dataset`` + ``standardize`` +
``compare_payload`` + ``render_json``) that the fits-batch workload calls.
Given two checkouts, its exit status is 0 when every output is identical
and 1 when one differs.
"""

import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "output_digest.py"
# Four workloads at two seeds each; each simulate case also as a table.
OUTPUTS = 762
LINE = re.compile(r"^\S+ seed=\d+ \S+ exit=(\S+) sha256=[0-9a-f]{64}$")


def test_every_benchmark_output_exits_zero():
    done = subprocess.run([sys.executable, str(TOOL), str(ROOT)],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0 and done.stderr == "", done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == OUTPUTS
    for line in lines:
        match = LINE.match(line)
        assert match and match.group(1) == "0", line


@pytest.mark.parametrize("edit, status, identical", [(False, 0, OUTPUTS), (True, 1, OUTPUTS - 4)],
                         ids=["identical", "changed"])
def test_two_checkouts_exit_status(tmp_path, edit, status, identical):
    # A copy of this tree, with the generator name that the four simulate-mc
    # outputs print (JSON and table at both seeds) changed or not.  The edit
    # is a line appended to the module, so it does not depend on how the
    # name's own line is spelled; cli imports the name after the module has
    # run to its end.
    other = tmp_path / "other"
    for part in ("src", "perfbench"):
        shutil.copytree(ROOT / part, other / part, ignore=shutil.ignore_patterns("__pycache__"))
    if edit:
        module = other / "src" / "pcreg" / "montecarlo.py"
        text = module.read_text(encoding="utf-8")
        module.write_text(text + '\nGENERATOR_NAME = "edited-" + GENERATOR_NAME\n',
                          encoding="utf-8")
        assert module.read_text(encoding="utf-8") != text
    done = subprocess.run([sys.executable, str(TOOL), str(ROOT), str(other)],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == status, done.stderr
    assert f"summary: {identical} of {OUTPUTS} outputs byte-identical, 0 exit code(s) changed" \
        in done.stdout
