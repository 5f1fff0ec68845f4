"""The output digest of every benchmark case runs, and every case succeeds.

``tools/output_digest.py`` is the byte-identity gate between two
checkouts; it runs every perfbench case in process, through ``cli.main``
and through the library path (``Dataset`` + ``standardize`` +
``compare_payload`` + ``render_json``) that the fits-batch workload calls.
"""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# Four workloads at two seeds each.
OUTPUTS = 760
LINE = re.compile(r"^\S+ seed=\d+ \S+ exit=(\S+) sha256=[0-9a-f]{64}$")


def test_every_benchmark_output_exits_zero():
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "output_digest.py"), str(ROOT)],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0 and done.stderr == "", done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == OUTPUTS
    for line in lines:
        match = LINE.match(line)
        assert match and match.group(1) == "0", line
