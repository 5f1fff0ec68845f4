"""``tools/mutants.py`` keeps a mutant list that still applies to the source."""

import importlib.util
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPEC = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(mutants)


def test_every_old_text_occurs_exactly_once():
    # A mutant whose text was edited away would run the unmutated tests
    # and read as "survived", or, on a second copy, mutate the wrong line.
    assert mutants.MUTANTS
    assert mutants.anchor_problems(ROOT) == []


def test_first_failure_is_the_whole_node_id():
    # A parametrized id may hold spaces; pytest ends the id with " - " and
    # the message, or with the end of the line.
    node = "tests/test_x.py::test_x[[[1.0, -0.0], [0.0, 2.0]]]"
    summary = f"..F\n=== short test summary info ===\nFAILED {node} - assert 1 == 2\n"
    assert mutants.FIRST_FAILURE.search(summary).group(1) == node
    assert mutants.FIRST_FAILURE.search(f"ERROR {node}\n").group(1) == node


# Runs tools/mutants.py on the tree argv[2] with the one mutant that the
# tree's single test never checks: the test writes its pid, then waits.
DRIVER = """
import importlib.util, sys
spec = importlib.util.spec_from_file_location("mutants", sys.argv[1])
mutants = importlib.util.module_from_spec(spec)
spec.loader.exec_module(mutants)
mutants.MUTANTS = (mutants.Mutant("src/fake.py", "x = 1", "x = 2", "never checked"),)
sys.exit(mutants.main(sys.argv[1:]))
"""
WAITING_TEST = """
import os, time
from pathlib import Path

def test_wait():
    Path(os.environ["MUTANT_PID_FILE"]).write_text(str(os.getpid()))
    time.sleep(60)
"""


def _gone(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


def test_a_signal_kills_the_tests_and_removes_the_copy(tmp_path):
    tree = tmp_path / "tree"
    (tree / "src").mkdir(parents=True)
    (tree / "tests").mkdir()
    (tree / "src" / "fake.py").write_text("x = 1\n")
    (tree / "tests" / "test_wait.py").write_text(WAITING_TEST)
    (tree / "pyproject.toml").write_text('[tool.pytest.ini_options]\ntestpaths = ["tests"]\n')
    tmp = tmp_path / "tmp"
    tmp.mkdir()
    pid_file = tmp_path / "pid"
    env = {**os.environ, "TMPDIR": str(tmp), "MUTANT_PID_FILE": str(pid_file)}
    tool = subprocess.Popen([sys.executable, "-c", DRIVER, str(ROOT / "tools" / "mutants.py"),
                             str(tree)], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        deadline = time.monotonic() + 60
        while not pid_file.exists() or not pid_file.read_text():
            assert tool.poll() is None, tool.communicate()
            assert time.monotonic() < deadline
            time.sleep(0.05)
        child = int(pid_file.read_text())
        assert list(tmp.glob("pcreg-mutant-*"))
        tool.send_signal(signal.SIGTERM)
        _, err = tool.communicate(timeout=30)
    finally:
        tool.kill()
        tool.wait()
    gone = _gone(child)
    if not gone:  # do not leave it sleeping
        os.kill(child, signal.SIGKILL)
    assert tool.returncode == 128 + signal.SIGTERM, err
    assert list(tmp.glob("pcreg-mutant-*")) == []
    assert gone
