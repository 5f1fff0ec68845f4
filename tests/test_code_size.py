"""``tools/code_size.py`` counts code lines, leaving out docstrings, comments and blanks."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPEC = importlib.util.spec_from_file_location("code_size", ROOT / "tools" / "code_size.py")
code_size = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(code_size)

SOURCE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment


# a comment line
class A:
    """Class docstring."""

    def f(self, x):
        """Method docstring."""
        s = """a string that is
not a docstring"""
        return (x +
                len(s))
'''


def test_only_code_lines_count():
    # import, class, def, the two-line assignment and the two-line return
    assert code_size.code_lines(SOURCE) == 7


def test_prints_every_module_and_the_total():
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "code_size.py"), str(ROOT)],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0 and done.stderr == ""
    rows = [line.split() for line in done.stdout.splitlines()]
    modules = sorted(str(p.relative_to(ROOT)) for p in (ROOT / "src" / "pcreg").glob("*.py"))
    assert [name for _, name in rows[:-1]] == modules
    assert rows[-1] == [str(sum(int(count) for count, _ in rows[:-1])), "total"]
