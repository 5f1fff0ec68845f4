"""``tools/mutants.py`` keeps a mutant list that still applies to the source."""

import importlib.util
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
