"""The names the benchmark's tracer wraps must exist in pcreg.

``perfbench/tracing.py`` replaces each function listed in
``TRACED_FUNCTIONS`` by name and traces ``Dataset`` through its
``__post_init__``; a renamed or deleted one makes every ``--trace 1`` run
fail.  The module is loaded from its file and left unmodified.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import pcreg.model

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("home, name", [(home, name) for home, name, _ in
                                        load_tracing().TRACED_FUNCTIONS])
def test_traced_function_exists(home, name):
    assert callable(getattr(importlib.import_module(home), name, None))


def test_dataset_is_traced_through_post_init():
    assert "__post_init__" in pcreg.model.Dataset.__dict__
