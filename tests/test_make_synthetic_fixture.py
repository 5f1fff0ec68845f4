"""``tools/make_synthetic_fixture.py`` rewrites the bundled fixture byte for byte."""

import importlib.util
from pathlib import Path

from pcreg import fixture_path

ROOT = Path(__file__).resolve().parents[1]
SPEC = importlib.util.spec_from_file_location("make_synthetic_fixture",
                                              ROOT / "tools" / "make_synthetic_fixture.py")
make_synthetic_fixture = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(make_synthetic_fixture)


def test_reproduces_the_bundled_fixture(tmp_path, monkeypatch):
    out = tmp_path / "electricity_synthetic.csv"
    monkeypatch.setattr(make_synthetic_fixture, "OUT", out)
    make_synthetic_fixture.main()
    assert out.read_bytes() == fixture_path().read_bytes()
