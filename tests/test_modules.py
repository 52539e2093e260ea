"""Every package module has a test file of its own."""

from pathlib import Path

import mixlora


def test_every_module_has_its_own_test_file():
    src = Path(mixlora.__file__).parent
    tests = Path(__file__).parent
    untested = sorted(p.name for p in src.glob("*.py")
                      if p.stem not in ("__init__", "errors")
                      and not (tests / f"test_{p.stem}.py").exists())
    assert untested == []
