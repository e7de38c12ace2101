"""Smoke tests: every shipped example must run end to end."""

import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).parent.parent / "examples").glob("*.py"))


@pytest.mark.usefixtures("executor")
@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_example_runs(path, capsys):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        module.main()
    finally:
        sys.modules.pop(spec.name, None)
    out = capsys.readouterr().out
    assert len(out) > 100, f"{path.stem} produced almost no output"


def test_examples_exist():
    assert len(EXAMPLES) >= 3, "the repo promises at least three examples"
    names = {p.stem for p in EXAMPLES}
    assert "quickstart" in names
