"""Docs-rot protection: the README's Python code blocks actually run."""

import re
from pathlib import Path

import pytest

README = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")


def python_blocks():
    return re.findall(r"```python\n(.*?)```", README, flags=re.DOTALL)


def test_readme_has_python_examples():
    assert python_blocks(), "README lost its code examples"


@pytest.mark.usefixtures("executor")
def test_readme_python_blocks_execute():
    for i, block in enumerate(python_blocks()):
        namespace: dict = {}
        try:
            exec(compile(block, f"README.md block {i}", "exec"), namespace)
        except Exception as exc:  # pragma: no cover - failure reporting
            raise AssertionError(f"README block {i} failed: {exc}\n{block}") from exc


@pytest.mark.usefixtures("executor")
def test_readme_quickstart_claims_hold():
    """The quickstart block ends by printing B's three partitions."""
    block = python_blocks()[0]
    namespace: dict = {}
    exec(compile(block, "README quickstart", "exec"), namespace)
    result = namespace["result"]
    from repro.core.interval import FOREVER, Interval

    assert result.states["B"].partitions() == [
        (Interval(0, 4), FOREVER),
        (Interval(4, 6), 4),
        (Interval(6, FOREVER), 3),
    ]
