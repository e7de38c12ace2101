"""API quality gates: exports resolve, and every public item is documented."""

import importlib
import inspect

import pytest

PACKAGES = [
    "repro",
    "repro.api",
    "repro.obs",
    "repro.core",
    "repro.graph",
    "repro.runtime",
    "repro.baselines",
    "repro.algorithms",
    "repro.algorithms.ti",
    "repro.algorithms.td",
    "repro.datasets",
    "repro.query",
    "repro.serve",
    "repro.streaming",
]


@pytest.mark.parametrize("name", PACKAGES)
def test_all_exports_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    for symbol in exported:
        assert hasattr(module, symbol), f"{name}.__all__ lists missing {symbol!r}"


@pytest.mark.parametrize("name", PACKAGES)
def test_public_items_documented(name):
    """Every exported class and function carries a docstring."""
    module = importlib.import_module(name)
    undocumented = []
    for symbol in getattr(module, "__all__", []):
        obj = getattr(module, symbol)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            if not (obj.__doc__ and obj.__doc__.strip()):
                undocumented.append(symbol)
    assert not undocumented, f"{name}: missing docstrings on {undocumented}"


@pytest.mark.parametrize("name", PACKAGES)
def test_module_docstrings(name):
    module = importlib.import_module(name)
    assert module.__doc__ and module.__doc__.strip(), name


def test_public_class_methods_documented():
    """The hot user-facing classes document every public method."""
    from repro.core.context import VertexContext
    from repro.core.engine import IntervalCentricEngine
    from repro.core.interval import Interval
    from repro.core.state import PartitionedState
    from repro.query.timeline import Timeline

    for cls in (Interval, PartitionedState, VertexContext, Timeline,
                IntervalCentricEngine):
        missing = []
        for attr_name, attr in vars(cls).items():
            if attr_name.startswith("_") or not callable(attr):
                continue
            if not (getattr(attr, "__doc__", None) or "").strip():
                missing.append(f"{cls.__name__}.{attr_name}")
        assert not missing, f"undocumented public methods: {missing}"
