"""API consistency: every ``__all__`` name resolves and is documented."""

import importlib

import pytest

MODULES = [
    "repro",
    "repro.geometry",
    "repro.storage",
    "repro.index",
    "repro.join",
    "repro.core",
    "repro.par",
    "repro.workloads",
    "repro.queries",
    "repro.refine",
    "repro.metrics",
    "repro.objects",
]


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    assert hasattr(module, "__all__"), f"{module_name} lacks __all__"
    for name in module.__all__:
        assert getattr(module, name, None) is not None, (
            f"{module_name}.__all__ lists unresolvable name {name!r}"
        )


@pytest.mark.parametrize("module_name", MODULES)
def test_public_items_documented(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__, f"{module_name} lacks a module docstring"
    for name in module.__all__:
        item = getattr(module, name)
        if callable(item) or isinstance(item, type):
            assert item.__doc__, f"{module_name}.{name} lacks a docstring"


def test_algorithm_registry_matches_engine():
    from repro.core import ALGORITHMS, ContinuousJoinEngine

    for algorithm in ALGORITHMS:
        engine = ContinuousJoinEngine([], [], algorithm=algorithm)
        assert engine.algorithm == algorithm
