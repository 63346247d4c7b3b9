"""Run the usage doctests embedded in the library's docstrings.

Keeps every ``>>>`` example in the public API honest.
"""

import doctest

import pytest

import repro.geometry.box
import repro.geometry.interval
import repro.geometry.intersection
import repro.geometry.kinetic
import repro.index.bulk
import repro.index.stats
import repro.metrics
import repro.objects
import repro.storage.buffer
import repro.storage.disk

MODULES = [
    repro.geometry.interval,
    repro.geometry.box,
    repro.geometry.kinetic,
    repro.geometry.intersection,
    repro.objects,
    repro.metrics,
    repro.storage.disk,
    repro.storage.buffer,
    repro.index.bulk,
    repro.index.stats,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, f"{results.failed} doctest failures in {module}"
