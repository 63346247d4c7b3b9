"""The example scripts must stay runnable.

Every example is compiled; the three fastest are executed end-to-end
(two assert internally against oracles).  The longer simulations are
exercised by the benchmark suite instead.
"""

import pathlib
import py_compile
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"
ALL_EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))


def test_examples_exist():
    names = {p.name for p in ALL_EXAMPLES}
    assert {"quickstart.py", "police_dispatch.py", "battlefield.py"} <= names
    assert len(ALL_EXAMPLES) >= 5


@pytest.mark.parametrize("path", ALL_EXAMPLES, ids=lambda p: p.name)
def test_examples_compile(path):
    py_compile.compile(str(path), doraise=True)


@pytest.mark.parametrize(
    "name", ["quickstart.py", "police_dispatch.py", "fleet_monitoring.py"]
)
def test_fast_examples_run(name):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / name)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip()
