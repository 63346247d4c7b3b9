"""README's Python snippets run, in order, in one namespace.

Each ```python block of README.md is executed after the ones above it,
so a snippet may use what an earlier one defined (``scenario``,
``engine``, ...), as a reader pasting them into one session would.
Only the sizes shrink, so the whole README runs in seconds; each
shrink must still match the README, or the test fails instead of
quietly running the full sizes.
"""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"

#: README text -> the smaller size the test runs.
SHRINK = {
    "uniform_workload(1000, ": "uniform_workload(200, ",
    "(100_000, ": "(2_000, ",
    "workers=4": "workers=2",
}


def python_blocks(text: str):
    """``(line, source)`` of every ```python block, in order; a failing
    block's traceback names it as ``README.md:<line>``."""
    for match in re.finditer(r"^```python\n(.*?)^```", text, re.M | re.S):
        yield text.count("\n", 0, match.start()) + 1, match.group(1)


def test_readme_python_blocks_run_in_order(tmp_path, monkeypatch):
    text = README.read_text()
    for old, new in SHRINK.items():
        assert old in text, f"README no longer contains {old!r}"
        text = text.replace(old, new)
    blocks = list(python_blocks(text))
    assert len(blocks) >= 5
    monkeypatch.chdir(tmp_path)  # a snippet may write files (run.json)
    namespace = {"__name__": "readme"}
    try:
        for line, source in blocks:
            exec(compile(source, f"README.md:{line}", "exec"), namespace)
    finally:
        engine = namespace.get("engine")
        if hasattr(engine, "close"):
            engine.close()

