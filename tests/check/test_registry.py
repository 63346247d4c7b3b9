"""The sanitizer's error-code registry stays append-only and held."""

from __future__ import annotations

import re
from pathlib import Path

from .errors import RETIRED_CODES, SANITIZER_CODES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
LITERAL = re.compile(r"[\"'](SC\d{3})[\"']")


def test_codes_unique_and_never_retired():
    assert len(set(SANITIZER_CODES)) == len(SANITIZER_CODES)
    assert not set(SANITIZER_CODES) & set(RETIRED_CODES)


def test_every_code_has_a_design_row():
    design = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
    section = design.split("\n## 5.2 ", 1)[1].split("\n## 5.3 ", 1)[0]
    rows = {m for line in section.splitlines() if line.startswith("|")
            for m in re.findall(r"`(SC\d{3})`", line)}
    assert sorted(set(SANITIZER_CODES) - rows) == []


def test_every_code_has_a_detection_test():
    # The registry, the checker and this file name every code; a
    # detection test is anywhere else.
    skip = {HERE / "errors.py", HERE / "sanitize.py", Path(__file__).resolve()}
    tests = " ".join(p.read_text(encoding="utf-8") for p in ROOT.glob("tests/**/*.py")
                     if p.resolve() not in skip)
    assert [c for c in SANITIZER_CODES if c not in tests] == []


def test_every_raised_code_is_registered():
    raised = set(LITERAL.findall((HERE / "sanitize.py").read_text(encoding="utf-8")))
    assert raised and sorted(raised - set(SANITIZER_CODES)) == []
    # The library raises none: the sanitizer is a test oracle.
    in_library = {code for p in (ROOT / "src" / "repro").rglob("*.py")
                  for code in LITERAL.findall(p.read_text(encoding="utf-8"))}
    assert in_library == set()
