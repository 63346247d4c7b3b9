"""Finding and error types of the runtime sanitizer.

:mod:`repro.check` reports problems as :class:`Finding` records — a
stable machine-readable code, a human message, and a location.  The
engines raise them bundled in an :class:`InvariantViolation`; the CLI
prints them and sets the exit code.

Error-code registry
-------------------
Sanitizer codes (``SCxxx``, checked at runtime against live structures):

========  ============================================================
``SC101``  TPR-tree level/height bookkeeping inconsistent
``SC102``  TPR-tree node occupancy outside ``[min_fill, capacity]``
``SC103``  parent entry bound fails to contain its child subtree
``SC104``  leaf entries and object table out of sync
``SC201``  object filed in an MTB bucket not matching its update time
``SC202``  MTB forest bookkeeping (tags/sizes/empty buckets) corrupt
``SC203``  MTB bucket newer than the current timestamp (lut monotone)
``SC303``  stored interval exceeds the Theorem-1/2 TC bound
``SC401``  stripe partition fails to cover the domain
``SC402``  shard residency disagrees with the swept ghost-halo rule
``SC403``  co-located pair copies diverge (or an endpoint is absent)
``SC501``  supervisor op log exceeds the checkpoint interval
``SC502``  checkpoint epoch/clock disagrees with the shard's engine
``SC503``  shard commands addressed to a dead worker slot
``SC601``  column-store sorted-id index broken / duplicate id
``SC602``  pre-shifted bounds drifted / magnitude bound below the columns
``SC603``  column reference time ahead of the clock / non-finite data
``SC701``  folded delta view diverges from the live result store
``SC702``  delta event stream not strictly tick-monotone
``SC703``  ill-formed delta event (duplicate add / removal of absent row)
``SC801``  result-store planes out of order or not pairwise disjoint
``SC802``  result-store inverted index disagrees with the planes
``SC803``  result-store bookkeeping incoherent after a flush
========  ============================================================

Codes are never recycled: a code that is dropped from the registry
moves to :data:`RETIRED_CODES` permanently, and
``tests/check/test_registry.py`` checks that it never reappears.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

__all__ = [
    "Finding",
    "InvariantViolation",
    "SANITIZER_CODES",
    "RETIRED_CODES",
]

SANITIZER_CODES = (
    "SC101", "SC102", "SC103", "SC104",
    "SC201", "SC202", "SC203",
    "SC303",
    "SC401", "SC402", "SC403",
    "SC501", "SC502", "SC503",
    "SC601", "SC602", "SC603",
    "SC701", "SC702", "SC703",
    "SC801", "SC802", "SC803",
)

#: Codes permanently removed from the registry.  Never reuse a retired
#: code for a new check — historical findings and docs keep their
#: meaning.
#: ``RC000``–``RC006``, ``RC101``–``RC107``, ``RC201``–``RC203``,
#: ``RC211``–``RC213``: the static source lint and cross-module flow
#: lint, whose contracts behavioural tests hold (DESIGN §5.7).
#: ``SC301``/``SC302``/``SC304``/``SC305``: the dict-of-lists result
#: store's list order, disjointness, inverted index and expiry frontier
#: (the plane store's SC801–SC803 hold the same invariants).
RETIRED_CODES = (
    "RC000", "RC001", "RC002", "RC003", "RC004", "RC005", "RC006",
    "RC101", "RC102", "RC103", "RC104", "RC105", "RC106", "RC107",
    "RC201", "RC202", "RC203", "RC211", "RC212", "RC213",
    "SC301", "SC302", "SC304", "SC305",
)


@dataclass(frozen=True)
class Finding:
    """One detected violation: code, human message, and location.

    ``location`` is a structure path (e.g. ``tree_a/node 7``).
    """

    code: str
    message: str
    location: str = ""

    def __str__(self) -> str:
        where = f"{self.location}: " if self.location else ""
        return f"{where}{self.code} {self.message}"


class InvariantViolation(AssertionError):
    """Raised by the runtime sanitizer when any invariant check fails.

    Subclasses :class:`AssertionError` so existing ``validate()``
    call sites (and ``pytest.raises(AssertionError)``) keep working.
    """

    def __init__(self, findings: Sequence[Finding]):
        self.findings: List[Finding] = list(findings)
        lines = "\n".join(f"  {f}" for f in self.findings)
        super().__init__(
            f"{len(self.findings)} invariant violation(s):\n{lines}"
        )
