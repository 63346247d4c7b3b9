"""Finding and error types shared by the sanitizer and the linter.

Both layers of :mod:`repro.check` report problems as :class:`Finding`
records — a stable machine-readable code, a human message, and a
location.  The runtime sanitizer raises them bundled in an
:class:`InvariantViolation`; the linter prints them and sets the exit
code.

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

Lint codes (``RCxxx``, checked statically over source files):

========  ============================================================
``RC000``  file does not parse (syntax error)
``RC001``  raw float ``==``/``!=`` on time/coordinate values
``RC002``  wall-clock call or import inside core/join/index
``RC003``  mutable default argument
``RC004``  bare ``except:``
``RC005``  public ``geometry/`` function missing type annotations
``RC006``  pair-test tolerance not sourced from ``geometry.constants``
========  ============================================================

Flow codes (``RC1xx``/``RC2xx``, checked statically *across* modules
by :mod:`repro.check.flow`):

========  ============================================================
``RC101``  protocol/emitted op without a dispatch arm
``RC102``  dispatch arm for an op missing from the protocol registry
``RC103``  dispatch arm mutates state but its op is not ``mutating``
``RC104``  checkpoint produced/consumed key mismatch
``RC105``  fault spec names an unknown fault kind or command op
``RC106``  bare op-name string literal outside ``par/protocol.py``
``RC107``  worker dispatch present without a protocol module
``RC202``  tolerance constant not sourced from ``geometry.constants``
``RC211``  duplicate or retired-and-reused error code
``RC212``  code raised in source but unregistered / undocumented
``RC213``  registered code never referenced by a detection test
========  ============================================================

Codes are never recycled: a code that is dropped from a live registry
moves to :data:`RETIRED_CODES` permanently, and the flow lint's
``RC211`` enforces that it never reappears.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

__all__ = [
    "Finding",
    "InvariantViolation",
    "SANITIZER_CODES",
    "LINT_CODES",
    "FLOW_CODES",
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

LINT_CODES = ("RC000", "RC001", "RC002", "RC003", "RC004", "RC005", "RC006")

FLOW_CODES = (
    "RC101", "RC102", "RC103", "RC104", "RC105", "RC106", "RC107",
    "RC202",
    "RC211", "RC212", "RC213",
)

#: Codes permanently removed from the live registries.  Never reuse a
#: retired code for a new check — historical findings and docs keep
#: their meaning.  Enforced statically by the flow lint (``RC211``).
#: ``RC201``/``RC203``: compiled-kernel facade signature drift / wiring.
#: ``SC301``/``SC302``/``SC304``/``SC305``: the dict-of-lists result
#: store's list order, disjointness, inverted index and expiry frontier
#: (the plane store's SC801–SC803 hold the same invariants).
RETIRED_CODES = ("RC201", "RC203", "SC301", "SC302", "SC304", "SC305")


@dataclass(frozen=True)
class Finding:
    """One detected violation: code, human message, and location.

    ``location`` is ``path:line`` for lint findings and a structure
    path (e.g. ``tree_a/node 7``) for sanitizer findings.
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
