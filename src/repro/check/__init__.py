"""Runtime invariant sanitizer.

:mod:`repro.check.sanitize` walks *live* structures (trees, forests,
column stores, result stores, delta ledgers, sharded engines) and
compares them with an independent recomputation, reporting ``SCxxx``
findings.  It guards the invariants the paper's correctness rests on
(Theorems 1–2, TPR-tree bounding, MTB bucketing) and is wired into the
engines via ``JoinConfig(sanitize=True)`` and into
``python -m repro.check sanitize`` for exported sharded states.

See :mod:`repro.check.errors` for the error-code registry.
"""

from .errors import (
    RETIRED_CODES,
    SANITIZER_CODES,
    Finding,
    InvariantViolation,
)
from .sanitize import (
    check_mtb_forest,
    check_sharded_state,
    check_supervisor_state,
    check_tpr_tree,
    raise_on_findings,
    sanitize_engine,
)

__all__ = [
    "Finding",
    "InvariantViolation",
    "SANITIZER_CODES",
    "RETIRED_CODES",
    "check_tpr_tree",
    "check_mtb_forest",
    "check_sharded_state",
    "check_supervisor_state",
    "sanitize_engine",
    "raise_on_findings",
]
