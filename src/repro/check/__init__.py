"""Machine-checked correctness rules: runtime sanitizer + domain lint.

Two layers guard the invariants the paper's correctness rests on
(Theorems 1–2, TPR-tree bounding, MTB bucketing):

* :mod:`repro.check.sanitize` — walks *live* structures (trees,
  forests, result stores) and reports ``SCxxx`` findings; wired into
  the engines via ``JoinConfig(sanitize=True)`` and into
  ``python -m repro.check sanitize`` for exported sharded states.
* :mod:`repro.check.lint` — per-file AST lint (``RC000``–``RC006``)
  over source files, run as ``python -m repro.check lint src/`` and as
  a blocking CI job.
* :mod:`repro.check.flow` — *cross-module* flow analysis
  (``RC1xx``/``RC2xx``) over a package symbol table
  (:mod:`repro.check.symbols`): shard-protocol completeness,
  kernel-triple parity, and error-code registry consistency, run as
  ``python -m repro.check flow src/`` and as a blocking CI job.

See :mod:`repro.check.errors` for the full error-code registry.
"""

from .errors import (
    FLOW_CODES,
    LINT_CODES,
    RETIRED_CODES,
    SANITIZER_CODES,
    Finding,
    InvariantViolation,
)
from .flow import check_flow, flow_paths
from .lint import lint_file, lint_paths, lint_source
from .symbols import SymbolTable
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
    "LINT_CODES",
    "SANITIZER_CODES",
    "FLOW_CODES",
    "RETIRED_CODES",
    "SymbolTable",
    "check_flow",
    "flow_paths",
    "lint_file",
    "lint_paths",
    "lint_source",
    "check_tpr_tree",
    "check_mtb_forest",
    "check_sharded_state",
    "check_supervisor_state",
    "sanitize_engine",
    "raise_on_findings",
]
