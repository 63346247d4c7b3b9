"""Join algorithms over moving-object indexes.

* :func:`naive_join` — synchronous traversal, window ``[t_c, ∞)``;
* :func:`tc_join` — the same traversal time-constrained to
  ``[t_u, t_u + T_M]`` (Theorem 1);
* :func:`improved_join` — TC traversal with plane sweep, dimension
  selection and intersection check (Figure 6);
* :func:`tp_join` / :func:`influence_scan` — the TP-join primitives
  behind the ETP-Join competitor;
* :func:`mtb_join` / :func:`mtb_join_object` — bucketed joins with the
  Theorem-2 window;
* :func:`brute_force_join` — the O(|A||B|) oracle used in tests.
"""

from .brute import brute_force_join, brute_force_pairs_at
from .improved import JoinTechniques, improved_join
from .mtb_join import mtb_join, mtb_join_object
from .naive import naive_join
from .pbsm import pbsm_join
from .tc import tc_join
from .tp import TPAnswer, influence_scan, tp_join
from .types import JoinTriple

__all__ = [
    "JoinTriple",
    "JoinTechniques",
    "naive_join",
    "tc_join",
    "improved_join",
    "tp_join",
    "influence_scan",
    "TPAnswer",
    "mtb_join",
    "mtb_join_object",
    "pbsm_join",
    "brute_force_join",
    "brute_force_pairs_at",
]
