"""Shared numeric tolerances and the pre-shifted-constant contract.

Every tolerance that the scalar pair-test path, the vectorized kernels,
and the index maintenance code share lives here, in one module, so the
paths cannot drift apart silently.  ``geometry/intersection.py`` and
``geometry/kernels.py`` import their tolerances from this module
instead of re-inlining the literals: the bit-exactness contract of the
kernels (DESIGN.md §5.1) holds only while both paths evaluate the
*same* constraint ``(lo - v_lo * t_ref) + (v_lo) * t`` with the *same*
epsilon, and the kernel-vs-scalar byte-parity suites
(``tests/geometry/test_kernels.py``) fail the moment they do not.

Constants
---------
``PAIR_TEST_EPS``
    Tolerance applied to pair-test constraint boundaries so that two
    rectangles touching at a single timestamp are reported despite
    floating-point rounding.  Used identically by the scalar
    ``intersection_interval`` (2-d and n-d) and every batch kernel.
``SWEEP_FILTER_SLACK``
    Slack of the sweep join's orthogonal-bound reject
    (:func:`repro.geometry.kernels.batch_sweep_join`), *relative* to the
    coordinate magnitude: a 1-D sweep candidate is dropped before the
    exact pair test only when the two objects' swept ranges on the other
    axis are more than ``SWEEP_FILTER_SLACK * max(1, magnitude)`` apart.
    It must dominate ``PAIR_TEST_EPS`` (a gap the exact test forgives)
    plus the rounding by which ``mbr + vbr * (t - t_ref)`` (the swept
    bounds) and ``(lo - v * t_ref) + v * t`` (the exact constraints) can
    disagree — a few ``2**-53`` of the magnitude — so the reject never
    drops a pair the exact test accepts.  Six orders of magnitude of
    headroom cost the filter nothing measurable in selectivity.
``SWEEP_GRID_PAD``
    Pad on the sweep join's grid reach ``W`` (the widest binned swept
    box on an axis), *relative* to the same coordinate magnitude as
    ``SWEEP_FILTER_SLACK``.  A row visits the cells from ``lo - W`` up,
    and a partner it must meet satisfies ``lo_p >= lo - (hi_p - lo_p)``
    only in exact arithmetic: ``hi_p - lo_p`` and ``lo - W`` each round
    by up to ``2**-53`` of their operands, all bounded by the magnitude,
    so the pad must exceed a few ``2**-53`` (``1.1e-16``) of it and
    nothing more — it costs selectivity nothing at four orders above.
``MERGE_TOL``
    Gap below which two closed time intervals are coalesced by
    :func:`repro.geometry.interval.merge_intervals` and the result
    store's disjoint-tail fast path.
``CONTAIN_EPS``
    Tolerance for kinetic containment tests in the TPR-tree: node
    bounds contain their descendants mathematically, but re-referencing
    unions introduces rounding on the order of 1e-12; this looser
    epsilon keeps guided deletion and the structural sanitizer exact
    without admitting genuinely disjoint branches.
"""

from __future__ import annotations

__all__ = [
    "PAIR_TEST_EPS",
    "SWEEP_FILTER_SLACK",
    "SWEEP_GRID_PAD",
    "MERGE_TOL",
    "CONTAIN_EPS",
]

#: Pair-test constraint tolerance (scalar and kernel paths alike).
PAIR_TEST_EPS = 1e-12

#: Sweep-join orthogonal-bound reject slack, relative to coordinate magnitude.
SWEEP_FILTER_SLACK = 1e-9

#: Sweep-join grid reach pad, relative to coordinate magnitude.
SWEEP_GRID_PAD = 1e-12

#: Interval-merge gap tolerance.
MERGE_TOL = 1e-9

#: Kinetic containment tolerance for tree-structure checks.
CONTAIN_EPS = 1e-6
