"""Geometric substrate: boxes, kinetic boxes, interval algebra, sweeps.

Everything in this package is pure math with no storage or index
dependencies.  The rest of the library is built on these primitives.
"""

from .box import NDIMS, Box
from .interval import INF, TimeInterval, merge_intervals
from .intersection import (
    first_contact_time,
    intersection_interval,
    intersects_during,
)
from .kinetic import KineticBox
from .kernels import KineticBatch
from .plane_sweep import (
    all_pairs_intersection,
    ps_intersection,
    select_sweep_dimension,
    sweep_bounds,
)

__all__ = [
    "NDIMS",
    "Box",
    "INF",
    "TimeInterval",
    "merge_intervals",
    "KineticBox",
    "intersection_interval",
    "intersects_during",
    "first_contact_time",
    "ps_intersection",
    "all_pairs_intersection",
    "select_sweep_dimension",
    "sweep_bounds",
    "KineticBatch",
]
