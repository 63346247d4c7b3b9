"""Exact-shape refinement step for filter-step join results."""

from .shapes import Circle, ConvexPolygon, Sector, Shape, refine_pairs

__all__ = [
    "Shape",
    "Circle",
    "ConvexPolygon",
    "Sector",
    "refine_pairs",
]
