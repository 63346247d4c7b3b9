"""Workload generation: datasets and update streams (paper §VI-A)."""

from .generator import (
    DISTRIBUTIONS,
    Scenario,
    battlefield_workload,
    gaussian_workload,
    make_workload,
    make_workload_arrays,
    road_network_workload,
    uniform_workload,
)
from .updates import UpdateStream, VectorUpdateStream

__all__ = [
    "DISTRIBUTIONS",
    "Scenario",
    "make_workload",
    "uniform_workload",
    "gaussian_workload",
    "battlefield_workload",
    "road_network_workload",
    "UpdateStream",
    "make_workload_arrays",
    "VectorUpdateStream",
]
