"""Workload generation: datasets and update streams (paper §VI-A)."""

from .generator import (
    DISTRIBUTIONS,
    ArrayScenario,
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
    "ArrayScenario",
    "make_workload",
    "make_workload_arrays",
    "VectorUpdateStream",
    "uniform_workload",
    "gaussian_workload",
    "battlefield_workload",
    "road_network_workload",
    "UpdateStream",
]
