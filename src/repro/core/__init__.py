"""The continuous-join core: engine, result store, clock, config."""

from .columnar import COLUMNAR_ALGORITHMS, ColumnarJoinEngine
from .columns import (
    ColumnStore,
    LateObjectError,
    ObjectsView,
    UpdateColumns,
    columns_from_objects,
)
from .config import JoinConfig
from .engine import ALGORITHMS, ContinuousJoinEngine
from .selfjoin import ContinuousSelfJoinEngine
from .simulation import SimulationDriver, StepStats

__all__ = [
    "JoinConfig",
    "ContinuousJoinEngine",
    "ContinuousSelfJoinEngine",
    "ColumnarJoinEngine",
    "ColumnStore",
    "UpdateColumns",
    "ObjectsView",
    "columns_from_objects",
    "LateObjectError",
    "ALGORITHMS",
    "COLUMNAR_ALGORITHMS",
    "SimulationDriver",
    "StepStats",
]
