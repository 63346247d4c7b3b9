"""Synthetic moving-object workloads (paper §VI-A).

The paper generates datasets with the generator of the TPR-tree authors:
a 1000×1000 space domain, square objects whose side is a percentage of
the space side, and three spatial distributions —

* **uniform** — positions and directions uniform at random, speed
  uniform in ``(0, v_max]``;
* **gaussian** — positions clustered around the domain center;
* **battlefield** — the two datasets start on opposite sides of the
  space and move toward the opposing party.

All randomness flows through one seeded :class:`numpy.random.Generator`
per scenario, so every experiment is reproducible bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..core.columns import UpdateColumns
from ..geometry import Box
from ..objects import MovingObject

__all__ = [
    "Scenario",
    "make_workload",
    "make_workload_arrays",
    "uniform_workload",
    "gaussian_workload",
    "battlefield_workload",
    "road_network_workload",
    "DISTRIBUTIONS",
]

DISTRIBUTIONS = ("uniform", "gaussian", "battlefield", "road")

#: Number of horizontal and of vertical roads in the road-network grid.
ROAD_GRID = 10

#: Dataset-B object ids start at this offset from dataset A's.
_B_ID_OFFSET = 1_000_000


@dataclass(eq=False)  # its fields are arrays: a scenario is equal only to itself
class Scenario:
    """A generated pair of datasets plus the parameters that shaped it.

    Positions and velocities stay as the ``(2, n)`` arrays the samplers
    drew, so a 1M-object workload generates in seconds and feeds the
    columnar engine (:meth:`columns_a`, :meth:`columns_b`) without a
    Python object per row.  :attr:`set_a` and :attr:`set_b` build the
    object engines' :class:`~repro.objects.MovingObject` lists on each
    access; the scenario keeps none of them.
    """

    oid_a: np.ndarray
    pos_a: np.ndarray
    vel_a: np.ndarray
    oid_b: np.ndarray
    pos_b: np.ndarray
    vel_b: np.ndarray
    distribution: str
    space_size: float
    max_speed: float
    object_side: float
    t_m: float
    seed: int

    @property
    def n_objects(self) -> int:
        """Cardinality of each dataset."""
        return int(self.oid_a.shape[0])

    @property
    def set_a(self) -> List[MovingObject]:
        """Dataset A as a new list of objects (``t_ref = 0``)."""
        return self._objects(self.oid_a, self.pos_a, self.vel_a)

    @property
    def set_b(self) -> List[MovingObject]:
        """Dataset B as a new list of objects (``t_ref = 0``)."""
        return self._objects(self.oid_b, self.pos_b, self.vel_b)

    def _objects(self, oids, pos, vel) -> List[MovingObject]:
        # Row by row: bulk ``tolist()`` copies leave less free heap for
        # forked shard workers to grow into (+1.5 MiB peak RSS at 20k).
        side = self.object_side
        objects = []
        for i in range(oids.shape[0]):
            x, y = float(pos[0, i]), float(pos[1, i])
            box = Box(x, x + side, y, y + side)
            objects.append(
                MovingObject(int(oids[i]), box, float(vel[0, i]), float(vel[1, i]), 0.0)
            )
        return objects

    def columns_a(self) -> UpdateColumns:
        """Dataset A as :class:`~repro.core.columns.UpdateColumns`."""
        return self._columns(self.oid_a, self.pos_a, self.vel_a)

    def columns_b(self) -> UpdateColumns:
        """Dataset B as :class:`~repro.core.columns.UpdateColumns`."""
        return self._columns(self.oid_b, self.pos_b, self.vel_b)

    def _columns(self, oids, pos, vel) -> UpdateColumns:
        return UpdateColumns(
            oid=oids,
            mlo=pos,
            mhi=pos + self.object_side,
            vlo=vel,
            vhi=vel,
            tref=np.zeros(pos.shape[1]),
        )

    def to_scenario(self) -> "Scenario":
        """The scenario itself: an alias the end-to-end benchmark calls,
        to go once the benchmark stops calling it."""
        return self


def make_workload(
    n_objects: int,
    distribution: str = "uniform",
    space_size: float = 1000.0,
    max_speed: float = 2.0,
    object_size_pct: float = 0.1,
    t_m: float = 60.0,
    seed: int = 0,
) -> Scenario:
    """Generate two datasets of ``n_objects`` each.

    ``object_size_pct`` is the object side length as a percentage of the
    space side (Table I: 0.05%–0.8%, default 0.1% → side 1.0 in the
    default 1000-unit domain).  The samplers draw in bulk; only the
    ``road`` distribution pays a per-object sampling loop (its draws are
    inherently sequential).
    """
    if distribution not in DISTRIBUTIONS:
        raise ValueError(f"unknown distribution {distribution!r}")
    if n_objects <= 0:
        raise ValueError("n_objects must be positive")
    if not 0 < object_size_pct < 100:
        raise ValueError("object_size_pct must be in (0, 100)")
    rng = np.random.default_rng(seed)
    side = space_size * object_size_pct / 100.0
    if distribution == "uniform":
        positions_a = _uniform_positions(rng, n_objects, space_size, side)
        positions_b = _uniform_positions(rng, n_objects, space_size, side)
        velocities_a = _random_velocities(rng, n_objects, max_speed)
        velocities_b = _random_velocities(rng, n_objects, max_speed)
    elif distribution == "gaussian":
        positions_a = _gaussian_positions(rng, n_objects, space_size, side)
        positions_b = _gaussian_positions(rng, n_objects, space_size, side)
        velocities_a = _random_velocities(rng, n_objects, max_speed)
        velocities_b = _random_velocities(rng, n_objects, max_speed)
    elif distribution == "battlefield":
        positions_a = _battlefield_positions(rng, n_objects, space_size, side, left=True)
        positions_b = _battlefield_positions(rng, n_objects, space_size, side, left=False)
        velocities_a = _homing_velocities(rng, n_objects, max_speed, toward_positive_x=True)
        velocities_b = _homing_velocities(rng, n_objects, max_speed, toward_positive_x=False)
    else:  # road network
        positions_a, velocities_a = _road_placement(rng, n_objects, space_size, side, max_speed)
        positions_b, velocities_b = _road_placement(rng, n_objects, space_size, side, max_speed)
    return Scenario(
        oid_a=np.arange(n_objects, dtype=np.int64),
        pos_a=np.ascontiguousarray(positions_a.T),
        vel_a=np.ascontiguousarray(velocities_a.T),
        oid_b=np.arange(
            _B_ID_OFFSET, _B_ID_OFFSET + n_objects, dtype=np.int64
        ),
        pos_b=np.ascontiguousarray(positions_b.T),
        vel_b=np.ascontiguousarray(velocities_b.T),
        distribution=distribution,
        space_size=space_size,
        max_speed=max_speed,
        object_side=side,
        t_m=t_m,
        seed=seed,
    )


#: The end-to-end benchmark's name for :func:`make_workload`.
make_workload_arrays = make_workload


def uniform_workload(n_objects: int, seed: int = 0, **kwargs) -> Scenario:
    """Uniform-distribution workload (the paper's default)."""
    return make_workload(n_objects, "uniform", seed=seed, **kwargs)


def gaussian_workload(n_objects: int, seed: int = 0, **kwargs) -> Scenario:
    """Gaussian-distribution workload."""
    return make_workload(n_objects, "gaussian", seed=seed, **kwargs)


def battlefield_workload(n_objects: int, seed: int = 0, **kwargs) -> Scenario:
    """Battlefield workload: opposing clusters converging."""
    return make_workload(n_objects, "battlefield", seed=seed, **kwargs)


def road_network_workload(n_objects: int, seed: int = 0, **kwargs) -> Scenario:
    """Road-network workload: objects confined to a grid of roads.

    An extension beyond the paper's three distributions: vehicles sit on
    one of :data:`ROAD_GRID` horizontal or vertical roads and move along
    it; the update stream lets them turn at intersections.  Produces the
    strong 1-d velocity skew typical of traffic workloads.
    """
    return make_workload(n_objects, "road", seed=seed, **kwargs)


# ----------------------------------------------------------------------
# Position / velocity samplers
# ----------------------------------------------------------------------
def _uniform_positions(
    rng: np.random.Generator, n: int, space: float, side: float
) -> np.ndarray:
    return rng.uniform(0.0, space - side, size=(n, 2))


def _gaussian_positions(
    rng: np.random.Generator, n: int, space: float, side: float
) -> np.ndarray:
    center = space / 2.0
    sigma = space / 8.0
    positions = rng.normal(center, sigma, size=(n, 2))
    return np.clip(positions, 0.0, space - side)


def _battlefield_positions(
    rng: np.random.Generator, n: int, space: float, side: float, left: bool
) -> np.ndarray:
    """Cluster near one vertical edge, spread across the full height."""
    band = space * 0.2
    x_lo = 0.0 if left else space - band - side
    x = rng.uniform(x_lo, x_lo + band, size=n)
    y = rng.uniform(0.0, space - side, size=n)
    return np.column_stack([x, y])


def _random_velocities(
    rng: np.random.Generator, n: int, max_speed: float
) -> np.ndarray:
    """Uniform random direction, speed uniform in ``(0, max_speed]``."""
    angles = rng.uniform(0.0, 2 * math.pi, size=n)
    speeds = rng.uniform(0.0, max_speed, size=n)
    return np.column_stack([speeds * np.cos(angles), speeds * np.sin(angles)])


def _homing_velocities(
    rng: np.random.Generator, n: int, max_speed: float, toward_positive_x: bool
) -> np.ndarray:
    """Velocities aimed at the opposing side with angular jitter."""
    base = 0.0 if toward_positive_x else math.pi
    angles = base + rng.uniform(-math.pi / 4, math.pi / 4, size=n)
    speeds = rng.uniform(0.25 * max_speed, max_speed, size=n)
    return np.column_stack([speeds * np.cos(angles), speeds * np.sin(angles)])


def _road_placement(
    rng: np.random.Generator,
    n: int,
    space: float,
    side: float,
    max_speed: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """Positions on grid roads with along-road velocities."""
    spacing = space / ROAD_GRID
    positions = np.empty((n, 2))
    velocities = np.zeros((n, 2))
    for i in range(n):
        road = int(rng.integers(0, ROAD_GRID))
        offset = min(road * spacing + spacing / 2, space - side)
        along = float(rng.uniform(0.0, space - side))
        speed = float(rng.uniform(0.1 * max_speed, max_speed))
        direction = 1.0 if rng.random() < 0.5 else -1.0
        if rng.random() < 0.5:  # horizontal road: fixed y, move along x
            positions[i] = (along, offset)
            velocities[i] = (direction * speed, 0.0)
        else:                   # vertical road: fixed x, move along y
            positions[i] = (offset, along)
            velocities[i] = (0.0, direction * speed)
    return positions, velocities

