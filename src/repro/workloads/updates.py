"""The update stream: who updates when, and with what new motion.

The paper's maintenance experiments keep updating the trees: "at every
timestamp, we randomly change directions or speed of some objects…
every object is required to be updated at least once during the maximum
update interval ``T_M``" (§VI-A).

:class:`UpdateStream` reproduces that contract.  Every object carries a
next-due timestamp drawn uniformly from ``[1, T_M]``; when it fires, the
object reports from its *actual* (extrapolated) position with freshly
sampled velocity, and is rescheduled another ``uniform[1, T_M]`` ahead —
so expected update spacing is ``T_M/2`` and the ``T_M`` bound always
holds.  Objects bounce off the domain walls so the simulation remains
stationary over long runs.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

import numpy as np

from ..objects import MovingObject
from .generator import ROAD_GRID, ArrayScenario, Scenario

__all__ = ["UpdateStream", "VectorUpdateStream"]


def _road_motion(
    rng: np.random.Generator,
    x: float,
    y: float,
    space: float,
    side: float,
    max_speed: float,
) -> "tuple[float, float, float, float]":
    """Road-network kinematics: continue along the road or turn at the
    nearest intersection onto the crossing road.

    Shared by :class:`UpdateStream` and :class:`VectorUpdateStream`; the
    draw order (speed, direction, turn) is part of the seeded-stream
    contract and is pinned by the workload regression fixture.
    """
    spacing = space / ROAD_GRID

    def snap(value: float) -> float:
        road = round((value - spacing / 2) / spacing)
        road = min(max(road, 0), ROAD_GRID - 1)
        return min(road * spacing + spacing / 2, space - side)

    speed = float(rng.uniform(0.1 * max_speed, max_speed))
    direction = 1.0 if rng.random() < 0.5 else -1.0
    turn = rng.random() < 0.3
    # Current travel axis: the coordinate that is *not* snapped to a
    # road centerline is the along-road one; infer from proximity.
    on_horizontal = abs(snap(y) - y) <= abs(snap(x) - x)
    if turn:
        # Move to the nearest intersection, proceed on the crossing
        # road.
        x, y = snap(x), snap(y)
        on_horizontal = not on_horizontal
    if on_horizontal:
        y = snap(y)
        if x <= 0.0:
            direction = 1.0
        elif x >= space - side:
            direction = -1.0
        return x, y, direction * speed, 0.0
    x = snap(x)
    if y <= 0.0:
        direction = 1.0
    elif y >= space - side:
        direction = -1.0
    return x, y, 0.0, direction * speed


def _check_t_m(t_m: float) -> float:
    """The stream's ``T_M``: due dates are whole timestamps drawn from
    ``[1, int(T_M)]``, so an update stream needs ``T_M >= 1``."""
    if not (math.isfinite(t_m) and t_m >= 1):
        raise ValueError(f"an update stream needs a finite t_m >= 1, got t_m={t_m}")
    return t_m


class UpdateStream:
    """Deterministic per-timestamp update batches for a scenario."""

    def __init__(self, scenario: Scenario, seed: int = 1):
        self.scenario = scenario
        self.t_m = _check_t_m(scenario.t_m)
        self.space = scenario.space_size
        self.side = scenario.object_side
        self.max_speed = scenario.max_speed
        self._rng = np.random.default_rng(seed)
        self._due: Dict[int, float] = {}
        for obj in list(scenario.set_a) + list(scenario.set_b):
            self._due[obj.oid] = float(self._rng.integers(1, int(self.t_m) + 1))
        self._homing = scenario.distribution == "battlefield"
        self._road = scenario.distribution == "road"
        self._a_ids = {o.oid for o in scenario.set_a}

    # ------------------------------------------------------------------
    def updates_for(
        self, t: float, current: Mapping[int, MovingObject]
    ) -> List[MovingObject]:
        """Updates due at timestamp ``t``.

        ``current`` maps object id → version currently stored by the
        management system; positions are extrapolated from it.  Each
        returned object has ``t_ref == t`` and is rescheduled.
        """
        batch: List[MovingObject] = []
        for oid, due in self._due.items():
            if due > t:
                continue
            obj = current[oid]
            batch.append(self._reissue(obj, t))
            self._due[oid] = t + float(self._rng.integers(1, int(self.t_m) + 1))
        return batch

    def by_timestamp(
        self,
        t_start: float = 1.0,
        t_end: Optional[float] = None,
        current: Optional[Mapping[int, MovingObject]] = None,
    ) -> Iterator[Tuple[float, List[MovingObject]]]:
        """Yield ``(t, batch)`` same-tick update groups, one per whole
        timestamp ``t_start, t_start + 1, …``.

        This is the group-commit feed: each batch holds every update due
        at that timestamp (possibly empty), with ``t_ref == t``, exactly
        as :meth:`updates_for` would emit them when driven tick by tick.
        The stream tracks the evolving object versions itself (seeded
        from the scenario, or from ``current`` when the caller's system
        starts elsewhere), so consumers only need to apply the batches.
        Unbounded when ``t_end`` is ``None`` — pair with ``islice``.
        """
        state: Dict[int, MovingObject] = (
            dict(current)
            if current is not None
            else {
                o.oid: o
                for o in list(self.scenario.set_a) + list(self.scenario.set_b)
            }
        )
        t = float(t_start)
        while t_end is None or t <= t_end:
            batch = self.updates_for(t, state)
            for obj in batch:
                state[obj.oid] = obj
            yield t, batch
            t += 1.0

    # ------------------------------------------------------------------
    def _reissue(self, obj: MovingObject, t: float) -> MovingObject:
        """New motion parameters reported from the extrapolated position."""
        mbr = obj.mbr_at(t)
        # Keep the object inside the domain: clamp and bounce.
        x = min(max(mbr.x_lo, 0.0), self.space - self.side)
        y = min(max(mbr.y_lo, 0.0), self.space - self.side)
        if self._road:
            x, y, vx, vy = self._road_motion(x, y)
        else:
            vx, vy = self._new_velocity(obj.oid, x, y)
        from ..geometry import Box

        return MovingObject(
            obj.oid, Box(x, x + self.side, y, y + self.side), vx, vy, t_ref=t
        )

    def _road_motion(self, x: float, y: float) -> "tuple[float, float, float, float]":
        return _road_motion(
            self._rng, x, y, self.space, self.side, self.max_speed
        )

    def _new_velocity(self, oid: int, x: float, y: float) -> "tuple[float, float]":
        rng = self._rng
        speed = float(rng.uniform(0.0, self.max_speed))
        if self._homing:
            # Battlefield objects keep charging the opposing side until
            # they cross the middle, then roam.
            toward_positive = oid in self._a_ids
            past_middle = (x > self.space * 0.6) if toward_positive else (
                x < self.space * 0.4
            )
            if not past_middle:
                base = 0.0 if toward_positive else math.pi
                angle = base + float(rng.uniform(-math.pi / 4, math.pi / 4))
                return speed * math.cos(angle), speed * math.sin(angle)
        angle = float(rng.uniform(0.0, 2 * math.pi))
        vx = speed * math.cos(angle)
        vy = speed * math.sin(angle)
        # Bounce: aim inward when hugging a wall.
        if x <= 0.0:
            vx = abs(vx)
        elif x >= self.space - self.side:
            vx = -abs(vx)
        if y <= 0.0:
            vy = abs(vy)
        elif y >= self.space - self.side:
            vy = -abs(vy)
        return vx, vy


class VectorUpdateStream:
    """Array-native update stream for :class:`ArrayScenario` workloads.

    Same *contract* as :class:`UpdateStream` — every object updates at
    least once per ``T_M``, reports from its extrapolated position with
    freshly sampled velocity, bounces off the walls — but the due-date
    bookkeeping and velocity resampling are whole-batch NumPy, so a tick
    over a million objects costs milliseconds instead of a Python loop.

    The draw *order* differs from the legacy scalar stream (bulk draws
    per tick: speeds, then battlefield jitter, then roam angles, then
    reschedule offsets), so batches are deterministic per seed but not
    byte-equal to :class:`UpdateStream`; the legacy stream stays pinned
    by its own fixture.  The ``road`` distribution falls back to the
    shared scalar :func:`_road_motion` kinematics per due object.

    The stream tracks the evolving object state itself; each call to
    :meth:`updates_at` returns ``(upd_a, upd_b)`` column batches ready
    for ``ColumnarJoinEngine.apply_update_columns``.
    """

    def __init__(self, scenario: ArrayScenario, seed: int = 1):
        self.scenario = scenario
        self.t_m = _check_t_m(scenario.t_m)
        self.space = scenario.space_size
        self.side = scenario.object_side
        self.max_speed = scenario.max_speed
        self._rng = np.random.default_rng(seed)
        n = scenario.n_objects
        self._n_a = n
        self._oid = np.concatenate([scenario.oid_a, scenario.oid_b])
        self._pos = np.concatenate([scenario.pos_a, scenario.pos_b], axis=1).copy()
        self._vel = np.concatenate([scenario.vel_a, scenario.vel_b], axis=1).copy()
        self._tref = np.zeros(2 * n)
        self._due = self._rng.integers(1, int(self.t_m) + 1, size=2 * n).astype(float)
        self._homing = scenario.distribution == "battlefield"
        self._road = scenario.distribution == "road"

    # ------------------------------------------------------------------
    def updates_at(self, t: float):
        """Column batches ``(upd_a, upd_b)`` due at timestamp ``t``.

        Each batch is an :class:`~repro.core.columns.UpdateColumns` with
        ``tref == t`` throughout; the stream's own state advances so the
        next tick extrapolates from these versions.
        """
        from ..core.columns import UpdateColumns

        rows = np.flatnonzero(self._due <= t)
        k = rows.size
        if k:
            dt = t - self._tref[rows]
            pos = self._pos[:, rows] + self._vel[:, rows] * dt
            np.clip(pos, 0.0, self.space - self.side, out=pos)
            if self._road:
                vel = np.empty((2, k))
                for j in range(k):
                    x, y, vx, vy = _road_motion(
                        self._rng, float(pos[0, j]), float(pos[1, j]),
                        self.space, self.side, self.max_speed,
                    )
                    pos[0, j], pos[1, j] = x, y
                    vel[0, j], vel[1, j] = vx, vy
            else:
                vel = self._new_velocities(rows, pos)
            self._pos[:, rows] = pos
            self._vel[:, rows] = vel
            self._tref[rows] = t
            self._due[rows] = t + self._rng.integers(
                1, int(self.t_m) + 1, size=k
            ).astype(float)
        else:
            pos = np.empty((2, 0))
            vel = np.empty((2, 0))

        def batch(sel: np.ndarray) -> UpdateColumns:
            p = np.ascontiguousarray(pos[:, sel])
            v = np.ascontiguousarray(vel[:, sel])
            return UpdateColumns(
                oid=self._oid[rows[sel]],
                mlo=p,
                mhi=p + self.side,
                vlo=v,
                vhi=v,
                tref=np.full(p.shape[1], float(t)),
            )

        in_a = rows < self._n_a
        return batch(in_a), batch(~in_a)

    def _new_velocities(self, rows: np.ndarray, pos: np.ndarray) -> np.ndarray:
        """Bulk velocity resampling mirroring ``UpdateStream`` semantics:
        battlefield objects charge the opposing side until past the
        middle, everyone else roams with wall bounce."""
        rng = self._rng
        k = rows.size
        x = pos[0]
        speeds = rng.uniform(0.0, self.max_speed, size=k)
        if self._homing:
            toward_pos = rows < self._n_a
            jitter = rng.uniform(-math.pi / 4, math.pi / 4, size=k)
        angles = rng.uniform(0.0, 2 * math.pi, size=k)
        vx = speeds * np.cos(angles)
        vy = speeds * np.sin(angles)
        # Bounce: aim inward when hugging a wall (roaming rows only —
        # homing rows are overridden below, as in the scalar stream).
        hi = self.space - self.side
        vx = np.where(x <= 0.0, np.abs(vx), np.where(x >= hi, -np.abs(vx), vx))
        y = pos[1]
        vy = np.where(y <= 0.0, np.abs(vy), np.where(y >= hi, -np.abs(vy), vy))
        if self._homing:
            past_middle = np.where(
                toward_pos, x > self.space * 0.6, x < self.space * 0.4
            )
            base = np.where(toward_pos, 0.0, math.pi)
            charge = ~past_middle
            hx = speeds * np.cos(base + jitter)
            hy = speeds * np.sin(base + jitter)
            vx = np.where(charge, hx, vx)
            vy = np.where(charge, hy, vy)
        return np.vstack([vx, vy])
