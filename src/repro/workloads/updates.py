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
from typing import Iterator, List, Optional, Tuple

import numpy as np

from ..core.columns import UpdateColumns
from ..objects import MovingObject
from .generator import ROAD_GRID, Scenario

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

    One object at a time: the draw order (speed, direction, turn) is
    part of the seeded stream, pinned by the stream digests.
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
    """Deterministic per-timestamp update batches for a scenario.

    The stream keeps every object's current motion itself, as arrays,
    and draws a tick's batch in bulk: the due objects, then their
    speeds, battlefield jitter and roam angles, then their reschedule
    offsets (``road`` objects draw their kinematics one by one with
    :func:`_road_motion`).  So a tick over a million objects costs
    milliseconds, and a seed fixes every batch.

    The ticks must be read in increasing order, one view per tick:
    :meth:`updates_at` gives a tick's column batches for
    ``apply_update_columns``; :meth:`by_timestamp` gives the same
    updates as objects for the object engines.
    """

    def __init__(self, scenario: Scenario, seed: int = 1):
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
    def updates_at(self, t: float) -> Tuple[UpdateColumns, UpdateColumns]:
        """Column batches ``(upd_a, upd_b)`` due at timestamp ``t``.

        Each batch is an :class:`~repro.core.columns.UpdateColumns` with
        ``tref == t`` throughout; the stream's own state advances so the
        next tick extrapolates from these versions.
        """
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

    def by_timestamp(
        self, t_start: float = 1.0, t_end: Optional[float] = None
    ) -> Iterator[Tuple[float, List[MovingObject]]]:
        """Yield ``(t, objects)`` for the whole timestamps ``t_start,
        t_start + 1, …``: :meth:`updates_at`'s batches as
        :class:`~repro.objects.MovingObject` instances, A's then B's,
        each with ``t_ref == t`` (possibly none).  Unbounded when
        ``t_end`` is ``None`` — pair with ``islice``.
        """
        t = float(t_start)
        while t_end is None or t <= t_end:
            upd_a, upd_b = self.updates_at(t)
            yield t, upd_a.objects() + upd_b.objects()
            t += 1.0

    def _new_velocities(self, rows: np.ndarray, pos: np.ndarray) -> np.ndarray:
        """Bulk velocity resampling: battlefield objects charge the
        opposing side until past the middle, everyone else roams with
        wall bounce."""
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
        # homing rows are overridden below).
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


#: The end-to-end benchmark's name for :class:`UpdateStream`.
VectorUpdateStream = UpdateStream
