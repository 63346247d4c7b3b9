"""Clock-driven simulation: engine + update stream + cost bookkeeping.

:class:`SimulationDriver` advances discrete timestamps, pulls the due
updates from an :class:`~repro.workloads.UpdateStream`, feeds them to a
join engine, and records per-step costs.  The maintenance experiments (paper §VI-D.2) are this loop,
amortized over the number of updates.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, NamedTuple, Optional

from ..metrics import CostSnapshot

if TYPE_CHECKING:  # repro.workloads imports repro.core at load time
    from ..workloads import UpdateStream

__all__ = ["StepStats", "SimulationDriver"]


class StepStats(NamedTuple):
    """What one simulated timestamp cost."""

    timestamp: float
    n_updates: int
    cost: CostSnapshot
    result_size: int


class SimulationDriver:
    """Runs a continuous join forward in time, one timestamp per step.

    Each step's due updates go to the engine as the stream's columns
    when it has ``apply_update_columns`` (the columnar and sharded
    engines group-commit the tick), and otherwise as objects to
    ``apply_updates``: the tree engine applies them one object at a time
    (the paper's per-update maintenance, so the recorded costs are
    per-update costs).
    """

    def __init__(self, engine, stream: "UpdateStream"):
        self.engine = engine
        self.stream = stream
        self.history: List[StepStats] = []

    def step(self) -> StepStats:
        """Advance one timestamp: tick the clock, apply due updates."""
        engine = self.engine
        t = engine.now + 1.0
        before = engine.tracker.snapshot()
        engine.tick(t)
        upd_a, upd_b = self.stream.updates_at(t)
        if hasattr(engine, "apply_update_columns"):
            engine.apply_update_columns(upd_a, upd_b)
        else:
            engine.apply_updates(upd_a.objects() + upd_b.objects())
        cost = engine.tracker.snapshot() - before
        stats = StepStats(t, len(upd_a) + len(upd_b), cost, len(engine.result_at(t)))
        self.history.append(stats)
        return stats

    def run(
        self,
        n_steps: int,
        on_step: Optional[Callable[[StepStats], None]] = None,
    ) -> List[StepStats]:
        """Run ``n_steps`` timestamps; returns their stats."""
        stats = []
        for _ in range(n_steps):
            step_stats = self.step()
            stats.append(step_stats)
            if on_step is not None:
                on_step(step_stats)
        return stats

    # ------------------------------------------------------------------
    def total_updates(self) -> int:
        return sum(s.n_updates for s in self.history)

    def amortized_cost(self) -> CostSnapshot:
        """Total maintenance cost divided by the number of updates."""
        total = CostSnapshot(0, 0, 0, 0, 0.0)
        for s in self.history:
            total = CostSnapshot(
                total.page_reads + s.cost.page_reads,
                total.page_writes + s.cost.page_writes,
                total.pair_tests + s.cost.pair_tests,
                total.node_visits + s.cost.node_visits,
                total.cpu_seconds + s.cost.cpu_seconds,
            )
        updates = max(1, self.total_updates())
        return total.scaled(updates)
