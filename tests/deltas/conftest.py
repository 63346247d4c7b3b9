"""Shared workload recipe for the delta-stream suites.

The delta tests need a workload that actually *exercises* the stream:
enough intersecting pairs that every tick nets both additions (fresh
re-probes) and removals (invalidations), so a fold that silently drops
one sign of event cannot pass by vacuity.  The parameters below give
~16 initial pairs and roughly 7-23 netted events per tick; the
``assert_busy`` helper makes the non-vacuity explicit in each suite.
"""

from __future__ import annotations

from repro.workloads import UpdateStream, make_workload

T_M = 8.0
T_END = 4.0


def delta_workload(n: int = 60, seed: int = 7):
    """A dense-enough uniform scenario (``.set_a`` / ``.set_b``)."""
    return make_workload(
        n, "uniform", max_speed=5.0, object_size_pct=3.0, t_m=T_M, seed=seed
    )


def delta_batches(scenario, seed: int = 8, t_end: float = T_END):
    """The ``(t, batch)`` update feed every engine variant replays."""
    stream = UpdateStream(scenario, seed=seed)
    return list(stream.by_timestamp(t_start=1.0, t_end=t_end))


def plane_rows(planes):
    """``(sign, a, b, lo, hi)`` planes as a list of plain-scalar rows."""
    return list(zip(*(plane.tolist() for plane in planes)))


def assert_busy(streams) -> None:
    """Guard against vacuous runs: both event signs must have fired.

    ``streams`` maps tick -> netted event tuple.  A workload tweak that
    silently produces an empty join would otherwise turn every
    replay-equivalence assertion into ``{} == {}``.
    """
    events = [ev for stream in streams.values() for ev in stream]
    assert any(ev.sign > 0 for ev in events), "workload produced no additions"
    assert any(ev.sign < 0 for ev in events), "workload produced no removals"
