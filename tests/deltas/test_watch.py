"""Subscription layer: filtered, exactly-once delivery over the stream.

``engine.watch()`` hands out poll-cursors; the contract under test is
exactly-once delivery of *closed* ticks (the open tick's net can still
change, so it is withheld unless flushed), oid/region filtering, and
the current-state queries answered through the result store's inverted
index.
"""

from __future__ import annotations

import pytest

from repro.core import ColumnarJoinEngine, ContinuousJoinEngine, JoinConfig
from repro.deltas import DeltaSubscription
from repro.geometry import Box
from repro.par import ShardedJoinEngine

from .conftest import T_M, delta_batches, delta_workload

EVERYWHERE = Box(-1e9, 1e9, -1e9, 1e9)


def build():
    scenario = delta_workload()
    engine = ContinuousJoinEngine(
        scenario.set_a,
        scenario.set_b,
        "mtb",
        JoinConfig(t_m=T_M, node_capacity=8, deltas=True),
    )
    engine.run_initial_join()
    return scenario, engine


def run_ticks(scenario, engine, t_end=2.0):
    for t, batch in delta_batches(scenario, t_end=t_end):
        engine.tick(t)
        for obj in batch:
            engine.apply_update(obj)


class TestPolling:
    def test_each_closed_tick_delivered_exactly_once(self):
        scenario, engine = build()
        sub = engine.watch()
        run_ticks(scenario, engine)
        first = sub.poll()
        # Ticks 0.0 and 1.0 are closed; the open tick 2.0 is withheld.
        assert {ev.tick for ev in first} == {0.0, 1.0}
        assert first == [
            ev for t in (0.0, 1.0) for ev in engine.deltas(t)
        ]
        assert sub.poll() == []  # nothing new: exactly-once

    def test_open_tick_flushes_on_request(self):
        scenario, engine = build()
        sub = engine.watch()
        run_ticks(scenario, engine)
        sub.poll()
        flushed = sub.poll(include_open=True)
        assert flushed == list(engine.deltas(engine.now))
        assert {ev.tick for ev in flushed} == {engine.now}

    def test_open_tick_delivered_once_closed(self):
        scenario, engine = build()
        sub = engine.watch()
        run_ticks(scenario, engine, t_end=1.0)
        before = sub.poll()
        assert {ev.tick for ev in before} == {0.0}
        open_events = engine.deltas(1.0)
        engine.tick(2.0)  # closes tick 1.0
        assert sub.poll() == list(open_events)

    def test_late_subscriber_still_sees_history(self):
        """The stream is a ledger, not a live feed: a cursor opened
        after the fact replays every closed tick from t=0."""
        scenario, engine = build()
        run_ticks(scenario, engine)
        early = [ev for t in (0.0, 1.0) for ev in engine.deltas(t)]
        assert engine.watch().poll() == early


class TestFilters:
    def test_oid_filter_selects_the_pairs_touching_it(self):
        scenario, engine = build()
        run_ticks(scenario, engine)
        everything = engine.watch().poll()
        oid = everything[0].a_oid
        matched = engine.watch(oid=oid).poll()
        assert matched == [
            ev for ev in everything if oid in (ev.a_oid, ev.b_oid)
        ]
        assert matched  # non-vacuous by construction

    def test_region_filter_everywhere_matches_all(self):
        scenario, engine = build()
        run_ticks(scenario, engine)
        assert engine.watch(region=EVERYWHERE).poll() == engine.watch().poll()

    def test_region_filter_nowhere_matches_nothing(self):
        scenario, engine = build()
        run_ticks(scenario, engine)
        faraway = Box(1e6, 1e6 + 1, 1e6, 1e6 + 1)
        assert engine.watch(region=faraway).poll() == []

    def test_region_scope_resolves_at_poll_time(self):
        """The same subscription narrows with the clock: objects drift
        and the region's oid set is re-resolved on every poll."""
        scenario, engine = build()
        sub = engine.watch(region=EVERYWHERE)
        run_ticks(scenario, engine)
        scoped = engine._region_oids(EVERYWHERE)
        assert scoped  # everything is in the all-space region
        assert sub.poll() == engine.watch().poll()

    def test_current_pairs_is_the_inverted_index(self):
        scenario, engine = build()
        run_ticks(scenario, engine)
        store = engine._strategy.store
        some_pair = next(iter(store.interval_rows()))
        oid = some_pair[0]
        assert engine.watch(oid=oid).current_pairs() == store.pairs_for_object(
            oid
        )
        union = engine.watch(region=EVERYWHERE).current_pairs()
        assert union == set(store.interval_rows())


class TestRegionResolvers:
    """The columnar and sharded engines resolve a region through one
    vectorized ``ColumnStore.oids_in``; the tree engine's per-object
    ``mbr_at(now).intersects(region)`` loop is the reference."""

    def engines(self):
        scenario = delta_workload()
        config = JoinConfig(t_m=T_M, node_capacity=8, deltas=True)
        engines = [
            ContinuousJoinEngine(scenario.set_a, scenario.set_b, "mtb", config),
            ColumnarJoinEngine(scenario.set_a, scenario.set_b, "mtb", config),
            ShardedJoinEngine(scenario.set_a, scenario.set_b, "mtb", config, shards=2),
        ]
        for engine in engines:
            engine.run_initial_join()
        for t, batch in delta_batches(scenario, t_end=3.0):
            for engine in engines:
                engine.tick(t)
                engine.apply_updates(batch)
        return engines

    def test_touching_straddling_and_empty_regions_agree(self):
        tree, columnar, sharded = self.engines()
        now = tree.now
        # A moved object, so `lo + v * (now - tref)` has rounding to match.
        probe = next(
            obj for obj in tree.objects_a.values()
            if obj.t_ref < now and obj.velocity != (0.0, 0.0)
        )
        box = probe.mbr_at(now)
        x_lo, x_hi, y_lo, y_hi = box.bounds
        eps = 1e-9
        regions = {
            # shares exactly one edge / one corner with the probe's box
            "touching-edge": Box(x_hi, x_hi + 5.0, y_lo, y_hi),
            "touching-corner": Box(x_lo - 5.0, x_lo, y_lo - 5.0, y_lo),
            # the same regions pulled a hair away: must drop the probe
            "off-edge": Box(x_hi + eps, x_hi + 5.0, y_lo, y_hi),
            "off-corner": Box(x_lo - 5.0, x_lo - eps, y_lo - 5.0, y_lo - eps),
            "straddling": Box(x_lo - 40.0, x_hi + 40.0, y_lo - 40.0, y_hi + 40.0),
            "inside": Box(x_lo + eps, x_hi - eps, y_lo + eps, y_hi - eps),
            "empty": Box(1e6, 1e6 + 1, 1e6, 1e6 + 1),
            "everywhere": EVERYWHERE,
        }
        for name, region in regions.items():
            want = tree._region_oids(region)
            assert columnar._region_oids(region) == want, name
            assert sharded._region_oids(region) == want, name
            assert (probe.oid in want) == (not name.startswith(("off", "empty"))), name
        assert len(tree._region_oids(regions["straddling"])) > 1
        sharded.close()


class TestApiEdges:
    def test_oid_and_region_together_rejected(self):
        _scenario, engine = build()
        with pytest.raises(ValueError, match="not both"):
            engine.watch(oid=1, region=EVERYWHERE)

    def test_region_without_resolver_rejected(self):
        with pytest.raises(ValueError, match="resolver"):
            DeltaSubscription(object(), region=EVERYWHERE)

    def test_unfiltered_current_pairs_rejected(self):
        _scenario, engine = build()
        with pytest.raises(RuntimeError, match="oid= or region="):
            engine.watch().current_pairs()
