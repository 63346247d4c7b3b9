"""Subscription layer: filtered, exactly-once delivery over the stream.

``engine.watch()`` hands out poll-cursors; the contract under test is
exactly-once delivery of *closed* ticks (the open tick's net can still
change, so it is withheld until the clock moves past it) and oid/region
filtering.
"""

from __future__ import annotations

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.core import ColumnarJoinEngine, ContinuousJoinEngine, JoinConfig
from repro.deltas import DeltaLedger, DeltaSubscription, DeltaView, fold_events
from repro.deltas.ledger import events_from_planes
from repro.geometry import Box

from ..reference_store import record_row
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
        after the fact replays every retained closed tick (here every
        one from t=0: two closed ticks leave nothing to fold)."""
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
        assert scoped.size  # everything is in the all-space region
        assert sub.poll() == engine.watch().poll()

class LoopCursor:
    """The per-event loop ``poll`` used to be, kept as its oracle: walk
    every event of every tick closed after the cursor tick, test it
    against a set."""

    def __init__(self, source, scope_of):
        self.source = source
        self.scope_of = scope_of  # () -> set of oids, or None for all
        self.cursor = -float("inf")

    def poll(self):
        ticks = [t for t in self.source.ticks() if t > self.cursor and t < self.source.now]
        scope = self.scope_of()
        matched = [
            event
            for t in ticks
            for event in self.source.events_at(t)
            if scope is None or event.a_oid in scope or event.b_oid in scope
        ]
        if ticks:
            self.cursor = ticks[-1]
        return matched


class TestPollAgainstTheLoop:
    """Mask-filtered polls over the columnar and tree engines' ledgers
    deliver what the per-event loop delivers: oid, region and
    unfiltered watches, single ticks and backlogs, repeated polls, the
    last tick once the clock has moved past it."""

    REGION = Box(300.0, 700.0, 300.0, 700.0)

    def engines(self):
        scenario = delta_workload()
        config = JoinConfig(t_m=T_M, node_capacity=8, deltas=True)
        columnar = ColumnarJoinEngine(scenario.set_a, scenario.set_b, "mtb", config)
        tree = ContinuousJoinEngine(scenario.set_a, scenario.set_b, "mtb", config)
        return scenario, [(columnar, columnar.ledger), (tree, tree.ledger)]

    def watches(self, engine, source, oids):
        """(label, subscription, oracle) per filter."""
        pairs = [
            ("all", engine.watch(), LoopCursor(source, lambda: None)),
            (
                "region",
                engine.watch(region=self.REGION),
                LoopCursor(source, lambda: set(engine._region_oids(self.REGION).tolist())),
            ),
        ]
        for oid in oids:
            pairs.append((f"oid={oid}", engine.watch(oid=oid), LoopCursor(source, lambda oid=oid: {oid})))
        return pairs

    def test_every_poll_equals_the_loop(self):
        scenario, engines = self.engines()
        batches = delta_batches(scenario, t_end=8.0)
        #: Ticks after which everyone polls: once, after a backlog of
        #: three, twice in a row (the second must come back empty).
        poll_after = {1.0: 1, 4.0: 1, 5.0: 2, 7.0: 1}
        for engine, source in engines:
            assert type(source) is DeltaLedger
            engine.run_initial_join()
            # One id per side that the stream touches, one it never will.
            initial = source.events_at(0.0)
            oids = [initial[0].a_oid, initial[-1].b_oid, -1]
            watches = self.watches(engine, source, oids)
            seen = {label: [] for label, _, _ in watches}
            for t, batch in batches:
                engine.tick(t)
                engine.apply_updates(batch)
                for repeat in range(poll_after.get(t, 0)):
                    for label, sub, oracle in watches:
                        got = sub.poll()
                        assert got == oracle.poll(), (label, t)
                        assert not (repeat and got), (label, t)
                        seen[label] += got
            engine.tick(t + 1.0)  # closes the last tick of the stream
            for label, sub, oracle in watches:
                last = sub.poll()
                assert last == oracle.poll(), label
                assert {ev.tick for ev in last} <= {7.0, 8.0}, label
                assert sub.poll() == [], label
                seen[label] += last
            # Exactly once: the unfiltered watch saw a stream that folds
            # onto the store (the ledger folded its own behind the
            # cursors), each filtered one its share of it, nothing twice.
            stream = seen["all"]
            view = DeltaView()
            for event in stream:
                view.apply(event)
            assert source.retained_from > 0.0
            store = getattr(engine, "_strategy", engine).store
            assert view.rows() == fold_events(source).rows() == store.interval_rows()
            assert seen["region"] and len(seen["region"]) < len(stream)
            for oid in oids[:2]:
                assert seen[f"oid={oid}"] == [
                    ev for ev in stream if oid in (ev.a_oid, ev.b_oid)
                ]
                assert seen[f"oid={oid}"]  # non-vacuous
            assert seen["oid=-1"] == []

    def test_region_resolved_only_when_a_tick_closed(self):
        """Resolving a region scans both datasets: a poll with nothing
        new to filter must not pay for it."""
        ledger = DeltaLedger(0.0)
        calls = []

        def resolver(region):
            calls.append(region)
            return np.array([1], dtype=np.int64)

        sub = DeltaSubscription(ledger, region=EVERYWHERE, region_oids=resolver)
        record_row(ledger, 1, 1, 2, 0.0, 1.0)
        assert sub.poll() == [] and calls == []  # tick 0 is still open
        ledger.advance(1.0)
        assert [ev.pair for ev in sub.poll()] == [(1, 2)] and len(calls) == 1
        assert sub.poll() == [] and len(calls) == 1
        record_row(ledger, 1, 3, 4, 1.0, 2.0)  # touches nothing in scope
        ledger.advance(2.0)
        assert sub.poll() == [] and len(calls) == 2


def scan_poll(source, oid, cursor):
    """What an oid poll from cursor tick ``cursor`` must deliver: the
    scan filter (one mask over each later closed tick's planes), and the
    new cursor."""
    ticks = [t for t in source.ticks() if t > cursor and t < source.now]
    matched = []
    for t in ticks:
        planes = source.planes_at(t)
        rows = np.flatnonzero((planes[1] == oid) | (planes[2] == oid))
        matched.extend(events_from_planes(t, [plane[rows] for plane in planes]))
    return matched, ticks[-1] if ticks else cursor


#: Oids of both key widths, few enough that rows share them (and that a
#: row pairs an oid with itself).
watch_oids = st.sampled_from([0, 1, 2, 2**40])
watch_rows = st.tuples(
    watch_oids, watch_oids, st.sampled_from([0.0, -0.0, 1.0]), st.sampled_from([1.0, 2.0])
)
watch_script = st.lists(
    st.one_of(
        st.tuples(st.just("record"), st.sampled_from([1, -1]), st.lists(watch_rows, max_size=4)),
        st.tuples(st.just("advance"), st.sampled_from([0.0, 1.0]), st.just(None)),
        st.tuples(st.just("watch"), watch_oids, st.just(None)),
        st.tuples(st.just("poll"), st.integers(0, 7), st.just(None)),
    ),
    max_size=30,
)


@settings(max_examples=300, deadline=None)
@given(script=watch_script)
def test_oid_watches_return_the_scan(script):
    """K oid watches over one ledger — created at any point, polled in
    any order, records arriving between polls of one open tick — each
    return exactly what the scan filter over the closed ticks' planes
    returns, from the planes' shared oid index."""
    ledger = DeltaLedger(0.0)
    watches = []  # (subscription, oid, oracle cursor)
    for op, arg, extra in script:
        if op == "record":
            a, b, lo, hi = zip(*extra) if extra else ((), (), (), ())
            ledger.record_planes(
                arg, np.array(a, dtype=np.int64), np.array(b, dtype=np.int64),
                np.array(lo, dtype=np.float64), np.array(hi, dtype=np.float64),
            )
        elif op == "advance":
            ledger.advance(ledger.now + arg)
        elif op == "watch":
            watches.append([DeltaSubscription(ledger, oid=arg), arg, -float("inf")])
        elif watches:
            watch = watches[arg % len(watches)]
            want, watch[2] = scan_poll(ledger, watch[1], watch[2])
            assert watch[0].poll() == want
    ledger.advance(ledger.now + 1.0)  # closes the open tick
    for watch in watches:
        want, _ = scan_poll(ledger, watch[1], watch[2])
        assert watch[0].poll() == want


class TestRegionResolvers:
    """The columnar engine resolves a region through one vectorized
    ``ColumnStore.oids_in``; the tree engine's per-object
    ``mbr_at(now).intersects(region)`` loop is the reference."""

    def engines(self):
        scenario = delta_workload()
        config = JoinConfig(t_m=T_M, node_capacity=8, deltas=True)
        engines = [
            ContinuousJoinEngine(scenario.set_a, scenario.set_b, "mtb", config),
            ColumnarJoinEngine(scenario.set_a, scenario.set_b, "mtb", config),
        ]
        for engine in engines:
            engine.run_initial_join()
        for t, batch in delta_batches(scenario, t_end=3.0):
            for engine in engines:
                engine.tick(t)
                engine.apply_updates(batch)
        return engines

    def test_touching_straddling_and_empty_regions_agree(self):
        tree, columnar = self.engines()
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
            want = sorted(tree._region_oids(region).tolist())
            assert len(set(want)) == len(want), name
            assert sorted(columnar._region_oids(region).tolist()) == want, name
            assert (probe.oid in want) == (not name.startswith(("off", "empty"))), name
        assert len(tree._region_oids(regions["straddling"])) > 1


class TestApiEdges:
    def test_oid_and_region_together_rejected(self):
        _scenario, engine = build()
        with pytest.raises(ValueError, match="not both"):
            engine.watch(oid=1, region=EVERYWHERE)

    def test_region_without_resolver_rejected(self):
        with pytest.raises(ValueError, match="resolver"):
            DeltaSubscription(object(), region=EVERYWHERE)
