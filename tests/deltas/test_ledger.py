"""Unit contract of the ledger layer: netting, folding, retention.

The stateful model (``tests/test_model.py``) proves the end-to-end
property; this suite pins the pieces it stands on — per-tick netting
and canonical ordering, clock monotonicity and the refusal of a tick
not yet begun, fresh (constant-delay) enumeration, the
event build's pause of the garbage collector, the packed retention of
closed ticks, and the exact-fold error grammar of :class:`DeltaView`.
"""

from __future__ import annotations

import gc
import sys
import types
from contextlib import contextmanager

import numpy as np
import pytest

from repro.core import ColumnarJoinEngine, JoinConfig
from repro.deltas import (
    DeltaEvent,
    DeltaLedger,
    DeltaReplayError,
    DeltaRetentionError,
    DeltaView,
    fold_events,
)
from repro.deltas.ledger import events_from_planes
from repro.geometry import TimeInterval
from repro.join import JoinTriple

from ..check.sanitize import check_delta_ledger
from ..reference_store import JoinResultStore, record_row
from .conftest import T_M, delta_batches, delta_workload


def triple(a, b, start, end):
    return JoinTriple(a, b, TimeInterval(start, end))


# ----------------------------------------------------------------------
# DeltaLedger
# ----------------------------------------------------------------------
class TestLedger:
    def test_bounce_nets_to_nothing(self):
        """Within one tick, remove-then-re-add of the same row is the
        invalidation/re-probe bounce — the net state diff is empty."""
        ledger = DeltaLedger(1.0)
        record_row(ledger, -1, 1, 2, 0.0, 3.0)
        record_row(ledger, 1, 1, 2, 0.0, 3.0)
        assert ledger.events_at(1.0) == ()
        assert len(ledger) == 2  # raw records are kept for diagnostics

    def test_canonical_order_removals_first(self):
        ledger = DeltaLedger(2.0)
        record_row(ledger, 1, 9, 9, 0.0, 1.0)
        record_row(ledger, -1, 1, 2, 0.0, 1.0)
        record_row(ledger, 1, 1, 3, 0.0, 1.0)
        record_row(ledger, -1, 5, 6, 0.0, 1.0)
        events = ledger.events_at(2.0)
        assert [ev.sign for ev in events] == [-1, -1, 1, 1]
        assert [ev.pair for ev in events] == [(1, 2), (5, 6), (1, 3), (9, 9)]

    def test_double_add_survives_netting(self):
        """A double add (store-hook bug) must reach the fold as two
        events so SC703 can catch it, not vanish in the netting."""
        ledger = DeltaLedger(0.0)
        record_row(ledger, 1, 1, 2, 0.0, 3.0)
        record_row(ledger, 1, 1, 2, 0.0, 3.0)
        events = ledger.events_at(0.0)
        assert len(events) == 2
        with pytest.raises(DeltaReplayError, match="duplicate add"):
            fold_events(ledger)

    def test_advance_is_monotone(self):
        ledger = DeltaLedger(3.0)
        ledger.advance(3.0)  # same tick is fine
        with pytest.raises(ValueError, match="backwards"):
            ledger.advance(2.5)

    def test_quiet_ticks_leave_no_trace(self):
        ledger = DeltaLedger(0.0)
        record_row(ledger, 1, 1, 2, 0.0, 1.0)
        ledger.advance(1.0)  # nothing recorded at t=1
        ledger.advance(2.0)
        record_row(ledger, 1, 3, 4, 2.0, 5.0)
        assert ledger.ticks() == (0.0, 2.0)
        assert ledger.events_at(1.0) == ()

    def test_rereads_are_equal_not_identical(self):
        """Every read builds a fresh tuple; only new records change it."""
        ledger = DeltaLedger(0.0)
        record_row(ledger, 1, 1, 2, 0.0, 1.0)
        first = ledger.events_at(0.0)
        again = ledger.events_at(0.0)
        assert again == first and again is not first and again[0] is not first[0]
        record_row(ledger, 1, 3, 4, 0.0, 1.0)
        second = ledger.events_at(0.0)
        assert second != first and len(second) == 2
        ledger.advance(1.0)  # closed: same events, unpacked per read
        assert ledger.events_at(0.0) == second and ledger.events_at(0.0) is not second

    def test_events_walks_ticks_in_order(self):
        ledger = DeltaLedger(0.0)
        record_row(ledger, 1, 1, 2, 0.0, 9.0)
        ledger.advance(1.0)
        record_row(ledger, -1, 1, 2, 0.0, 9.0)
        assert [(ev.tick, ev.sign) for ev in ledger.events()] == [
            (0.0, 1),
            (1.0, -1),
        ]

    def test_events_drains_the_deferred_store_rows(self):
        """Right after the initial join the columnar store still holds
        its rows deferred; ``events()`` must drain them into the ledger
        before it lists the ticks, as ``ticks()`` does."""
        scenario = delta_workload(n=150)
        engine = ColumnarJoinEngine(
            scenario.set_a, scenario.set_b, "tc", JoinConfig(t_m=T_M, deltas=True)
        )
        engine.run_initial_join()
        events = list(engine.ledger.events())
        rows = engine.store.interval_rows()
        assert sum(map(len, rows.values())) > 50  # non-vacuous
        assert len(events) == sum(map(len, rows.values()))
        view = DeltaView()
        for event in events:
            view.apply(event)
        assert view.rows() == rows

    def test_future_tick_is_refused(self):
        """A tick after the clock has not begun: reading it raises
        instead of answering with an empty tick that fills later."""
        ledger = DeltaLedger(0.0)
        record_row(ledger, 1, 1, 2, 0.0, 9.0)
        for t in (1.0, float("inf"), float("nan")):
            for read in (ledger.planes_at, ledger.events_at):
                with pytest.raises(ValueError, match="not begun"):
                    read(t)
        ledger.advance(1.0)
        assert ledger.events_at(1.0) == ()
        assert [ev.pair for ev in ledger.events_at(0.0)] == [(1, 2)]

    def test_fold_upto_stops_at_the_sample_tick(self):
        ledger = DeltaLedger(0.0)
        record_row(ledger, 1, 1, 2, 0.0, 9.0)
        ledger.advance(1.0)
        record_row(ledger, -1, 1, 2, 0.0, 9.0)
        assert fold_events(ledger, upto=0.0).rows() == {(1, 2): ((0.0, 9.0),)}
        assert fold_events(ledger).rows() == {}


def reachable_events(root):
    """Every :class:`DeltaEvent` reachable from ``root`` by reference
    (through data: classes, modules and function globals are not entered)."""
    code = (type, types.ModuleType, types.FunctionType)
    seen, stack, events = {id(root)}, [root], []
    while stack:
        obj = stack.pop()
        if type(obj) is DeltaEvent:
            events.append(obj)
        for ref in gc.get_referents(obj):
            if id(ref) not in seen and not isinstance(ref, code):
                seen.add(id(ref))
                stack.append(ref)
    return events


class TestRetention:
    def test_no_tick_keeps_its_tuples(self):
        """The ledger holds no event tuple: after 50 ticks of
        ``deltas(t)`` and polls it retains no :class:`DeltaEvent` once
        the caller drops its tuples, every closed tick is packed, every
        retained tick after the oldest re-reads equal, the oldest nets
        every tick folded into it, and the whole fold is exact."""
        scenario = delta_workload()
        engine = ColumnarJoinEngine(
            scenario.set_a, scenario.set_b, "mtb", JoinConfig(t_m=T_M, deltas=True)
        )
        engine.run_initial_join()
        ledger = engine.ledger
        watches = [engine.watch(), engine.watch(oid=scenario.set_a[0].oid)]
        read = {0.0: engine.deltas(0.0)}
        for t, batch in delta_batches(scenario, t_end=50.0):
            engine.tick(t)
            engine.apply_updates(batch)
            read[t] = engine.deltas(t)
            for watch in watches:
                watch.poll()
        assert len(read) == 51 and sum(map(len, read.values())) > 20 * len(read[50.0])
        last = read[50.0]
        assert len(last) > 0 and reachable_events(ledger) == []
        oldest, *later = ledger.ticks()
        assert 0.0 < oldest == ledger.retained_from  # folds ran
        # Every later tick is rebuilt from its planes: equal, not retained.
        assert all(ledger.events_at(t) == read[t] for t in later)
        assert ledger.events_at(50.0) == last and ledger.events_at(50.0) is not last
        # The oldest retained tick is the net of every tick up to it.
        folded = DeltaView()
        for t in sorted(read):
            if t <= oldest:
                for event in read[t]:
                    folded.apply(event)
        assert fold_events(ledger, upto=oldest).rows() == folded.rows()
        with pytest.raises(DeltaRetentionError, match="folded"):
            engine.deltas(0.0)
        del read, last
        assert reachable_events(ledger) == []
        # Only the open tick has raw chunks; every other one is packed.
        *closed, now = ledger.ticks()
        assert now == ledger.now and set(ledger._closed) == set(closed)
        assert fold_events(ledger).rows() == engine.store.interval_rows()

    def test_retained_bytes_per_event(self):
        """Over 200 ticks the ledger keeps ~24 B per retained netted
        event — a packed pair key, ``lo`` and ``hi``, plus per-tick slack
        — and retains at most three times the store's rows plus the
        newest closed and the open tick, not every tick it ever saw."""
        scenario = delta_workload(n=200)
        engine = ColumnarJoinEngine(
            scenario.set_a, scenario.set_b, "mtb", JoinConfig(t_m=T_M, deltas=True)
        )
        engine.run_initial_join()
        watch = engine.watch()
        emitted = len(engine.deltas())
        for t, batch in delta_batches(scenario, t_end=200.0):
            engine.tick(t)
            engine.apply_updates(batch)
            emitted += len(engine.deltas(t))
            watch.poll()
        ledger = engine.ledger
        engine.tick(201.0)  # every recorded tick closed and packed
        retained = ledger.approx_bytes()
        events = sum(1 for _ in ledger.events())
        rows = len(engine.store.planes()[0])
        edge = len(ledger.events_at(ledger.ticks()[-1]))
        assert emitted > 10 * events  # the bound has teeth
        assert events <= 3 * rows + edge
        assert retained <= 24 * events + 1024 * len(ledger.ticks())
        assert fold_events(ledger).rows() == engine.store.interval_rows()


def small_engine(n=60):
    """A columnar mtb engine with its ledger armed, initial join run."""
    scenario = delta_workload(n=n)
    engine = ColumnarJoinEngine(
        scenario.set_a, scenario.set_b, "mtb", JoinConfig(t_m=T_M, deltas=True)
    )
    engine.run_initial_join()
    return scenario, engine


def retained_events(ledger):
    return sum(ledger.planes_at(t)[0].shape[0] for t in ledger.ticks())


class TestCompaction:
    """Closed ticks fold into the oldest retained one once every cursor
    has passed them: memory follows the store, not the run's length."""

    def test_ledger_bytes_stay_flat_over_500_ticks(self):
        scenario, engine = small_engine()
        ledger = engine.ledger
        sizes, rows = [], 0
        for t, batch in delta_batches(scenario, t_end=500.0):
            engine.tick(t)
            engine.apply_updates(batch)
            engine.deltas(t)
            # The oldest tick holds the store's rows as of its own tick,
            # and the foldable ticks fold before they hold twice that.
            rows = max(rows, len(engine.store.planes()[0]))
            ticks = ledger.ticks()
            edge = sum(ledger.planes_at(u)[0].shape[0] for u in ticks[-2:])
            assert retained_events(ledger) <= 3 * rows + edge, t
            sizes.append(ledger.approx_bytes())
        assert len(sizes) == 500 and len(ledger.ticks()) < 100
        # Flat: the second half never outgrows the first.  Keeping every
        # tick would double it.
        assert max(sizes[250:]) <= 1.5 * max(sizes[:250])
        assert fold_events(ledger).rows() == engine.store.interval_rows()

    def test_an_idle_subscription_pins_and_dropping_it_releases(self):
        scenario, engine = small_engine()
        ledger = engine.ledger
        batches = delta_batches(scenario, t_end=120.0)
        idle = engine.watch()
        for t, batch in batches[:60]:
            engine.tick(t)
            engine.apply_updates(batch)
            if t == 5.0:
                idle.poll()
        assert idle.cursor == 4.0
        # Every tick after the cursor is still there: nothing passed it.
        assert ledger.ticks()[0] <= 4.0 and set(range(5, 60)) <= set(ledger.ticks())
        pinned = ledger.approx_bytes()
        del idle
        for t, batch in batches[60:70]:
            engine.tick(t)
            engine.apply_updates(batch)
        assert ledger.retained_from > 60.0 and len(ledger.ticks()) < 20
        assert ledger.approx_bytes() < pinned / 2
        assert fold_events(ledger).rows() == engine.store.interval_rows()

    def test_reading_a_folded_tick_raises(self):
        ledger = DeltaLedger(0.0)
        record_row(ledger, 1, 1, 2, 0.0, 9.0)
        for t in (1.0, 2.0, 3.0):
            ledger.advance(t)
            record_row(ledger, 1, int(t) + 10, 2, t, 9.0)
        assert ledger.ticks() == (0.0, 1.0, 2.0, 3.0)  # 3.0 is open
        ledger.advance(4.0)  # ticks 1 and 2 hold 2x tick 0: they fold
        assert ledger.ticks() == (2.0, 3.0) and ledger.retained_from == 2.0
        for t in (0.0, 1.0, 1.5):
            with pytest.raises(DeltaRetentionError, match=f"tick {t:g} was folded"):
                ledger.events_at(t)
            with pytest.raises(LookupError):
                fold_events(ledger, upto=t)
        assert [(ev.tick, ev.a_oid) for ev in ledger.events_at(2.0)] == [
            (2.0, 1), (2.0, 11), (2.0, 12)
        ]
        assert fold_events(ledger, upto=2.0).rows() == {
            (1, 2): ((0.0, 9.0),), (11, 2): ((1.0, 9.0),), (12, 2): ((2.0, 9.0),)
        }
        assert ledger.events_at(3.0) == (DeltaEvent(3.0, 1, 13, 2, 3.0, 9.0),)

    def test_engine_deltas_of_a_folded_tick_raise(self):
        scenario, engine = small_engine()
        for t, batch in delta_batches(scenario, t_end=40.0):
            engine.tick(t)
            engine.apply_updates(batch)
        oldest = engine.ledger.retained_from
        assert oldest > 1.0
        with pytest.raises(DeltaRetentionError):
            engine.deltas(oldest - 1.0)
        assert engine.deltas(oldest)  # the oldest retained tick answers

    @pytest.mark.parametrize("sign", [1, -1])
    def test_sc703_sees_a_bad_record_after_its_tick_folds(self, sign):
        """A double add (or a phantom removal) of a row the store never
        touches stays a count beyond the store's state through any fold."""
        scenario, engine = small_engine()
        ledger = engine.ledger
        bad = (2**40, -3, 1.0, 2.0)  # a wide key among packed ones
        for t, batch in delta_batches(scenario, t_end=40.0):
            engine.tick(t)
            engine.apply_updates(batch)
            if t == 3.0:
                for _ in range(2 if sign > 0 else 1):
                    record_row(ledger, sign, *bad)
        assert ledger.retained_from > 3.0  # the bad tick was folded
        findings = check_delta_ledger(engine.store, ledger)
        assert [f.code for f in findings] == ["SC703"]
        assert ("duplicate add" if sign > 0 else "absent") in findings[0].message

    def test_a_poll_reads_only_the_ticks_after_its_cursor(self, monkeypatch):
        scenario, engine = small_engine()
        ledger = engine.ledger
        read = []
        planes_at = DeltaLedger.planes_at

        def spy(self, t):
            read.append(t)
            return planes_at(self, t)

        sub = engine.watch()
        monkeypatch.setattr(DeltaLedger, "planes_at", spy)
        for t, batch in delta_batches(scenario, t_end=60.0):
            engine.tick(t)
            engine.apply_updates(batch)
            before = sub.cursor
            read.clear()
            sub.poll()
            assert read == [u for u in ledger.ticks() if before < u < t], t
            assert sub.cursor == t - 1.0
        assert ledger.retained_from > 1.0  # folds ran behind the cursor


# ----------------------------------------------------------------------
# The garbage collector around the event build
# ----------------------------------------------------------------------
@contextmanager
def collector(enabled: bool):
    """Run the body with automatic collection on or off, then restore it."""
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was_enabled else gc.disable)()


@contextmanager
def builds_collected(build=events_from_planes):
    """Yield a list that gains one entry per collection which starts
    inside ``build`` (a ``gc.callbacks`` probe)."""
    code = build.__code__
    inside = []

    def probe(phase, info):
        if phase != "start":
            return
        frame = sys._getframe(1)
        while frame is not None and frame.f_code is not code:
            frame = frame.f_back
        if frame is not None:
            inside.append(info["generation"])

    gc.callbacks.append(probe)
    try:
        yield inside
    finally:
        gc.callbacks.remove(probe)


def busy_engine():
    """A columnar engine whose first ``deltas()`` and first closed tick
    each hold ~5.6k events: eight times the collector's young threshold."""
    scenario = delta_workload(n=900)
    engine = ColumnarJoinEngine(
        scenario.set_a, scenario.set_b, "mtb", JoinConfig(t_m=T_M, deltas=True)
    )
    engine.run_initial_join()
    return engine


class TestCollector:
    """:func:`events_from_planes` builds with automatic collection
    paused and hands the collector back in the state it found it."""

    @pytest.mark.parametrize("enabled", [True, False])
    def test_reads_restore_the_collector(self, enabled):
        engine = busy_engine()
        watch = engine.watch()
        with collector(enabled):
            assert len(engine.deltas(0.0)) >= 4000
            assert gc.isenabled() is enabled
            engine.tick(1.0)
            assert len(watch.poll()) >= 4000
            assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False])
    def test_a_build_that_raises_restores_the_collector(self, enabled):
        def planes():
            yield np.array([1], dtype=np.int64)
            yield np.array([2], dtype=np.int64)
            raise RuntimeError("plane source failed")

        with collector(enabled):
            with pytest.raises(RuntimeError, match="plane source failed"):
                events_from_planes(0.0, planes())
            assert gc.isenabled() is enabled

    def test_no_collection_inside_the_build(self):
        """Thousands of events would cross the young threshold several
        times; with the pause not one collection starts in the build,
        neither for ``deltas(t)`` nor for an unfiltered poll."""
        engine = busy_engine()
        watch = engine.watch()
        with collector(True), builds_collected() as inside:
            events = engine.deltas(0.0)
            engine.tick(1.0)
            polled = watch.poll()
        assert len(events) >= 4000 and polled == list(events)
        assert inside == []

    def test_the_probe_sees_an_unpaused_build(self):
        """The probe has teeth: the same build without the pause is
        collected inside, once per ~700 new events."""

        def unpaused(t, planes):
            return tuple(DeltaEvent(t, *row) for row in zip(*(p.tolist() for p in planes)))

        planes = busy_engine().ledger.planes_at(0.0)
        with collector(True), builds_collected(unpaused) as inside:
            events = unpaused(0.0, planes)
        assert len(events) >= 4000 and len(inside) >= 4


# ----------------------------------------------------------------------
# DeltaView
# ----------------------------------------------------------------------
class TestView:
    def test_exact_insert_remove(self):
        view = DeltaView()
        view.apply(DeltaEvent(0.0, 1, 1, 2, 0.0, 3.0))
        view.apply(DeltaEvent(0.0, 1, 1, 2, 5.0, 8.0))
        assert view.rows() == {(1, 2): ((0.0, 3.0), (5.0, 8.0))}
        view.apply(DeltaEvent(1.0, -1, 1, 2, 0.0, 3.0))
        view.apply(DeltaEvent(1.0, -1, 1, 2, 5.0, 8.0))
        assert view.rows() == {}
        assert len(view) == 0

    def test_duplicate_add_raises(self):
        view = DeltaView({(1, 2): ((0.0, 3.0),)})
        with pytest.raises(DeltaReplayError, match="duplicate add"):
            view.apply_row(1, 1, 2, 0.0, 3.0)

    def test_phantom_removal_raises(self):
        view = DeltaView()
        with pytest.raises(DeltaReplayError, match="absent"):
            view.apply_row(-1, 1, 2, 0.0, 3.0)

    def test_near_miss_removal_is_phantom(self):
        """Removal is bit-exact: a float off by one ulp does not match."""
        view = DeltaView({(1, 2): ((0.0, 3.0),)})
        with pytest.raises(DeltaReplayError, match="absent"):
            view.apply_row(-1, 1, 2, 0.0, 3.0000000001)


# ----------------------------------------------------------------------
# Store hooks, incl. the satellite-6 prune fix
# ----------------------------------------------------------------------
class TestStoreHooks:
    def build(self):
        store = JoinResultStore()
        ledger = DeltaLedger(0.0)
        store.attach_ledger(ledger)
        store.add(triple(1, 2, 0.0, 3.0))
        store.add(triple(1, 2, 5.0, 8.0))
        store.add(triple(3, 4, 1.0, 9.0))
        return store, ledger

    def test_adds_and_removals_fold_exactly(self):
        store, ledger = self.build()
        ledger.advance(1.0)
        store.remove_object(1)
        assert fold_events(ledger).rows() == store.interval_rows()
        removed = [ev for ev in ledger.events_at(1.0) if ev.sign < 0]
        assert {ev.interval for ev in removed} == {(0.0, 3.0), (5.0, 8.0)}

    def test_merge_rewrite_emits_the_row_diff(self):
        """An overlapping add rewrites the pair's list; the ledger sees
        the old rows leave and the merged row enter — state transitions,
        not operations."""
        store, ledger = self.build()
        ledger.advance(2.0)
        store.add(triple(1, 2, 2.0, 6.0))  # bridges (0,3) and (5,8)
        events = ledger.events_at(2.0)
        assert [(ev.sign, ev.interval) for ev in events] == [
            (-1, (0.0, 3.0)),
            (-1, (5.0, 8.0)),
            (1, (0.0, 8.0)),
        ]
        assert fold_events(ledger).rows() == store.interval_rows()

    def test_add_batch_records_like_add(self):
        store, ledger = self.build()
        twin_store = JoinResultStore()
        twin = DeltaLedger(0.0)
        twin_store.attach_ledger(twin)
        twin_store.add_batch(
            [1, 1, 3], [2, 2, 4], [0.0, 5.0, 1.0], [3.0, 8.0, 9.0]
        )
        assert twin_store.interval_rows() == store.interval_rows()
        assert twin.events_at(0.0) == ledger.events_at(0.0)

    def test_clear_drains_everything(self):
        store, ledger = self.build()
        ledger.advance(4.0)
        store.clear()
        assert fold_events(ledger).rows() == {}
