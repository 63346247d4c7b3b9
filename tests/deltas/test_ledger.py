"""Unit contract of the ledger layer: netting, folding, prune events.

``test_replay_equivalence.py`` proves the end-to-end property; this
suite pins the pieces it stands on — per-tick netting and canonical
ordering, clock monotonicity, fresh (constant-delay) enumeration, the
packed retention of closed ticks,
the exact-fold error grammar of :class:`DeltaView`, and the
satellite-6 regression: ``JoinResultStore.prune_expired`` historically
dropped intervals *silently*, which an attached ledger now reports as
``-1`` events.
"""

from __future__ import annotations

import gc
import types

import pytest

from repro.core import ColumnarJoinEngine, JoinConfig
from repro.deltas import (
    DeltaEvent,
    DeltaLedger,
    DeltaReplayError,
    DeltaView,
    fold_events,
)
from repro.geometry import TimeInterval
from repro.join import JoinTriple

from ..reference_store import JoinResultStore
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
        ledger.record(-1, 1, 2, 0.0, 3.0)
        ledger.record(1, 1, 2, 0.0, 3.0)
        assert ledger.events_at(1.0) == ()
        assert len(ledger) == 2  # raw records are kept for diagnostics

    def test_canonical_order_removals_first(self):
        ledger = DeltaLedger(2.0)
        ledger.record(1, 9, 9, 0.0, 1.0)
        ledger.record(-1, 1, 2, 0.0, 1.0)
        ledger.record(1, 1, 3, 0.0, 1.0)
        ledger.record(-1, 5, 6, 0.0, 1.0)
        events = ledger.events_at(2.0)
        assert [ev.sign for ev in events] == [-1, -1, 1, 1]
        assert [ev.pair for ev in events] == [(1, 2), (5, 6), (1, 3), (9, 9)]

    def test_double_add_survives_netting(self):
        """A double add (store-hook bug) must reach the fold as two
        events so SC703 can catch it, not vanish in the netting."""
        ledger = DeltaLedger(0.0)
        ledger.record(1, 1, 2, 0.0, 3.0)
        ledger.record(1, 1, 2, 0.0, 3.0)
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
        ledger.record(1, 1, 2, 0.0, 1.0)
        ledger.advance(1.0)  # nothing recorded at t=1
        ledger.advance(2.0)
        ledger.record(1, 3, 4, 2.0, 5.0)
        assert ledger.ticks() == (0.0, 2.0)
        assert ledger.events_at(1.0) == ()

    def test_rereads_are_equal_not_identical(self):
        """Every read builds a fresh tuple; only new records change it."""
        ledger = DeltaLedger(0.0)
        ledger.record(1, 1, 2, 0.0, 1.0)
        first = ledger.events_at(0.0)
        again = ledger.events_at(0.0)
        assert again == first and again is not first and again[0] is not first[0]
        ledger.record(1, 3, 4, 0.0, 1.0)
        second = ledger.events_at(0.0)
        assert second != first and len(second) == 2
        ledger.advance(1.0)  # closed: same events, unpacked per read
        assert ledger.events_at(0.0) == second and ledger.events_at(0.0) is not second

    def test_events_walks_ticks_in_order(self):
        ledger = DeltaLedger(0.0)
        ledger.record(1, 1, 2, 0.0, 9.0)
        ledger.advance(1.0)
        ledger.record(-1, 1, 2, 0.0, 9.0)
        assert [(ev.tick, ev.sign) for ev in ledger.events()] == [
            (0.0, 1),
            (1.0, -1),
        ]

    def test_baseline_seeds_the_fold(self):
        """A re-armed ledger (restored shard) folds baseline ⊕ events."""
        baseline = {(1, 2): ((0.0, 3.0),)}
        ledger = DeltaLedger(5.0, baseline=baseline)
        ledger.record(-1, 1, 2, 0.0, 3.0)
        ledger.record(1, 3, 4, 5.0, 7.0)
        assert ledger.baseline_rows() == baseline
        assert fold_events(ledger).rows() == {(3, 4): ((5.0, 7.0),)}

    def test_fold_upto_stops_at_the_sample_tick(self):
        ledger = DeltaLedger(0.0)
        ledger.record(1, 1, 2, 0.0, 9.0)
        ledger.advance(1.0)
        ledger.record(-1, 1, 2, 0.0, 9.0)
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
        the caller drops its tuples, every closed tick is packed, and
        every tick still re-reads and folds exactly."""
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
        # Every tick is rebuilt from its planes: equal, not retained.
        assert all(ledger.events_at(t) == events for t, events in read.items())
        assert ledger.events_at(50.0) == last and ledger.events_at(50.0) is not last
        del read, last
        assert reachable_events(ledger) == []
        # Only the open tick has raw chunks; every other one is packed.
        *closed, now = ledger.ticks()
        assert now == ledger.now and set(ledger._closed) == set(closed)
        assert fold_events(ledger).rows() == engine.store.interval_rows()

    def test_retained_bytes_per_event(self):
        """Over 200 ticks the ledger keeps ~24 B per netted event: a
        packed pair key, ``lo`` and ``hi``, plus per-tick slack — not the
        raw chunks and netted planes of every tick (~70 B per event)."""
        scenario = delta_workload(n=200)
        engine = ColumnarJoinEngine(
            scenario.set_a, scenario.set_b, "mtb", JoinConfig(t_m=T_M, deltas=True)
        )
        engine.run_initial_join()
        watch = engine.watch()
        for t, batch in delta_batches(scenario, t_end=200.0):
            engine.tick(t)
            engine.apply_updates(batch)
            engine.deltas(t)
            watch.poll()
        ledger = engine.ledger
        events = sum(1 for _ in ledger.events())
        closed = len(ledger.ticks()) - 1
        assert closed >= 200 and events > 50 * closed  # the bound has teeth
        assert ledger.approx_bytes() <= 24 * events + 1024 * closed
        assert fold_events(ledger).rows() == engine.store.interval_rows()


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

    def test_prune_emits_removal_events(self):
        """The satellite fix: expiration is a visible ``-1`` event."""
        store, ledger = self.build()
        ledger.advance(4.0)
        dropped = store.prune_expired(4.0)
        assert dropped == 0  # (1,2) keeps (5,8); (3,4) keeps (1,9)
        pruned = ledger.events_at(4.0)
        assert [(ev.sign, ev.pair, ev.interval) for ev in pruned] == [
            (-1, (1, 2), (0.0, 3.0))
        ]
        assert fold_events(ledger).rows() == store.interval_rows()

    def test_prune_without_ledger_is_the_old_silent_bug(self):
        """Regression pin for the pre-ledger behavior: a prune the
        ledger does not see leaves the stream claiming rows the store
        has dropped — exactly the silent drift the sanitizer's SC701
        reconciliation now rejects."""
        from repro.check.sanitize import check_delta_ledger

        store, ledger = self.build()
        ledger.advance(4.0)
        store.attach_ledger(None)  # re-create the old silent prune
        store.prune_expired(4.0)
        assert (1, 2) in store  # pair survives with its later interval
        found = check_delta_ledger(store, ledger)
        assert [f.code for f in found] == ["SC701"]
        # With the ledger attached (the fix), the same prune reconciles.
        store2, ledger2 = self.build()
        ledger2.advance(4.0)
        store2.prune_expired(4.0)
        assert check_delta_ledger(store2, ledger2) == []
