"""Property suite: the delta contract under randomized workloads.

Two layers.  The engine-level properties draw whole workloads (size,
seeds) and check the incremental-view identity the API promises
subscribers: *applying ``deltas(t)`` to the previous
materialized view yields the store at t* — plus append-only,
tick-monotone streams.  The ledger-level properties draw raw record
sequences directly, so shrinking lands on a minimal add/remove pattern
rather than a 60-object scenario.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import ContinuousJoinEngine, JoinConfig
from repro.deltas import (
    DeltaEvent,
    DeltaLedger,
    DeltaRetentionError,
    DeltaSubscription,
    DeltaView,
    fold_events,
)

from ..reference_store import record_row
from .conftest import T_M, delta_batches, delta_workload, plane_rows

# ----------------------------------------------------------------------
# Engine level: few examples, whole runs
# ----------------------------------------------------------------------
engine_runs = settings(max_examples=8, deadline=None)


@engine_runs
@given(
    n=st.sampled_from([30, 45, 60]),
    seed=st.integers(min_value=0, max_value=40),
)
def test_deltas_advance_the_previous_view_to_the_store(n, seed):
    """view(t-) ⊕ deltas(t) == store(t), at every tick of a random run."""
    scenario = delta_workload(n=n, seed=seed)
    engine = ContinuousJoinEngine(
        scenario.set_a,
        scenario.set_b,
        "mtb",
        JoinConfig(t_m=T_M, node_capacity=8, deltas=True),
    )
    engine.run_initial_join()
    store = engine._strategy.store
    view = DeltaView()
    for event in engine.deltas():
        view.apply(event)
    assert view.rows() == store.interval_rows()
    for t, batch in delta_batches(scenario, seed=seed + 1):
        engine.tick(t)
        for obj in batch:
            engine.apply_update(obj)
        for event in engine.deltas(t):
            view.apply(event)  # advance the *previous* view only by t's net
        assert view.rows() == store.interval_rows(), (t, seed)


@engine_runs
@given(seed=st.integers(min_value=0, max_value=40))
def test_stream_is_append_only_and_tick_monotone(seed):
    """Retained ticks never change and never reorder: each mutation may
    only extend the tick sequence and rewrite the open tick's net.  A
    clock move may also fold a prefix of closed ticks into the oldest
    retained one: its events then net every folded tick, and reading a
    folded tick raises."""
    scenario = delta_workload(n=40, seed=seed)
    engine = ContinuousJoinEngine(
        scenario.set_a,
        scenario.set_b,
        "mtb",
        JoinConfig(t_m=T_M, node_capacity=8, deltas=True),
    )
    engine.run_initial_join()
    ledger = engine.ledger
    seen_ticks = ledger.ticks()
    history = {}  # every closed tick's events, as read before any fold
    for t, batch in delta_batches(scenario, seed=seed + 1, t_end=24.0):
        engine.tick(t)
        oldest = ledger.retained_from
        kept = tuple(u for u in seen_ticks if u >= oldest)
        assert ledger.ticks()[: len(kept)] == kept  # only a prefix went
        for u in seen_ticks:
            if u < oldest:
                with pytest.raises(DeltaRetentionError):
                    engine.deltas(u)
        # The oldest retained tick is the net of everything up to it.
        view = DeltaView()
        for u in sorted(history):
            if u <= oldest:
                for event in history[u]:
                    view.apply(event)
        if oldest in history:
            assert fold_events(ledger, upto=oldest).rows() == view.rows(), (oldest, t)
        seen_ticks = ledger.ticks()
        closed = {u: engine.deltas(u) for u in seen_ticks if u < t}
        for u, events in closed.items():
            history.setdefault(u, events)
        for obj in batch:
            engine.apply_update(obj)
            ticks = ledger.ticks()
            assert ticks[: len(seen_ticks)] == seen_ticks  # append-only
            assert all(a < b for a, b in zip(ticks, ticks[1:]))  # monotone
            seen_ticks = ticks
        for u, events in closed.items():
            assert engine.deltas(u) == events, (u, t)  # closed ticks frozen
    assert ledger.retained_from > 0.0  # the run folded


# ----------------------------------------------------------------------
# Ledger level: many examples, tiny inputs, real shrinking
# ----------------------------------------------------------------------
rows = st.tuples(
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=3),
    st.sampled_from([0.0, 1.0, 2.5]),
    st.sampled_from([3.0, 4.0, 7.5]),
)


@settings(max_examples=200)
@given(
    script=st.lists(
        st.tuples(rows, st.integers(min_value=1, max_value=3)), max_size=12
    )
)
def test_netting_equals_the_state_diff(script):
    """Recording each row as N alternating present/absent bounces nets
    to exactly the final state transition: one event when N is odd
    (the row's presence flipped), none when N is even."""
    ledger = DeltaLedger(1.0)
    expected = {}
    for row, bounces in script:
        present = row in expected and expected[row]
        for _ in range(bounces):
            present = not present
            record_row(ledger, 1 if present else -1, *row)
        expected[row] = present
    netted = ledger.events_at(1.0)
    flipped = sorted(row for row, present in expected.items() if present)
    assert sorted(ev[1:] for ev in netted) == [
        (1, *row) for row in flipped
    ]
    assert all(ev.tick == 1.0 for ev in netted)


@settings(max_examples=200)
@given(added=st.sets(rows, max_size=8), removed_count=st.integers(0, 8))
def test_fold_is_exact_multiset_bookkeeping(added, removed_count):
    """Adding distinct rows then removing a prefix folds to the rest."""
    ledger = DeltaLedger(0.0)
    ordered = sorted(added)
    for row in ordered:
        record_row(ledger, 1, *row)
    ledger.advance(1.0)
    removed = ordered[: min(removed_count, len(ordered))]
    for row in removed:
        record_row(ledger, -1, *row)
    view = fold_events(ledger)
    survivors = {}
    for a, b, s, e in ordered[len(removed):]:
        survivors.setdefault((a, b), []).append((s, e))
    assert view.rows() == {
        key: tuple(sorted(vals)) for key, vals in survivors.items()
    }


# ----------------------------------------------------------------------
# Netting oracle: the dict-based reference the vectorized body replaced
# ----------------------------------------------------------------------
def net_events_reference(t, raw):
    """Net ``(sign, a, b, start, end)`` records one at a time.

    The ledger's original netting, kept here as the oracle: a dict of
    signed counts keyed by row (so ``-0.0`` and ``0.0`` are one row and
    the first-recorded key survives), a count beyond +-1 repeated, then
    a stable sort with removals first.
    """
    counts = {}
    for sign, a, b, start, end in raw:
        row = (a, b, start, end)
        counts[row] = counts.get(row, 0) + sign
    events = [
        DeltaEvent(t, 1 if net > 0 else -1, a, b, start, end)
        for (a, b, start, end), net in counts.items()
        for _ in range(abs(net))
    ]
    events.sort(key=lambda ev: (ev.sign, ev.a_oid, ev.b_oid, ev.start, ev.end))
    return tuple(events)


INF = float("inf")
#: Few distinct rows, so bounces, double adds and double removals are
#: the common case; oids on both sides of the packed-key range.
net_rows = st.tuples(
    st.sampled_from([0, 1, 2]),
    st.sampled_from([0, 1, 2]),
    st.sampled_from([0.0, -0.0, 1.0]),
    st.sampled_from([1.0, 2.5, INF]),
)
wide_rows = st.tuples(
    st.sampled_from([-5, 0, 2**31 - 1, 2**31, 2**40]),
    st.sampled_from([-5, 0, 2**31 - 1, 2**31, 2**40]),
    st.sampled_from([0.0, -0.0, 1.0]),
    st.sampled_from([1.0, INF]),
)
signs = st.sampled_from([1, -1])


def chunks_of(row_strategy):
    return st.lists(
        st.one_of(
            st.tuples(st.just("scalar"), signs, row_strategy),
            st.tuples(st.just("planes"), signs, st.lists(row_strategy, max_size=5)),
        ),
        max_size=10,
    )


def exact(events):
    """Events with the sign of zero and the field types made visible."""
    return [tuple((type(x).__name__, repr(x)) for x in ev) for ev in events]


def record_script(script):
    """A ledger at tick 2.0 fed ``script``, and the raw records it got."""
    ledger = DeltaLedger(2.0)
    raw = []
    for kind, sign, payload in script:
        if kind == "scalar":
            record_row(ledger, sign, *payload)
            raw.append((sign, *payload))
        else:
            a, b, lo, hi = zip(*payload) if payload else ((), (), (), ())
            ledger.record_planes(
                sign, np.array(a, dtype=np.int64), np.array(b, dtype=np.int64),
                np.array(lo, dtype=np.float64), np.array(hi, dtype=np.float64),
            )
            raw.extend((sign, *row) for row in payload)
    assert len(ledger) == len(raw)  # raw records, planes included
    return ledger, raw


@settings(max_examples=300, deadline=None)
@given(script=st.one_of(chunks_of(net_rows), chunks_of(wide_rows)))
def test_netted_planes_are_the_columns_of_the_events(script):
    """``planes_at(t)`` is ``events_at(t)`` column by column — and the
    reference's: same rows, same order, ``-0.0`` kept, ``int64`` /
    ``float64`` planes, memoized until a record arrives."""
    ledger, raw = record_script(script)
    planes = ledger.planes_at(2.0)
    assert [p.dtype for p in planes] == [np.int64] * 3 + [np.float64] * 2
    assert not any(p.flags.writeable for p in planes if p.size)
    rows = plane_rows(planes)
    for events in (ledger.events_at(2.0), net_events_reference(2.0, raw)):
        assert exact(rows) == exact(ev[1:] for ev in events)
    assert ledger.planes_at(2.0) is planes
    assert all(p.size == 0 for p in ledger.planes_at(1.0))  # a quiet tick
    record_row(ledger, 1, 99, 99, 0.0, 1.0)
    again = ledger.planes_at(2.0)
    assert again is not planes and ledger.planes_at(2.0) is again
    assert plane_rows(again) == [
        ev[1:] for ev in net_events_reference(2.0, raw + [(1, 99, 99, 0.0, 1.0)])
    ]


def plane_bytes(planes):
    """Each plane's dtype and bytes: equality down to the sign of zero."""
    return [(plane.dtype, plane.tobytes()) for plane in planes]


@settings(max_examples=300, deadline=None)
@given(script=st.one_of(chunks_of(net_rows), chunks_of(wide_rows)))
@example(
    script=[
        ("scalar", 1, (2**40, 2**31, -0.0, INF)),
        ("planes", 1, [(2**40, 2**31, 0.0, INF), (0, 2**31 - 1, 1.0, 1.0)]),
        ("planes", -1, [(-5, 0, -0.0, 1.0)] * 3),
    ]
)
def test_a_closed_tick_reads_back_its_open_planes(script):
    """Moving the clock past a tick packs its netted planes; ``planes_at``
    then rebuilds the planes read while it was open — dtype for dtype,
    byte for byte, ``-0.0``, wide oids and ±k repeats included — whether
    or not a read built them before the close, and they stay read-only."""
    read, raw = record_script(script)
    unread, _ = record_script(script)
    want = plane_bytes(read.planes_at(2.0))
    for ledger in (read, unread):
        ledger.advance(3.0)
        got = ledger.planes_at(2.0)
        assert plane_bytes(got) == want
        assert not any(p.flags.writeable for p in got if p.size)
        assert len(ledger) == len(raw)
        assert ledger.events_at(2.0) == net_events_reference(2.0, raw)


@settings(max_examples=300, deadline=None)
@given(script=st.one_of(chunks_of(net_rows), chunks_of(wide_rows)))
def test_vectorized_netting_equals_the_reference(script):
    """Scalar records and plane chunks, interleaved in one tick, net to
    exactly the reference's tuple: same events, same order, same
    representative row, plain ``int``/``float`` fields."""
    ledger, raw = record_script(script)
    want = net_events_reference(2.0, raw)
    got = ledger.events_at(2.0)
    assert got == want
    assert exact(got) == exact(want)
    for ev in got:
        assert type(ev) is DeltaEvent
        assert (type(ev.sign), type(ev.a_oid), type(ev.b_oid)) == (int, int, int)
        assert (type(ev.start), type(ev.end)) == (float, float)
    # A fresh tuple on every read, equal until a record arrives.
    reread = ledger.events_at(2.0)
    assert reread == got and all(x is not y for x, y in zip(reread, got))
    ledger.record_planes(
        1, np.array([99]), np.array([99]), np.array([0.0]), np.array([1.0])
    )
    again = ledger.events_at(2.0)
    assert ledger.events_at(2.0) == again and ledger.events_at(2.0)[0] is not again[0]
    assert again == net_events_reference(2.0, raw + [(1, 99, 99, 0.0, 1.0)])


# ----------------------------------------------------------------------
# Folding: closed ticks net into the oldest retained one
# ----------------------------------------------------------------------
fold_script = st.lists(
    st.one_of(
        st.tuples(
            st.just("record"),
            signs,
            st.lists(st.one_of(net_rows, wide_rows), min_size=1, max_size=4),
        ),
        st.tuples(st.just("advance"), st.just(None), st.just(None)),
        st.tuples(st.just("poll"), st.just(None), st.just(None)),
    ),
    max_size=40,
)


def signed_counts(events):
    """Row -> summed sign, zero sums dropped (``-0.0`` is ``0.0``)."""
    counts = {}
    for event in events:
        row = (event.a_oid, event.b_oid, event.start, event.end)
        counts[row] = counts.get(row, 0) + event.sign
    return {row: count for row, count in counts.items() if count}


@settings(max_examples=300, deadline=None)
@given(script=fold_script, watched=st.booleans())
@example(  # ticks 1 and 2 would fold past the watch's cursor at tick 0
    script=[
        ("record", 1, [(0, 0, 0.0, 1.0)]),
        ("advance", None, None),
        ("poll", None, None),
        ("record", 1, [(1, 1, 0.0, 1.0), (2, 2, 0.0, 1.0)]),
        ("advance", None, None),
        ("record", -1, [(1, 1, 0.0, 1.0)]),
        ("advance", None, None),
    ],
    watched=True,
)
def test_folded_ticks_net_like_the_reference(script, watched):
    """However the clock moves and a watch polls, the oldest retained
    tick is the reference netting of every raw record up to it (double
    adds and phantom removals included), each later tick is its own,
    and the watch's deliveries sum to the retained stream: retention
    never passed its cursor."""
    ledger = DeltaLedger(0.0)
    sub = DeltaSubscription(ledger) if watched else None
    raw, delivered = {}, []
    for op, sign, rows in script:
        if op == "record":
            for row in rows:
                record_row(ledger, sign, *row)
                raw.setdefault(ledger.now, []).append((sign, *row))
        elif op == "advance":
            ledger.advance(ledger.now + 1.0)
        elif sub is not None:
            delivered += sub.poll()
    ledger.advance(ledger.now + 1.0)
    ticks = ledger.ticks()
    assert ticks == tuple(t for t in sorted(raw) if t >= ledger.retained_from)
    if ticks:
        head = [record for t in sorted(raw) if t <= ticks[0] for record in raw[t]]
        assert ledger.events_at(ticks[0]) == net_events_reference(ticks[0], head)
    for t in ticks[1:]:
        assert ledger.events_at(t) == net_events_reference(t, raw[t])
    if sub is not None:
        delivered += sub.poll()
        assert signed_counts(delivered) == signed_counts(ledger.events())
