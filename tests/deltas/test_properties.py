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
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ContinuousJoinEngine, JoinConfig
from repro.deltas import DeltaEvent, DeltaLedger, DeltaView, fold_events

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
    """Earlier ticks never change and never reorder: each mutation may
    only extend the tick sequence and rewrite the open tick's net."""
    scenario = delta_workload(n=40, seed=seed)
    engine = ContinuousJoinEngine(
        scenario.set_a,
        scenario.set_b,
        "mtb",
        JoinConfig(t_m=T_M, node_capacity=8, deltas=True),
    )
    engine.run_initial_join()
    seen_ticks = engine.ledger.ticks()
    closed = {}
    for t, batch in delta_batches(scenario, seed=seed + 1):
        engine.tick(t)
        closed = {u: engine.deltas(u) for u in seen_ticks}
        for obj in batch:
            engine.apply_update(obj)
            ticks = engine.ledger.ticks()
            assert ticks[: len(seen_ticks)] == seen_ticks  # append-only
            assert all(a < b for a, b in zip(ticks, ticks[1:]))  # monotone
            seen_ticks = ticks
        for u, events in closed.items():
            assert engine.deltas(u) == events, (u, t)  # closed ticks frozen


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
            ledger.record(1 if present else -1, *row)
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
        ledger.record(1, *row)
    ledger.advance(1.0)
    removed = ordered[: min(removed_count, len(ordered))]
    for row in removed:
        ledger.record(-1, *row)
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
            ledger.record(sign, *payload)
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
    assert all(p.size == 0 for p in ledger.planes_at(3.0))  # a quiet tick
    ledger.record(1, 99, 99, 0.0, 1.0)
    again = ledger.planes_at(2.0)
    assert again is not planes and ledger.planes_at(2.0) is again
    assert plane_rows(again) == [
        ev[1:] for ev in net_events_reference(2.0, raw + [(1, 99, 99, 0.0, 1.0)])
    ]


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
    # Memoized until a record arrives, a new tuple after.
    assert ledger.events_at(2.0) is got
    ledger.record_planes(
        1, np.array([99]), np.array([99]), np.array([0.0]), np.array([1.0])
    )
    again = ledger.events_at(2.0)
    assert again is not got and ledger.events_at(2.0) is again
    assert again == net_events_reference(2.0, raw + [(1, 99, 99, 0.0, 1.0)])
