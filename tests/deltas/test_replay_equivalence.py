"""Replay equivalence: folding the delta stream rebuilds the store.

The headline contract of the delta API.  Every engine variant drives
the same workload; at every tick we fold the netted event stream from
t=0 (plus the ledger baseline, empty here) and require the folded view
to equal the live materialized store **bit-for-bit** — same pairs, same
interval rows, same floats.  The matrix covers the sharded engine (2
and 4 shards, in-process and with workers) plus a fault-injected run,
and ends each run with a prune so expiration-driven removals are part
of the folded history, not silent drift.  The serial engines' fold and
stream equalities are invariants of the stateful model
(``tests/test_model.py``).

A second family of assertions pins *engine independence*: the netted
per-tick streams (state diffs across each tick boundary) of the sharded
merger must be identical tuples to the serial engine's — they may
disagree on internal event order within a tick, but never on the net.
"""

from __future__ import annotations

import signal

import pytest

from repro.core import ContinuousJoinEngine, JoinConfig
from repro.deltas import fold_events
from repro.par import ShardedJoinEngine

from .conftest import T_M, assert_busy, delta_batches, delta_workload


@pytest.fixture(autouse=True)
def watchdog():
    signal.alarm(300)
    yield
    signal.alarm(0)


def config(**kwargs):
    return JoinConfig(t_m=T_M, node_capacity=8, deltas=True, **kwargs)


def sample(streams, source, store, t):
    """Record tick ``t``'s netted events and assert the fold is exact."""
    streams[t] = tuple(source.events_at(t))
    assert fold_events(source, upto=t).rows() == store.interval_rows(), t


def drive_serial():
    """Serial engine over the shared feed; returns tick -> netted events."""
    scenario = delta_workload()
    engine = ContinuousJoinEngine(scenario.set_a, scenario.set_b, "mtb", config())
    engine.run_initial_join()
    store = engine._strategy.store
    streams = {}
    sample(streams, engine.ledger, store, engine.now)
    batches = delta_batches(scenario)
    last = batches[-1][0]
    for t, batch in batches:
        engine.tick(t)
        for obj in batch:
            engine.apply_update(obj)
        if t == last:
            engine.prune_expired()
        sample(streams, engine.ledger, store, t)
    assert_busy(streams)
    return streams


def drive_sharded(
    shards=4, workers=0, faults=None, validate_every_tick=False, **config_kwargs
):
    scenario = delta_workload()
    if faults is not None:
        config_kwargs.setdefault("shard_timeout", 10.0)
        config_kwargs.setdefault("shard_heartbeat", 0.01)
    engine = ShardedJoinEngine(
        scenario.set_a,
        scenario.set_b,
        "mtb",
        config(faults=faults, **config_kwargs),
        shards=shards,
        workers=workers,
    )
    try:
        engine.run_initial_join()
        streams = {}
        sample(streams, engine._merger, engine.merged_store(), engine.now)
        batches = delta_batches(scenario)
        last = batches[-1][0]
        for t, batch in batches:
            engine.step(t, batch)
            if t == last:
                engine.prune_expired()
            sample(streams, engine._merger, engine.merged_store(), t)
            if validate_every_tick:
                engine.validate()
        engine.validate()
        assert_busy(streams)
        stats = engine.fault_stats()
    finally:
        engine.close()
    return streams, stats


# ----------------------------------------------------------------------
# Fold == store, per variant
# ----------------------------------------------------------------------
class TestFoldMatchesStore:
    @pytest.mark.parametrize("shards", [2, 4])
    def test_sharded(self, shards):
        drive_sharded(shards=shards, workers=0)

    def test_sharded_with_workers(self):
        drive_sharded(shards=4, workers=2)


# ----------------------------------------------------------------------
# Engine independence: identical netted streams
# ----------------------------------------------------------------------
class TestStreamEquality:
    @pytest.mark.parametrize("shards", [2, 4])
    def test_serial_vs_sharded(self, shards):
        sharded, _stats = drive_sharded(shards=shards, workers=0)
        assert drive_serial() == sharded


# ----------------------------------------------------------------------
# Fault-injected run: recovery must not bend the stream
# ----------------------------------------------------------------------
class TestFaultedReplay:
    def test_kill_with_checkpoints_folds_bit_exact(self):
        """A worker dies mid-run after checkpoints exist; the restored
        shard re-arms its ledger from the checkpoint baseline and the
        merged stream still folds onto the store at every tick."""
        sharded, stats = drive_sharded(
            shards=4,
            workers=2,
            faults="kill:op=ops",
            checkpoint_interval=2,
            validate_every_tick=True,
        )
        assert stats.worker_deaths >= 1
        assert stats.recoveries >= 1
        assert drive_serial() == sharded


# ----------------------------------------------------------------------
# API edges
# ----------------------------------------------------------------------
class TestApiEdges:
    def test_constant_delay_enumeration(self):
        """Re-enumerating a tick builds an equal tuple from the netted
        planes (no tuple is kept), and iteration yields DeltaEvent
        records."""
        scenario = delta_workload()
        engine = ContinuousJoinEngine(
            scenario.set_a, scenario.set_b, "mtb", config()
        )
        engine.run_initial_join()
        first = engine.deltas()
        again = engine.deltas()
        assert first and again == first and again is not first
        assert all(ev.tick == engine.now and ev.sign == 1 for ev in first)

    def test_deltas_off_raises(self):
        scenario = delta_workload(n=10)
        engine = ContinuousJoinEngine(
            scenario.set_a, scenario.set_b, "mtb", JoinConfig(t_m=T_M)
        )
        with pytest.raises(RuntimeError, match="deltas=True"):
            engine.deltas()
        with pytest.raises(RuntimeError, match="deltas=True"):
            engine.watch(oid=0)

    def test_storeless_algorithm_rejected(self):
        """ETP keeps no interval store, so there is nothing to ledger."""
        scenario = delta_workload(n=10)
        with pytest.raises(ValueError, match="no interval store"):
            ContinuousJoinEngine(scenario.set_a, scenario.set_b, "etp", config())
