"""Replay equivalence: folding the delta stream rebuilds the store.

The headline contract of the delta API.  Every engine variant drives
the same workload; at every tick we fold the netted event stream from
t=0 (plus the ledger baseline, empty here) and require the folded view
to equal the live materialized store **bit-for-bit** — same pairs, same
interval rows, same floats.  The matrix covers engine ∈ {serial,
columnar, sharded(2, 4)} plus a fault-injected run, and ends each run
with a prune so expiration-driven removals are part of the folded
history, not silent drift.

A second family of assertions pins *engine independence*: the netted
per-tick streams (state diffs across each tick boundary) must be
identical tuples across all variants — serial, columnar, and the
sharded merger may disagree on internal event order within a tick, but
never on the net.
"""

from __future__ import annotations

import signal

import pytest

from repro.core import ColumnarJoinEngine, ContinuousJoinEngine, JoinConfig
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


def drive_serial(algorithm="mtb", **config_kwargs):
    """Serial engine over the shared feed; returns tick -> netted events."""
    scenario = delta_workload()
    engine = ContinuousJoinEngine(
        scenario.set_a, scenario.set_b, algorithm, config(**config_kwargs)
    )
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


def drive_columnar():
    scenario = delta_workload()
    engine = ColumnarJoinEngine(scenario.set_a, scenario.set_b, "mtb", config())
    engine.run_initial_join()
    streams = {}
    sample(streams, engine.ledger, engine.store, engine.now)
    batches = delta_batches(scenario)
    last = batches[-1][0]
    for t, batch in batches:
        engine.tick(t)
        engine.apply_updates(batch)
        if t == last:
            engine.prune_expired()
        sample(streams, engine.ledger, engine.store, t)
    assert_busy(streams)
    return streams


def drive_sharded(shards=4, workers=0, faults=None, **config_kwargs):
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
    @pytest.mark.parametrize("sanitize", [True])
    def test_serial(self, sanitize):
        # The invariant sanitizer runs after every tick and update; the
        # fold must still match the store and the stream stay unchanged.
        assert drive_serial(sanitize=sanitize) == drive_serial()

    @pytest.mark.parametrize("algorithm", ["naive", "tc", "mtb"])
    def test_serial_algorithms(self, algorithm):
        drive_serial(algorithm=algorithm)

    def test_columnar(self):
        drive_columnar()

    @pytest.mark.parametrize("shards", [2, 4])
    def test_sharded(self, shards):
        drive_sharded(shards=shards, workers=0)

    def test_sharded_with_workers(self):
        drive_sharded(shards=4, workers=2)


# ----------------------------------------------------------------------
# Engine independence: identical netted streams
# ----------------------------------------------------------------------
class TestStreamEquality:
    def test_serial_vs_columnar(self):
        assert drive_serial() == drive_columnar()

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
            sanitize=True,
        )
        assert stats.worker_deaths >= 1
        assert stats.recoveries >= 1
        assert drive_serial() == sharded


# ----------------------------------------------------------------------
# API edges
# ----------------------------------------------------------------------
class TestApiEdges:
    def test_constant_delay_enumeration(self):
        """Re-enumerating a tick hands back the same materialized tuple
        (no recomputation), and iteration yields DeltaEvent records."""
        scenario = delta_workload()
        engine = ContinuousJoinEngine(
            scenario.set_a, scenario.set_b, "mtb", config()
        )
        engine.run_initial_join()
        first = engine.deltas()
        assert first and engine.deltas() is first
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
