"""Columnar shard workers: bit-exactness, fault recovery, ``ckpt/5``.

Every per-shard engine is a :class:`~repro.core.columnar.
ColumnarJoinEngine` (with its column result store) and everything that
crosses the shard boundary is column planes.  That must stay an
implementation detail: for every shard/worker combination the merged
store is bit-identical to the serial tree engine's — including across
worker crashes, where the ``ckpt/5`` blob must rebuild the engine and
its planes exactly.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core import ColumnarJoinEngine, ContinuousJoinEngine, JoinConfig
from repro.core.result import ColumnResultStore
from repro.par import ShardedJoinEngine
from repro.par import worker
from repro.workloads import UpdateStream

from ..check.sanitize import raise_on_findings, sanitize_sharded_engine
from ..conftest import assert_sanitized
from .test_sharded import STEPS, T_M, scenario_for, snapshot


def drive_both(
    shards, workers, seed=19, faults=None, sanitize=False, **config_kwargs
):
    """Serial engine vs columnar-worker sharded engine off one feed."""
    scenario = scenario_for(seed)
    serial = ContinuousJoinEngine(
        scenario.set_a, scenario.set_b, "mtb",
        JoinConfig(t_m=T_M, node_capacity=8),
    )
    serial.run_initial_join()
    if workers:
        config_kwargs.setdefault("shard_timeout", 10.0)
        config_kwargs.setdefault("shard_heartbeat", 0.01)
    config = JoinConfig(
        t_m=T_M, node_capacity=8, faults=faults, **config_kwargs
    )
    sharded = ShardedJoinEngine(
        scenario.set_a, scenario.set_b, "mtb", config,
        shards=shards, workers=workers,
    )
    sharded.run_initial_join()
    assert snapshot(serial._strategy.store) == snapshot(sharded.merged_store())
    pair_ticks = 0
    stream = UpdateStream(scenario, seed=seed + 1)
    for t, batch in stream.by_timestamp(t_start=1.0, t_end=float(STEPS)):
        serial.tick(t)
        for obj in batch:
            serial.apply_update(obj)
        want = serial.result_at(t)
        assert sharded.step(t, batch) == want, (shards, workers, t)
        assert snapshot(serial._strategy.store) == snapshot(
            sharded.merged_store()
        ), (shards, workers, t)
        if sanitize:
            assert_sanitized(sharded)
        pair_ticks += bool(want)
    assert pair_ticks > 0, "vacuous run: the answer was always empty"
    raise_on_findings(sanitize_sharded_engine(sharded))
    return sharded


class TestBitExactness:
    @pytest.mark.parametrize("shards", [1, 2, 4])
    @pytest.mark.parametrize("workers", [0, 2])
    def test_matches_serial_engine(self, shards, workers):
        sharded = drive_both(shards, workers)
        sharded.close()

    def test_in_process_shards_use_columnar_engines(self):
        """With workers=0 the registry is inspectable: every per-shard
        engine must be the columnar class with a column store."""
        sharded = drive_both(shards=2, workers=0)
        engines = sharded._backend.engines
        assert len(engines) == 2
        for engine in engines.values():
            assert isinstance(engine, ColumnarJoinEngine)
            assert isinstance(engine.store, ColumnResultStore)
        sharded.close()

    def test_sanitized_columnar_run_stays_clean(self):
        """The SC8xx checks pass on every in-process shard, every tick."""
        sharded = drive_both(shards=2, workers=0, sanitize=True)
        sharded.close()


class TestFaultRecovery:
    def test_killed_columnar_worker_recovers_exactly(self):
        """A kill fault mid-run must replay onto a restored columnar
        engine with no visible difference in the merged store."""
        sharded = drive_both(
            shards=2, workers=2, faults="kill:op=ops",
            checkpoint_interval=2,
        )
        stats = sharded.fault_stats()
        assert stats is not None
        assert stats.worker_deaths > 0, "the fault never fired"
        assert stats.respawns > 0
        sharded.close()


class TestCheckpointBlob:
    def build(self):
        # Dense enough that the store under checkpoint is non-empty.
        scenario = scenario_for(11, n=24, object_size_pct=3.0)
        config = JoinConfig(t_m=T_M, node_capacity=8)
        registry = {}
        spec = worker.build_spec(
            scenario.set_a, scenario.set_b, "mtb", config, 0.0
        )
        worker.execute(registry, [("build", 0, spec), ("initial_join", 0)])
        assert len(registry[0].store) > 0
        return registry

    def test_blob_declares_columnar_engine(self):
        """``ckpt/5`` has no engine tag: a columnar shard is the only
        kind there is, and that is what a blob restores to."""
        registry = self.build()
        assert isinstance(registry[0], ColumnarJoinEngine)
        blob = worker.make_checkpoint(registry[0])
        assert blob["format"] == "repro.par.ckpt/5"
        assert "engine" not in blob
        assert isinstance(worker.restore_engine(blob), ColumnarJoinEngine)

    def test_blob_leaves_are_arrays_and_scalars(self):
        """No ``MovingObject``, ``TimeInterval`` or per-pair dict: a
        checkpoint is planes, scalars and the config."""
        registry = self.build()
        blob = worker.make_checkpoint(registry[0])

        def leaves(value):
            if dataclasses.is_dataclass(value) and not isinstance(value, JoinConfig):
                value = [getattr(value, f.name) for f in dataclasses.fields(value)]
            if isinstance(value, dict):
                value = list(value.values())
            if isinstance(value, (list, tuple)):
                for item in value:
                    yield from leaves(item)
            else:
                yield value

        kinds = {type(leaf) for leaf in leaves(blob)}
        assert kinds <= {np.ndarray, str, int, float, JoinConfig}, kinds
        cols_a, cols_b = blob["spec"][:2]
        assert cols_a.oid.tolist() == registry[0].columns_a.oids.tolist()
        assert len(blob["store"]) == 4

    def test_restore_is_plane_identical(self):
        registry = self.build()
        engine = registry[0]
        engine.tick(1.0)
        restored = worker.restore_engine(worker.make_checkpoint(engine))
        assert isinstance(restored.store, ColumnResultStore)
        for got, want in zip(restored.store.planes(), engine.store.planes()):
            assert np.array_equal(got, want)
        for side in ("columns_a", "columns_b"):
            got, want = getattr(restored, side), getattr(engine, side)
            assert len(got) == len(want)
            for plane in ("oid", "tref", "mlo", "mhi", "vlo", "vhi", "slo", "shi"):
                assert np.array_equal(
                    getattr(got, plane)[..., : len(got)],
                    getattr(want, plane)[..., : len(want)],
                ), (side, plane)

    def test_restored_engine_evolves_like_the_original(self):
        registry = self.build()
        twin = {0: worker.restore_engine(worker.make_checkpoint(registry[0]))}
        for step in (1.0, 2.0):
            for reg in (registry, twin):
                worker.execute(reg, [("tick", 0, step)])
            assert twin[0].store.interval_rows() == registry[0].store.interval_rows()

    def test_shard_engine_knob_validated(self):
        """The knob is gone: no spelling of it selects an engine class."""
        with pytest.raises(TypeError, match="shard_engine"):
            JoinConfig(t_m=T_M, shard_engine="columnar")
