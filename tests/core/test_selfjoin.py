"""Continuous self-join vs the brute-force intra-set oracle."""

import pytest

from repro.core import ContinuousSelfJoinEngine, JoinConfig
from repro.workloads import UpdateStream, uniform_workload


def oracle_pairs(objects, t):
    pairs = set()
    items = list(objects.values())
    for i, a in enumerate(items):
        box_a = a.mbr_at(t)
        for b in items[i + 1 :]:
            if box_a.intersects(b.mbr_at(t)):
                lo, hi = sorted((a.oid, b.oid))
                pairs.add((lo, hi))
    return pairs


def build(n=120, t_m=12.0, seed=14):
    scenario = uniform_workload(
        n, seed=seed, max_speed=3.0, object_size_pct=1.5, t_m=t_m
    )
    engine = ContinuousSelfJoinEngine(scenario.set_a, JoinConfig(t_m=t_m))
    engine.run_initial_join()
    return scenario, engine


class TestSelfJoin:
    def test_initial_answer(self):
        _scenario, engine = build()
        assert engine.result_at(0.0) == oracle_pairs(engine.objects, 0.0)
        assert engine.result_at(0.0), "workload should produce pairs"

    def test_no_reflexive_pairs(self):
        _scenario, engine = build()
        for a, b in engine.result_at(0.0):
            assert a < b

    def test_continuous_correctness_under_updates(self):
        scenario, engine = build()
        for t, batch in UpdateStream(scenario, seed=3).by_timestamp(1.0, 29.0):
            engine.tick(t)
            for obj in batch:
                if obj.oid in engine.objects:
                    engine.apply_update(obj)
            assert engine.result_at() == oracle_pairs(engine.objects, t), t

    def test_partners_of(self):
        _scenario, engine = build()
        pairs = engine.result_at(0.0)
        some_oid = next(iter(pairs))[0]
        partners = engine.partners_of(some_oid, 0.0)
        assert partners
        for other in partners:
            lo, hi = sorted((some_oid, other))
            assert (lo, hi) in pairs

    def test_duplicate_ids_rejected(self):
        scenario = uniform_workload(10, seed=1)
        with pytest.raises(ValueError):
            ContinuousSelfJoinEngine(scenario.set_a + [scenario.set_a[0]])

    def test_unknown_update_rejected(self):
        scenario, engine = build(n=20)
        with pytest.raises(KeyError):
            engine.apply_update(scenario.set_b[0])

    def test_clock_monotone(self):
        _scenario, engine = build(n=20)
        engine.tick(3.0)
        with pytest.raises(ValueError):
            engine.tick(2.0)

    def test_multi_bucket_initial_join(self):
        """Initial join across several populated buckets stays exact."""
        scenario = uniform_workload(
            90, seed=20, max_speed=3.0, object_size_pct=1.5, t_m=12.0
        )
        engine = ContinuousSelfJoinEngine(
            scenario.set_a[:45], JoinConfig(t_m=12.0)
        )
        engine.tick(8.0)
        for obj in scenario.set_a[45:]:
            aged = obj.updated(8.0)
            engine.objects[aged.oid] = aged
            engine.forest.insert(aged, 8.0)
        assert engine.forest.num_buckets == 2
        engine.run_initial_join()
        assert engine.result_at(8.0) == oracle_pairs(engine.objects, 8.0)
