"""Tests for the update stream: the T_M contract, domain containment,
determinism, battlefield homing and the two views of a tick's batch.

Road kinematics are in ``test_road.py``; the stream's seeded digests are
in ``test_vector.py``.
"""

import numpy as np
import pytest

from repro.core import ColumnarJoinEngine, JoinConfig
from repro.workloads import (
    UpdateStream,
    battlefield_workload,
    make_workload,
    uniform_workload,
)

from ..conftest import assert_sanitized


def column_bytes(upd):
    return tuple(plane.tobytes() for plane in (upd.oid, upd.mlo, upd.mhi, upd.vlo, upd.tref))


class TestTMContract:
    def test_every_object_updates_within_tm(self):
        steps = 40
        for distribution in ("uniform", "battlefield", "road"):
            scenario = make_workload(150, distribution, seed=8, t_m=12.0)
            last_update = dict.fromkeys(scenario.oid_a.tolist() + scenario.oid_b.tolist(), 0.0)
            for t, batch in UpdateStream(scenario, seed=3).by_timestamp(1.0, float(steps)):
                for obj in batch:
                    assert obj.t_ref == t
                    assert t - last_update[obj.oid] <= 12.0, (distribution, obj.oid)
                    last_update[obj.oid] = t
            for oid, last in last_update.items():
                assert steps - last <= 12.0, (distribution, oid)

    def test_t_m_below_one_is_refused(self):
        """Due dates are whole timestamps in ``[1, T_M]``: below 1 there
        are none.  The stream says so instead of failing inside NumPy;
        the engines keep accepting any finite positive ``T_M``."""
        scenario = uniform_workload(10, seed=1, t_m=0.5)
        with pytest.raises(ValueError, match="t_m=0.5"):
            UpdateStream(scenario)
        assert JoinConfig(t_m=0.5).t_m == 0.5

    def test_average_interval_near_half_tm(self):
        """Uniform rescheduling gives ~T_M/2 expected update spacing."""
        scenario = uniform_workload(200, seed=9, t_m=20.0)
        steps = 100
        count = sum(
            len(batch)
            for _t, batch in UpdateStream(scenario, seed=5).by_timestamp(1.0, float(steps))
        )
        mean_interval = (400 * steps) / count
        assert 7.0 < mean_interval < 14.0  # ≈ 10.5 for uniform [1, 20]


class TestDomain:
    def test_objects_stay_in_domain(self):
        for distribution in ("uniform", "road"):
            scenario = make_workload(100, distribution, seed=2, t_m=10.0, max_speed=5.0)
            hi = scenario.space_size + 1e-9
            for _t, batch in UpdateStream(scenario, seed=2).by_timestamp(1.0, 59.0):
                for obj in batch:
                    mbr = obj.kbox.mbr
                    assert -1e-9 <= mbr.x_lo and mbr.x_hi <= hi, distribution
                    assert -1e-9 <= mbr.y_lo and mbr.y_hi <= hi, distribution

    def test_determinism(self):
        """One seed, one stream: equal objects and equal column bytes;
        another seed draws other batches."""
        scenario = uniform_workload(50, seed=7, t_m=10.0)

        def columns(seed):
            stream = UpdateStream(scenario, seed=seed)
            return [column_bytes(upd) for t in range(1, 15) for upd in stream.updates_at(float(t))]

        s1 = UpdateStream(scenario, seed=11).by_timestamp(1.0, 14.0)
        s2 = UpdateStream(scenario, seed=11).by_timestamp(1.0, 14.0)
        assert list(s1) == list(s2)
        assert columns(11) == columns(11)
        assert columns(11) != columns(12)


class TestBattlefieldHoming:
    def test_sides_keep_converging(self):
        scenario = battlefield_workload(100, seed=4, t_m=10.0, max_speed=3.0)
        a_ids = set(scenario.oid_a.tolist())
        for _t, batch in UpdateStream(scenario, seed=6).by_timestamp(1.0, 19.0):
            for obj in batch:
                x = obj.kbox.mbr.center[0]
                vx = obj.velocity[0]
                if obj.oid in a_ids and x < scenario.space_size * 0.6:
                    assert vx > 0  # still charging toward the enemy
                if obj.oid not in a_ids and x > scenario.space_size * 0.4:
                    assert vx < 0

    def test_everyone_reports_by_t_m(self):
        scenario = uniform_workload(30, seed=1, t_m=5.0)
        stream = UpdateStream(scenario, seed=1)
        assert [len(upd) for upd in stream.updates_at(0.0)] == [0, 0]
        reported = set()
        for _t, batch in stream.by_timestamp(1.0, 5.0):
            reported.update(obj.oid for obj in batch)
        assert reported == set(scenario.oid_a.tolist() + scenario.oid_b.tolist())


class TestByTimestamp:
    def test_matches_updates_at(self):
        """``by_timestamp`` is ``updates_at`` as objects, A's then B's."""
        scenario = uniform_workload(60, seed=13, t_m=9.0)
        columns = UpdateStream(scenario, seed=4)
        it = UpdateStream(scenario, seed=4).by_timestamp(t_start=1.0, t_end=12.0)
        total = 0
        for step in range(1, 13):
            t = float(step)
            upd_a, upd_b = columns.updates_at(t)
            got_t, got = next(it)
            assert got_t == t
            assert got == upd_a.objects() + upd_b.objects()
            total += len(got)
        assert total > 0, "vacuous: the stream never produced an update"
        with pytest.raises(StopIteration):
            next(it)

    def test_batches_are_same_tick_groups(self):
        scenario = uniform_workload(40, seed=2, t_m=6.0)
        for t, batch in UpdateStream(scenario, seed=9).by_timestamp(t_end=10.0):
            assert all(obj.t_ref == t for obj in batch)


class TestEngineFeed:
    def test_columns_drive_engine_cleanly(self):
        """The sanitized columnar engine accepts the stream's column
        batches for a full window."""
        scenario = make_workload(48, "battlefield", t_m=12.0, max_speed=3.0, seed=7)
        engine = ColumnarJoinEngine(
            scenario.columns_a(), scenario.columns_b(), algorithm="mtb",
            config=JoinConfig(t_m=12.0),
        )
        engine.run_initial_join()
        stream = UpdateStream(scenario, seed=9)
        applied = 0
        for step in range(1, 13):
            t = float(step)
            engine.tick(t)
            upd_a, upd_b = stream.updates_at(t)
            assert np.all(upd_a.tref == t) and np.all(upd_b.tref == t)
            engine.apply_update_columns(upd_a, upd_b)
            assert_sanitized(engine)
            applied += len(upd_a) + len(upd_b)
        assert applied == engine.update_count > 0
