"""Tests for the update stream: the T_M contract and domain containment."""

import pytest

from repro.core import JoinConfig
from repro.workloads import UpdateStream, battlefield_workload, uniform_workload


def drive(scenario, stream, steps):
    """Apply the stream to a plain dict of current objects."""
    current = {o.oid: o for o in scenario.set_a + scenario.set_b}
    last_update = {oid: 0.0 for oid in current}
    for step in range(1, steps + 1):
        t = float(step)
        for obj in stream.updates_for(t, current):
            assert obj.t_ref == t
            current[obj.oid] = obj
            last_update[obj.oid] = t
    return current, last_update


class TestTMContract:
    def test_every_object_updates_within_tm(self):
        scenario = uniform_workload(150, seed=8, t_m=12.0)
        stream = UpdateStream(scenario, seed=3)
        steps = 40
        current, last_update = drive(scenario, stream, steps)
        for oid, last in last_update.items():
            assert steps - last <= 12.0, oid

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
        stream = UpdateStream(scenario, seed=5)
        count = 0
        current = {o.oid: o for o in scenario.set_a + scenario.set_b}
        steps = 100
        for step in range(1, steps + 1):
            batch = stream.updates_for(float(step), current)
            for obj in batch:
                current[obj.oid] = obj
            count += len(batch)
        mean_interval = (400 * steps) / count
        assert 7.0 < mean_interval < 14.0  # ≈ 10.5 for uniform [1, 20]


class TestDomain:
    def test_objects_stay_in_domain(self):
        scenario = uniform_workload(100, seed=2, t_m=10.0, max_speed=5.0)
        stream = UpdateStream(scenario, seed=2)
        current = {o.oid: o for o in scenario.set_a + scenario.set_b}
        for step in range(1, 60):
            for obj in stream.updates_for(float(step), current):
                current[obj.oid] = obj
                mbr = obj.kbox.mbr
                assert -1e-9 <= mbr.x_lo and mbr.x_hi <= scenario.space_size + 1e-9
                assert -1e-9 <= mbr.y_lo and mbr.y_hi <= scenario.space_size + 1e-9

    def test_determinism(self):
        scenario = uniform_workload(50, seed=7, t_m=10.0)
        s1 = UpdateStream(scenario, seed=11)
        s2 = UpdateStream(scenario, seed=11)
        current = {o.oid: o for o in scenario.set_a + scenario.set_b}
        for step in range(1, 15):
            b1 = s1.updates_for(float(step), current)
            b2 = s2.updates_for(float(step), current)
            assert b1 == b2
            for obj in b1:
                current[obj.oid] = obj


class TestBattlefieldHoming:
    def test_sides_keep_converging(self):
        scenario = battlefield_workload(100, seed=4, t_m=10.0, max_speed=3.0)
        stream = UpdateStream(scenario, seed=6)
        current = {o.oid: o for o in scenario.set_a + scenario.set_b}
        a_ids = {o.oid for o in scenario.set_a}
        for step in range(1, 20):
            for obj in stream.updates_for(float(step), current):
                current[obj.oid] = obj
                x = obj.kbox.mbr.center[0]
                vx = obj.velocity[0]
                if obj.oid in a_ids and x < scenario.space_size * 0.6:
                    assert vx > 0  # still charging toward the enemy
                if obj.oid not in a_ids and x > scenario.space_size * 0.4:
                    assert vx < 0

    def test_everyone_reports_by_t_m(self):
        scenario = uniform_workload(30, seed=1, t_m=5.0)
        stream = UpdateStream(scenario, seed=1)
        current = {o.oid: o for o in scenario.set_a + scenario.set_b}
        assert stream.updates_for(0.0, current) == []
        reported = set()
        for step in range(1, 6):
            reported.update(obj.oid for obj in stream.updates_for(float(step), current))
        assert reported == set(current)  # everyone reports by T_M


class TestByTimestamp:
    def test_matches_tick_by_tick_updates_for(self):
        scenario = uniform_workload(60, seed=13, t_m=9.0)
        manual = UpdateStream(scenario, seed=4)
        grouped = UpdateStream(scenario, seed=4)
        current = {o.oid: o for o in scenario.set_a + scenario.set_b}
        it = grouped.by_timestamp(t_start=1.0, t_end=12.0)
        total = 0
        for step in range(1, 13):
            t = float(step)
            want = manual.updates_for(t, current)
            got_t, got = next(it)
            assert got_t == t
            assert got == want
            total += len(want)
            for obj in want:
                current[obj.oid] = obj
        assert total > 0, "vacuous: the stream never produced an update"
        with pytest.raises(StopIteration):
            next(it)

    def test_batches_are_same_tick_groups(self):
        scenario = uniform_workload(40, seed=2, t_m=6.0)
        for t, batch in UpdateStream(scenario, seed=9).by_timestamp(t_end=10.0):
            assert all(obj.t_ref == t for obj in batch)

    def test_seeding_from_caller_state(self):
        """Passing ``current`` starts from the caller's object versions."""
        scenario = uniform_workload(30, seed=5, t_m=7.0)
        current = {o.oid: o for o in scenario.set_a + scenario.set_b}
        grouped = UpdateStream(scenario, seed=8)
        manual = UpdateStream(scenario, seed=8)
        got = list(grouped.by_timestamp(t_start=1.0, t_end=5.0, current=current))
        want = []
        state = dict(current)
        for step in range(1, 6):
            batch = manual.updates_for(float(step), state)
            for obj in batch:
                state[obj.oid] = obj
            want.append((float(step), batch))
        assert got == want
