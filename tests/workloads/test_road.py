"""Road-network workload: placement, kinematics, and engine exactness."""

import pytest

from repro.core import ContinuousJoinEngine, JoinConfig, SimulationDriver
from repro.join import brute_force_pairs_at
from repro.workloads import UpdateStream, road_network_workload
from repro.workloads.generator import ROAD_GRID


class TestRoadPlacement:
    def test_objects_on_roads(self):
        sc = road_network_workload(200, seed=3)
        spacing = sc.space_size / ROAD_GRID
        centers = [r * spacing + spacing / 2 for r in range(ROAD_GRID)]
        for obj in sc.set_a + sc.set_b:
            x, y = obj.kbox.mbr.x_lo, obj.kbox.mbr.y_lo
            on_h = any(abs(y - c) < 1e-6 for c in centers)
            on_v = any(abs(x - c) < 1e-6 for c in centers)
            assert on_h or on_v, (x, y)

    def test_velocities_axis_aligned(self):
        sc = road_network_workload(200, seed=4, max_speed=3.0)
        for obj in sc.set_a + sc.set_b:
            vx, vy = obj.velocity
            assert vx == 0.0 or vy == 0.0
            assert abs(vx) + abs(vy) > 0.0
            assert abs(vx) + abs(vy) <= 3.0 + 1e-9

    def test_distribution_registered(self):
        sc = road_network_workload(10, seed=0)
        assert sc.distribution == "road"


class TestRoadUpdates:
    def test_updates_stay_on_roads_and_axis_aligned(self):
        sc = road_network_workload(80, seed=5, t_m=8.0, max_speed=3.0)
        spacing = sc.space_size / ROAD_GRID
        centers = [
            min(r * spacing + spacing / 2, sc.space_size - sc.object_side)
            for r in range(ROAD_GRID)
        ]
        for _t, batch in UpdateStream(sc, seed=6).by_timestamp(1.0, 29.0):
            for obj in batch:
                vx, vy = obj.velocity
                assert vx == 0.0 or vy == 0.0
                x, y = obj.kbox.mbr.x_lo, obj.kbox.mbr.y_lo
                if vx != 0.0:  # horizontal travel → y on a road center
                    assert any(abs(y - c) < 1e-6 for c in centers), y
                else:
                    assert any(abs(x - c) < 1e-6 for c in centers), x

    def test_engine_exact_on_road_workload(self):
        sc = road_network_workload(
            90, seed=7, t_m=10.0, max_speed=3.0, object_size_pct=1.5
        )
        engine = ContinuousJoinEngine.create(
            sc.set_a, sc.set_b, algorithm="mtb", config=JoinConfig(t_m=10.0)
        )
        engine.run_initial_join()
        driver = SimulationDriver(engine, UpdateStream(sc, seed=8))
        for _ in range(25):
            driver.step()
            want = brute_force_pairs_at(
                engine.objects_a.values(), engine.objects_b.values(), engine.now
            )
            assert engine.result_at(engine.now) == want

    def test_dimension_selection_exploits_road_skew(self):
        """Velocity skew is what DS is for: on road data it must pick a
        sensible dimension without error and the join stays exact."""
        from repro.geometry import select_sweep_dimension

        sc = road_network_workload(100, seed=9)
        dim = select_sweep_dimension(
            [o.kbox for o in sc.set_a], [o.kbox for o in sc.set_b]
        )
        assert dim in (0, 1)
