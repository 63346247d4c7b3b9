"""Tests for the dataset generators (paper §VI-A)."""

import numpy as np
import pytest

from repro.workloads import (
    DISTRIBUTIONS,
    battlefield_workload,
    gaussian_workload,
    make_workload,
    uniform_workload,
)


class TestBasics:
    def test_cardinalities_and_ids_disjoint(self):
        sc = make_workload(100, "uniform", seed=1)
        assert len(sc.set_a) == len(sc.set_b) == 100
        ids_a = {o.oid for o in sc.set_a}
        ids_b = {o.oid for o in sc.set_b}
        assert len(ids_a) == len(ids_b) == 100
        assert not ids_a & ids_b

    def test_deterministic_per_seed(self):
        s1 = make_workload(50, "uniform", seed=9)
        s2 = make_workload(50, "uniform", seed=9)
        assert s1.set_a == s2.set_a
        assert s1.set_b == s2.set_b
        s3 = make_workload(50, "uniform", seed=10)
        assert s1.set_a != s3.set_a

    def test_scenarios_compare_by_identity(self):
        """Array fields make field-wise ``==`` ambiguous; a scenario
        equals itself only, and comparing never raises."""
        s1, s2 = make_workload(20, seed=1), make_workload(20, seed=1)
        assert s1 == s1 and s1 != s2

    def test_object_size(self):
        sc = make_workload(20, "uniform", object_size_pct=0.5, space_size=1000.0)
        assert sc.object_side == pytest.approx(5.0)
        for obj in sc.set_a:
            assert obj.kbox.mbr.side(0) == pytest.approx(5.0)
            assert obj.kbox.mbr.side(1) == pytest.approx(5.0)

    def test_objects_inside_domain(self):
        for dist in DISTRIBUTIONS:
            sc = make_workload(200, dist, seed=4)
            for obj in sc.set_a + sc.set_b:
                mbr = obj.kbox.mbr
                assert 0 <= mbr.x_lo and mbr.x_hi <= sc.space_size
                assert 0 <= mbr.y_lo and mbr.y_hi <= sc.space_size

    def test_speed_bounded(self):
        sc = make_workload(300, "uniform", max_speed=2.5, seed=5)
        for obj in sc.set_a + sc.set_b:
            vx, vy = obj.velocity
            assert (vx**2 + vy**2) ** 0.5 <= 2.5 + 1e-9

    def test_validation(self):
        with pytest.raises(ValueError):
            make_workload(0, "uniform")
        with pytest.raises(ValueError):
            make_workload(10, "hexagonal")
        with pytest.raises(ValueError):
            make_workload(10, "uniform", object_size_pct=0.0)


class TestDistributions:
    def test_gaussian_clusters_at_center(self):
        sc = gaussian_workload(500, seed=2)
        xs = np.array([o.kbox.mbr.center[0] for o in sc.set_a])
        uni = uniform_workload(500, seed=2)
        xs_uni = np.array([o.kbox.mbr.center[0] for o in uni.set_a])
        # Gaussian positions concentrate: much lower spread than uniform.
        assert xs.std() < xs_uni.std() * 0.7
        assert abs(xs.mean() - 500.0) < 30.0

    def test_battlefield_sides_and_headings(self):
        sc = battlefield_workload(300, seed=3)
        xs_a = np.array([o.kbox.mbr.center[0] for o in sc.set_a])
        xs_b = np.array([o.kbox.mbr.center[0] for o in sc.set_b])
        assert xs_a.mean() < 300.0       # A starts on the left…
        assert xs_b.mean() > 700.0       # …B on the right
        for obj in sc.set_a:
            assert obj.velocity[0] > 0   # A charges right
        for obj in sc.set_b:
            assert obj.velocity[0] < 0   # B charges left

    def test_wrapper_functions(self):
        assert uniform_workload(10, seed=0).distribution == "uniform"
        assert gaussian_workload(10, seed=0).distribution == "gaussian"
        assert battlefield_workload(10, seed=0).distribution == "battlefield"
