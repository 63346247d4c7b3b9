"""Seeded workload pins: the generator's and the stream's draws.

Two contracts are pinned here:

1. **Byte-identity of the seeded workloads.**  ``make_workload`` and
   ``UpdateStream`` outputs for a fixed seed are part of the repo's
   reproducibility surface (benchmark cells and differential fixtures
   reference them by seed); any drift fails loudly.  The scenario
   digests predate the array generator, and the stream digests were
   captured from the column stream before the object stream was folded
   into it.
2. **The end-to-end benchmark's names are the one workload model.**
   ``make_workload_arrays``, ``Scenario.to_scenario`` and
   ``VectorUpdateStream`` are aliases the benchmark calls: the same
   draws, the same objects, the same columns.

The ``test_vector_stream_*`` tests check the stream's column view,
``updates_at``, tick by tick: determinism per seed, the ``T_M`` bound,
the ``t_m < 1`` refusal and the domain.  The object view, homing and
the engine feed are tested in ``test_updates.py``.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.workloads import (
    DISTRIBUTIONS,
    UpdateStream,
    VectorUpdateStream,
    make_workload,
    make_workload_arrays,
)

N, T_M, SCENARIO_SEED, STREAM_SEED = 48, 20.0, 7, 9

# sha256 (first 16 hex) over repr((oid,) + kbox.params()) per object,
# set A then set B, for make_workload(48, dist, t_m=20.0, seed=7).
SCENARIO_DIGESTS = {
    "uniform": "fcf77733a3f61096",
    "gaussian": "4cf60e6197a319e9",
    "battlefield": "742cb0921ad1ef8e",
    "road": "686221e228326420",
}

# sha256 (first 16 hex) over repr((t, oid) + kbox.params()) per emitted
# update, for UpdateStream(scenario, seed=9).by_timestamp(1.0, 12.0).
STREAM_DIGESTS = {
    "uniform": "708be2abf6aa9dfb",
    "gaussian": "87540f2d0c8175d5",
    "battlefield": "f2efe739ed2aeb61",
    "road": "10795e0bd59861ec",
}


def scenario_digest(scenario):
    h = hashlib.sha256()
    for o in list(scenario.set_a) + list(scenario.set_b):
        h.update(repr((o.oid,) + o.kbox.params()).encode())
    return h.hexdigest()[:16]


def stream_digest(scenario, seed=STREAM_SEED):
    h = hashlib.sha256()
    stream = UpdateStream(scenario, seed=seed)
    for t, batch in stream.by_timestamp(1.0, 12.0):
        for o in batch:
            h.update(repr((t, o.oid) + o.kbox.params()).encode())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("distribution", DISTRIBUTIONS)
def test_seeded_scenarios_are_byte_stable(distribution):
    scenario = make_workload(N, distribution, t_m=T_M, seed=SCENARIO_SEED)
    assert scenario_digest(scenario) == SCENARIO_DIGESTS[distribution]


@pytest.mark.parametrize("distribution", DISTRIBUTIONS)
def test_seeded_streams_are_byte_stable(distribution):
    scenario = make_workload(N, distribution, t_m=T_M, seed=SCENARIO_SEED)
    assert stream_digest(scenario) == STREAM_DIGESTS[distribution]


@pytest.mark.parametrize("distribution", DISTRIBUTIONS)
def test_array_generator_reproduces_object_generator(distribution):
    """The benchmark's ``make_workload_arrays(...).to_scenario()`` holds
    ``make_workload``'s objects, and its ``VectorUpdateStream`` draws the
    one stream."""
    rebuilt = make_workload_arrays(N, distribution, t_m=T_M, seed=SCENARIO_SEED).to_scenario()
    want = make_workload(N, distribution, t_m=T_M, seed=SCENARIO_SEED)
    assert rebuilt.set_a == want.set_a and rebuilt.set_b == want.set_b
    assert scenario_digest(rebuilt) == SCENARIO_DIGESTS[distribution]
    columns = VectorUpdateStream(rebuilt, seed=STREAM_SEED)
    for t, batch in UpdateStream(want, seed=STREAM_SEED).by_timestamp(1.0, 12.0):
        upd_a, upd_b = columns.updates_at(t)
        assert batch == upd_a.objects() + upd_b.objects()


def test_array_scenario_columns_match_objects():
    """``set_a``/``set_b`` are the scenario's columns as objects."""
    scenario = make_workload(N, "uniform", t_m=T_M, seed=SCENARIO_SEED)
    for cols, objs in (
        (scenario.columns_a(), scenario.set_a),
        (scenario.columns_b(), scenario.set_b),
    ):
        assert cols.oid.tolist() == [o.oid for o in objs]
        for i, o in enumerate(objs):
            params = (
                cols.mlo[0, i], cols.mhi[0, i], cols.mlo[1, i], cols.mhi[1, i],
                cols.vlo[0, i], cols.vhi[0, i], cols.vlo[1, i], cols.vhi[1, i],
                cols.tref[i],
            )
            assert params == o.kbox.params()
        assert np.array_equal(cols.vlo, cols.vhi)  # rigid objects


def test_vector_stream_is_deterministic_per_seed():
    def emitted(seed):
        scenario = make_workload(N, "uniform", t_m=T_M, seed=SCENARIO_SEED)
        stream = UpdateStream(scenario, seed=seed)
        out = []
        for step in range(1, 13):
            for cols in stream.updates_at(float(step)):
                out.append((cols.oid.tobytes(), cols.mlo.tobytes(), cols.vlo.tobytes()))
        return out

    assert emitted(4) == emitted(4)
    assert emitted(4) != emitted(5)


@pytest.mark.parametrize("distribution", ["uniform", "battlefield", "road"])
def test_vector_stream_respects_t_m(distribution):
    """Every object updates within T_M of its previous reference time."""
    scenario = make_workload(N, distribution, t_m=T_M, seed=SCENARIO_SEED)
    stream = UpdateStream(scenario, seed=STREAM_SEED)
    last = {int(oid): 0.0 for oid in scenario.oid_a.tolist() + scenario.oid_b.tolist()}
    seen = set()
    for step in range(1, int(T_M) + 1):
        t = float(step)
        for cols in stream.updates_at(t):
            assert np.all(cols.tref == t)
            for oid in cols.oid.tolist():
                assert t - last[oid] <= T_M
                last[oid] = t
                seen.add(oid)
    assert seen == set(last)  # everyone updated at least once within T_M


def test_vector_stream_refuses_t_m_below_one():
    scenario = make_workload(N, "uniform", t_m=0.5, seed=SCENARIO_SEED)
    with pytest.raises(ValueError, match="t_m=0.5"):
        UpdateStream(scenario)


def test_vector_stream_positions_stay_in_space():
    scenario = make_workload(N, "road", t_m=T_M, seed=SCENARIO_SEED)
    stream = UpdateStream(scenario, seed=STREAM_SEED)
    hi = scenario.space_size - scenario.object_side
    for step in range(1, 25):
        for cols in stream.updates_at(float(step)):
            assert np.all(cols.mlo >= 0.0)
            assert np.all(cols.mlo <= hi)
