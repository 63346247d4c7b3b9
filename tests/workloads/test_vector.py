"""Vectorized workloads: array generator equivalence and stream fixtures.

Two contracts are pinned here:

1. **Byte-identity of the seeded legacy streams.**  Vectorizing the
   generator must not move a single random draw: ``make_workload`` and
   ``UpdateStream`` outputs for a fixed seed are part of the repo's
   reproducibility surface (benchmark cells and differential fixtures
   reference them by seed).  The digests below were captured before the
   vectorization refactor; any drift fails loudly.
2. **Exact equivalence of the array generator.**
   ``make_workload_arrays(...).to_scenario()`` must reproduce
   ``make_workload(...)`` object-for-object — same oids, same kinetic
   parameters, same RNG advancement.

``VectorUpdateStream`` is deterministic per seed but intentionally *not*
draw-compatible with the scalar stream (it bulk-draws per tick); its
contract is the ``T_M`` guarantee plus engine-visible validity, tested
against the sanitizer.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core import ColumnarJoinEngine, JoinConfig
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
    "uniform": "3e2529b8b8f6c478",
    "gaussian": "ec1ede16ee6edbb9",
    "battlefield": "6d7b1d384ed0a81b",
    "road": "4eb4e84e6491ada4",
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
    arrays = make_workload_arrays(N, distribution, t_m=T_M, seed=SCENARIO_SEED)
    legacy = make_workload(N, distribution, t_m=T_M, seed=SCENARIO_SEED)
    rebuilt = arrays.to_scenario()
    for built, want in (
        (rebuilt.set_a, legacy.set_a),
        (rebuilt.set_b, legacy.set_b),
    ):
        assert [o.oid for o in built] == [o.oid for o in want]
        for x, y in zip(built, want):
            assert x.kbox.params() == y.kbox.params()
    # Identical RNG advancement too: the digests transfer as-is.
    assert scenario_digest(rebuilt) == SCENARIO_DIGESTS[distribution]


def test_array_scenario_columns_match_objects():
    arrays = make_workload_arrays(N, "uniform", t_m=T_M, seed=SCENARIO_SEED)
    scenario = arrays.to_scenario()
    for cols, objs in (
        (arrays.columns_a(), scenario.set_a),
        (arrays.columns_b(), scenario.set_b),
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
        arrays = make_workload_arrays(N, "uniform", t_m=T_M, seed=SCENARIO_SEED)
        stream = VectorUpdateStream(arrays, seed=seed)
        out = []
        for step in range(1, 13):
            for cols in stream.updates_at(float(step)):
                out.append(
                    (cols.oid.tobytes(), cols.mlo.tobytes(), cols.vlo.tobytes())
                )
        return out

    assert emitted(4) == emitted(4)
    assert emitted(4) != emitted(5)


@pytest.mark.parametrize("distribution", ["uniform", "battlefield", "road"])
def test_vector_stream_respects_t_m(distribution):
    """Every object updates within T_M of its previous reference time."""
    arrays = make_workload_arrays(N, distribution, t_m=T_M, seed=SCENARIO_SEED)
    stream = VectorUpdateStream(arrays, seed=STREAM_SEED)
    last = {int(oid): 0.0 for oid in arrays.oid_a.tolist() + arrays.oid_b.tolist()}
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


def test_vector_stream_drives_engine_cleanly():
    """Sanitized engine accepts the stream's batches for a full window."""
    arrays = make_workload_arrays(
        N, "battlefield", t_m=12.0, max_speed=3.0, seed=SCENARIO_SEED
    )
    engine = ColumnarJoinEngine(
        arrays.columns_a(),
        arrays.columns_b(),
        algorithm="mtb",
        config=JoinConfig(t_m=12.0, sanitize=True),
    )
    engine.run_initial_join()
    stream = VectorUpdateStream(arrays, seed=STREAM_SEED)
    applied = 0
    for step in range(1, 13):
        t = float(step)
        engine.tick(t)
        upd_a, upd_b = stream.updates_at(t)
        engine.apply_update_columns(upd_a, upd_b)
        applied += len(upd_a) + len(upd_b)
    assert applied == engine.update_count > 0


def test_vector_stream_positions_stay_in_space():
    arrays = make_workload_arrays(N, "road", t_m=T_M, seed=SCENARIO_SEED)
    stream = VectorUpdateStream(arrays, seed=STREAM_SEED)
    hi = arrays.space_size - arrays.object_side
    for step in range(1, 25):
        for cols in stream.updates_at(float(step)):
            assert np.all(cols.mlo >= 0.0)
            assert np.all(cols.mlo <= hi)
