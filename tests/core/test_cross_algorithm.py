"""Cross-algorithm equivalence: all four engines answer identically.

Rather than comparing each engine to the brute-force oracle (done in
``test_engine.py``), this suite runs the *same* scenario through every
algorithm in lockstep and requires snapshot-identical answers at every
timestamp — the strongest black-box statement of the paper's claim that
TC/MTB processing changes cost, never results.
"""

import pytest

from repro.core import ALGORITHMS, ContinuousJoinEngine, JoinConfig
from repro.workloads import UpdateStream, make_workload


def run_lockstep(distribution, n=90, t_m=10.0, steps=22, seed=31):
    scenario = make_workload(
        n, distribution, max_speed=3.0, object_size_pct=1.2, t_m=t_m, seed=seed
    )
    config = JoinConfig(t_m=t_m)
    engines = {}
    for algorithm in ALGORITHMS:
        engines[algorithm] = ContinuousJoinEngine.create(
            scenario.set_a, scenario.set_b, algorithm=algorithm, config=config
        )
        engines[algorithm].run_initial_join()
    snapshots = []
    stream = UpdateStream(scenario, seed=seed + 5)
    for t, batch in stream.by_timestamp(1.0, float(steps)):
        answers = {}
        for algorithm, engine in engines.items():
            engine.tick(t)
            for obj in batch:
                engine.apply_update(obj)
            answers[algorithm] = engine.result_at(t)
        snapshots.append((t, answers))
    return snapshots


@pytest.mark.parametrize("distribution", ["uniform", "gaussian", "battlefield"])
def test_all_algorithms_identical(distribution):
    for t, answers in run_lockstep(distribution):
        baseline = answers["naive"]
        for algorithm, answer in answers.items():
            assert answer == baseline, (distribution, t, algorithm)


def test_all_algorithms_identical_fast_small_objects():
    """High speed + tiny objects: many short-lived pairs."""
    for t, answers in run_lockstep("uniform", n=70, t_m=6.0, seed=77):
        baseline = answers["naive"]
        for algorithm, answer in answers.items():
            assert answer == baseline, (t, algorithm)
