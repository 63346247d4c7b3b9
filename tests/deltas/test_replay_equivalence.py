"""The delta API's edges on the two engines that keep a ledger.

The replay-equivalence contract itself — folding the netted stream
rebuilds the store bit-for-bit, and the tree and columnar engines emit
identical netted streams — is an invariant of the stateful model
(``tests/test_model.py``), checked after every rule.  The sharded
engine keeps no delta stream and refuses ``deltas=True``
(``tests/par/test_sharded.py``).
"""

from __future__ import annotations

import pytest

from repro.core import ColumnarJoinEngine, ContinuousJoinEngine, JoinConfig

from .conftest import T_M, delta_batches, delta_workload


def config():
    return JoinConfig(t_m=T_M, node_capacity=8, deltas=True)


# ----------------------------------------------------------------------
# API edges
# ----------------------------------------------------------------------
class TestApiEdges:
    def test_constant_delay_enumeration(self):
        """Re-enumerating a tick builds an equal tuple from the netted
        planes (no tuple is kept), and iteration yields DeltaEvent
        records."""
        scenario = delta_workload()
        engine = ContinuousJoinEngine(
            scenario.set_a, scenario.set_b, "mtb", config()
        )
        engine.run_initial_join()
        first = engine.deltas()
        again = engine.deltas()
        assert first and again == first and again is not first
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

    @pytest.mark.parametrize("engine_cls", [ContinuousJoinEngine, ColumnarJoinEngine])
    def test_future_tick_is_refused(self, engine_cls):
        """``deltas(t)`` for a tick after the clock raises, and answers
        once the clock has reached it."""
        scenario = delta_workload()
        engine = engine_cls(scenario.set_a, scenario.set_b, "mtb", config())
        engine.run_initial_join()
        batches = dict(delta_batches(scenario))
        with pytest.raises(ValueError, match="not begun"):
            engine.deltas(3.0)
        for t in (1.0, 2.0, 3.0):
            engine.tick(t)
            engine.apply_updates(batches[t])
        assert engine.deltas(3.0)
