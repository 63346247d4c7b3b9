"""The answer at the clock, kept between reads.

:meth:`ColumnResultStore.pairs_at` keeps the answer at its engine's
clock as sorted pair keys plus the set of tuples built from them, and a
read at the clock creates or discards tuples only for the pairs that
entered or left.  Every read still masks the planes, so the kept set is
only the base of a diff.  These tests hold the store's side of that
contract on hand-made rows; the stateful model (``tests/test_model.py``)
holds every engine's clock reads to the plane read, to set ownership
and to the entered/left counters after any sequence of operations.
"""

from __future__ import annotations

import numpy as np

from repro.core.result import ColumnResultStore

#: Past the packed key's 31 bits: these oids take the structured key.
WIDE = 2**31


class TestKeptAnswer:
    """The store's side of the contract, on hand-made rows."""

    def store(self, rows, clock):
        store = ColumnResultStore()
        store.add_batch(*(np.array(col) for col in zip(*rows)))
        store.clock = clock
        return store

    def test_quiet_tick_counts_nothing(self):
        store = self.store([(1, 2, 0.0, 10.0), (1, 3, 0.0, 5.0), (4, 2, 2.0, 9.0)], 3.0)
        assert store.pairs_at(3.0) == {(1, 2), (1, 3), (4, 2)}
        assert (store.pairs_entered, store.pairs_left, store.answer_rebuilds) == (3, 0, 1)
        store.clock = 4.0  # no interval starts or ends in (3, 4]
        assert store.pairs_at(4.0) == {(1, 2), (1, 3), (4, 2)}
        assert (store.pairs_entered, store.pairs_left, store.answer_rebuilds) == (3, 0, 1)

    def test_boundaries_count_what_crossed(self):
        store = self.store([(1, 2, 0.0, 10.0), (1, 3, 0.0, 5.0), (4, 2, 6.0, 9.0)], 3.0)
        assert store.pairs_at(3.0) == {(1, 2), (1, 3)}
        store.clock = 7.0
        assert store.pairs_at(7.0) == {(1, 2), (4, 2)}
        # Two changes on an answer of two: the kept set is built anew.
        assert (store.pairs_entered, store.pairs_left, store.answer_rebuilds) == (3, 1, 2)
        store.clock = 12.0
        assert store.pairs_at(12.0) == set()
        assert (store.pairs_entered, store.pairs_left, store.answer_rebuilds) == (3, 3, 3)

    def test_reads_off_the_clock_leave_the_kept_answer(self):
        store = self.store([(1, 2, 0.0, 10.0), (1, 3, 0.0, 5.0)], 1.0)
        store.pairs_at(1.0)
        assert store.pairs_at(6.0) == {(1, 2)}
        assert (store.pairs_entered, store.pairs_left) == (2, 0)
        assert store.pairs_at(1.0) == {(1, 2), (1, 3)}
        assert (store.pairs_entered, store.pairs_left) == (2, 0)

    def test_mutations_between_reads_need_no_invalidation(self):
        store = self.store([(1, 2, 0.0, 10.0), (1, 3, 0.0, 5.0), (5, 6, 0.0, 8.0)], 1.0)
        store.pairs_at(1.0)
        store.remove_objects([3])
        store.add_batch([7, 8], [WIDE, 9], [0.5, 0.0], [4.0, 0.5])
        assert store.pairs_at(1.0) == {(1, 2), (5, 6), (7, WIDE)}
        assert (store.pairs_entered, store.pairs_left) == (4, 1)
        store.remove_objects([WIDE])  # back to packed keys
        assert store.pairs_at(1.0) == {(1, 2), (5, 6)}
        store.clear()
        assert store.pairs_at(1.0) == set()
        assert (store.pairs_entered, store.pairs_left) == (4, 4)
