"""Answers kept between reads, one per look-ahead offset.

:meth:`ColumnResultStore.pairs_at` keeps the answer of a read at ``t``
under its offset ``t - clock`` (the engine's clock is offset 0) as
sorted pair keys plus the set of tuples built from them, and the next
read at that offset creates or discards tuples only for the pairs that
entered or left.  Every read still masks the planes, so a kept set is
only the base of a diff.  These tests hold the store's side of that
contract on hand-made rows; the stateful model (``tests/test_model.py``)
holds every engine's reads to the plane read, to set ownership, to the
entered/left counters and to the kept offsets after any sequence of
operations.
"""

from __future__ import annotations

import numpy as np

from repro.core.result import ColumnResultStore

#: Past the packed key's 31 bits: these oids take the structured key.
WIDE = 2**31


def store_of(rows, clock):
    store = ColumnResultStore()
    store.add_batch(*(np.array(col) for col in zip(*rows)))
    store.clock = clock
    return store


class TestKeptAnswer:
    """The store's side of the contract, on hand-made rows."""

    def store(self, rows, clock):
        return store_of(rows, clock)

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


class TestKeptPerOffset:
    """Look-ahead offsets keep their answers like the clock does."""

    def store(self):
        return store_of([(1, 2, 0.0, 10.0), (1, 3, 2.0, 5.0), (4, 2, 6.0, 9.0)], 0.0)

    def test_each_offset_diffs_against_its_own_answer(self):
        store = self.store()
        assert store.pairs_at(1.0) == {(1, 2)}
        assert store.pairs_at(5.0) == {(1, 2), (1, 3)}
        store.clock = 2.0
        assert store.pairs_at(3.0) == {(1, 2), (1, 3)}
        assert store.pairs_at(7.0) == {(1, 2), (4, 2)}
        assert sorted(store._answers) == [1.0, 5.0]
        # Only the clock's reads are counted, and there were none.
        assert (store.pairs_entered, store.pairs_left, store.answer_rebuilds) == (0, 0, 0)

    def test_a_returned_set_is_the_callers(self):
        store = self.store()
        first = store.pairs_at(3.0)
        first.clear()
        assert store.pairs_at(3.0) == {(1, 2), (1, 3)}
        assert store.pairs_at(3.0) is not store.pairs_at(3.0)

    def test_a_clock_move_drops_the_offsets_not_read_since_the_last(self):
        store = self.store()
        store.pairs_at(0.0)
        store.pairs_at(0.5)  # a one-off read
        store.clock = 1.0
        assert sorted(store._answers) == [0.0, 0.5]
        store.pairs_at(1.0)
        store.clock = 1.0  # not a move
        assert sorted(store._answers) == [0.0, 0.5]
        store.clock = 2.0
        assert sorted(store._answers) == [0.0]
        store.clock = 3.0
        assert store._answers == {}
        # The clock answer comes back whole, as on the first read.
        assert store.answer_rebuilds == 1
        assert store.pairs_at(3.0) == {(1, 2), (1, 3)}
        assert store.answer_rebuilds == 2

    def test_no_clock_keeps_nothing(self):
        store = ColumnResultStore()
        store.add_batch([1], [2], [0.0], [1.0])
        assert store.pairs_at(0.5) == {(1, 2)} and store._answers == {}
