"""JoinResultStore: interval bookkeeping and per-object invalidation."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import INF, TimeInterval
from repro.geometry.constants import MERGE_TOL
from repro.join import JoinTriple

from ..reference_store import JoinResultStore


def triple(a, b, s, e):
    return JoinTriple(a, b, TimeInterval(s, e))


class TestBasics:
    def test_add_and_query(self):
        store = JoinResultStore()
        store.add(triple(1, 2, 0, 5))
        assert store.pairs_at(3) == {(1, 2)}
        assert store.pairs_at(6) == set()
        assert (1, 2) in store
        assert len(store) == 1

    def test_boundaries_inclusive(self):
        store = JoinResultStore()
        store.add(triple(1, 2, 2, 4))
        assert store.pairs_at(2) == {(1, 2)}
        assert store.pairs_at(4) == {(1, 2)}

    def test_multiple_intervals_merged(self):
        store = JoinResultStore()
        store.add(triple(1, 2, 0, 2))
        store.add(triple(1, 2, 5, 8))
        store.add(triple(1, 2, 2, 3))  # touches the first → merges
        assert store.intervals_for((1, 2)) == [TimeInterval(0, 3), TimeInterval(5, 8)]
        assert store.pairs_at(4) == set()
        assert store.pairs_at(6) == {(1, 2)}

    def test_unbounded(self):
        store = JoinResultStore()
        store.add(triple(1, 2, 3, INF))
        assert store.pairs_at(1e9) == {(1, 2)}

    def test_clear(self):
        store = JoinResultStore()
        store.add(triple(1, 2, 0, 1))
        store.clear()
        assert len(store) == 0


class TestInvalidation:
    def test_remove_object_drops_all_its_pairs(self):
        store = JoinResultStore()
        store.add(triple(1, 10, 0, 9))
        store.add(triple(1, 11, 0, 9))
        store.add(triple(2, 10, 0, 9))
        assert store.remove_object(1) == 2
        assert store.pairs_at(5) == {(2, 10)}

    def test_remove_other_side(self):
        store = JoinResultStore()
        store.add(triple(1, 10, 0, 9))
        store.add(triple(2, 10, 0, 9))
        assert store.remove_object(10) == 2
        assert store.pairs_at(5) == set()

    def test_remove_unknown_is_noop(self):
        store = JoinResultStore()
        assert store.remove_object(42) == 0

    def test_readd_after_remove(self):
        store = JoinResultStore()
        store.add(triple(1, 10, 0, 9))
        store.remove_object(1)
        store.add(triple(1, 10, 4, 6))
        assert store.intervals_for((1, 10)) == [TimeInterval(4, 6)]


class TestAgainstReferenceModel:
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 5),          # a
                st.integers(10, 15),        # b
                st.floats(0, 50, allow_nan=False),
                st.floats(0, 10, allow_nan=False),
            ),
            max_size=40,
        ),
        st.floats(0, 60, allow_nan=False),
    )
    @settings(max_examples=200)
    def test_pairs_at_matches_naive_model(self, adds, t):
        # The model must mirror the store's documented merge rule:
        # per-pair gaps no wider than MERGE_TOL are glued shut, so a
        # query inside such a micro-gap still reports the pair.
        store = JoinResultStore()
        spans = {}
        for a, b, s, length in adds:
            store.add(triple(a, b, s, s + length))
            spans.setdefault((a, b), []).append((s, s + length))
        want = set()
        for key, ivs in spans.items():
            merged = []
            for s, e in sorted(ivs):
                if merged and s <= merged[-1][1] + MERGE_TOL:
                    merged[-1][1] = max(merged[-1][1], e)
                else:
                    merged.append([s, e])
            if any(s <= t <= e for s, e in merged):
                want.add(key)
        assert store.pairs_at(t) == want

    def test_random_interleaving_with_removals(self):
        rng = random.Random(12)
        store = JoinResultStore()
        model = []
        for step in range(800):
            op = rng.random()
            if op < 0.7:
                a, b = rng.randint(0, 8), rng.randint(100, 108)
                s = rng.uniform(0, 40)
                e = s + rng.uniform(0, 10)
                store.add(triple(a, b, s, e))
                model.append((a, b, s, e))
            else:
                victim = rng.randint(0, 8) if op < 0.85 else rng.randint(100, 108)
                store.remove_object(victim)
                model = [m for m in model if victim not in (m[0], m[1])]
            if step % 50 == 0:
                t = rng.uniform(0, 50)
                want = {(a, b) for a, b, s, e in model if s <= t <= e}
                assert store.pairs_at(t) == want, step
