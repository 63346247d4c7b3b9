"""LRU buffer accounting against hand-computed access traces.

``test_buffer.py`` checks the pool's *behavior* (contents, write-back,
fuzz against a dict model).  This module checks its *accounting*: every
access in a written-out trace is annotated with the hit/miss/eviction
and physical-I/O counters it must produce, both on the global
:class:`CostTracker` and — when an :class:`ObsRecorder` is attached —
on the span that was open when the traffic happened.
"""

from __future__ import annotations

from repro.obs import ObsRecorder
from repro.storage import BufferPool, DiskManager

from . import RawCodec


def make_pool(capacity, n_pages, recorder=None):
    disk = DiskManager()
    pool = BufferPool(disk, RawCodec(), capacity=capacity)
    pids = [disk.allocate() for _ in range(n_pages)]
    for pid in pids:
        disk.write_page(pid, bytes([pid % 256]))
    disk.tracker.reset()
    if recorder is not None:
        recorder.attach(disk.tracker)
    return disk, pool, pids


def stats(disk, pool):
    return (pool.hits, pool.misses,
            disk.tracker.page_reads, disk.tracker.page_writes)


class TestHandComputedTrace:
    def test_capacity_two_trace(self):
        disk, pool, (p0, p1, p2) = make_pool(2, 3)
        # (op, page, expected (hits, misses, reads, writes) afterwards)
        trace = [
            ("get", p0, (0, 1, 1, 0)),  # cold miss
            ("get", p1, (0, 2, 2, 0)),  # cold miss, pool [p0, p1]
            ("get", p0, (1, 2, 2, 0)),  # hit, p0 now MRU: [p1, p0]
            ("get", p2, (1, 3, 3, 0)),  # miss, evicts clean p1
            ("get", p1, (1, 4, 4, 0)),  # re-miss proves p1 was evicted; drops p0
            ("put", p2, (1, 4, 4, 0)),  # dirty in place, no I/O: [p1, p2]
            ("get", p0, (1, 5, 5, 0)),  # miss, evicts clean p1: [p2, p0]
            ("get", p1, (1, 6, 6, 1)),  # miss evicts dirty p2 → 1 write
            ("get", p2, (1, 7, 7, 1)),  # written-back page reads clean
        ]
        for i, (op, pid, want) in enumerate(trace):
            if op == "get":
                pool.get(pid)
            else:
                pool.put(pid, b"*")
            assert stats(disk, pool) == want, (i, op, pid)

    def test_capacity_one_thrashes_every_access(self):
        disk, pool, (p0, p1) = make_pool(1, 2)
        for round_no in range(1, 4):
            pool.get(p0)
            pool.get(p1)
            assert pool.hits == 0
            assert pool.misses == 2 * round_no
        # All evictions were clean: reads paid, never a write.
        assert disk.tracker.page_reads == 6
        assert disk.tracker.page_writes == 0

    def test_dirty_writeback_count_is_per_eviction(self):
        disk, pool, pids = make_pool(2, 4)
        for pid in pids:
            pool.put(pid, bytes([pid]))  # each put past 2 evicts dirty
        assert disk.tracker.page_writes == 2
        assert pool.flush() == 2         # the two still-resident frames
        assert disk.tracker.page_writes == 4
        for pid in pids:
            assert disk.read_page(pid) == bytes([pid])

    def test_repeated_put_stays_one_writeback(self):
        disk, pool, (p0, p1) = make_pool(1, 2)
        for _ in range(5):
            pool.put(p0, b"v")           # re-dirtying is free
        assert disk.tracker.page_writes == 0
        pool.get(p1)                     # single eviction, single write
        assert disk.tracker.page_writes == 1


class TestObsAttribution:
    def test_counters_match_pool_totals(self):
        rec = ObsRecorder()
        disk, pool, (p0, p1, p2) = make_pool(2, 3, recorder=rec)
        for pid in (p0, p1, p0, p2, p1, p0):
            pool.get(pid)
        totals = rec.root_totals()
        assert totals["buffer_hits"] == pool.hits == 1
        assert totals["buffer_misses"] == pool.misses == 5
        assert totals["buffer_evictions"] == 3
        assert totals["page_reads"] == disk.tracker.page_reads == 5

    def test_traffic_files_into_the_open_span(self):
        rec = ObsRecorder()
        disk, pool, (p0, p1) = make_pool(1, 2, recorder=rec)
        with rec.span("warm"):
            pool.get(p0)
        with rec.span("thrash"):
            pool.get(p1)
            pool.put(p1, b"*")
            pool.get(p0)                 # evicts dirty p1
        (warm,) = rec.find("warm")
        (thrash,) = rec.find("thrash")
        assert warm.counts == {"buffer_misses": 1, "page_reads": 1}
        assert thrash.counts == {
            "buffer_misses": 2,
            "buffer_evictions": 2,
            "page_reads": 2,
            "page_writes": 1,
        }

    def test_detached_pool_counts_locally_only(self):
        rec = ObsRecorder()
        disk, pool, (p0, p1) = make_pool(1, 2, recorder=rec)
        pool.get(p0)
        rec.detach()
        pool.get(p1)
        assert pool.misses == 2
        assert rec.root_totals() == {"buffer_misses": 1, "page_reads": 1}
