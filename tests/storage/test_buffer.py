"""Tests for the LRU buffer pool, including a reference-model fuzz."""

import random

import pytest

from repro.storage import BufferPool, DiskManager

from . import RawCodec


def make_pool(capacity=3):
    disk = DiskManager()
    pool = BufferPool(disk, RawCodec(), capacity=capacity)
    return disk, pool


class TestBasics:
    def test_put_get_hit(self):
        disk, pool = make_pool()
        pid = disk.allocate()
        pool.put(pid, b"x")
        assert pool.get(pid) == b"x"
        assert disk.tracker.page_reads == 0  # never touched disk
        assert pool.hits == 1

    def test_miss_reads_disk(self):
        disk, pool = make_pool()
        pid = disk.allocate()
        disk.write_page(pid, b"cold")
        assert pool.get(pid) == b"cold"
        assert disk.tracker.page_reads == 1
        assert pool.misses == 1
        pool.get(pid)
        assert disk.tracker.page_reads == 1  # second access hits

    def test_invalid_capacity(self):
        disk = DiskManager()
        with pytest.raises(ValueError):
            BufferPool(disk, RawCodec(), capacity=0)

    def test_contains_and_len(self):
        disk, pool = make_pool()
        pid = disk.allocate()
        pool.put(pid, b"x")
        assert pid in pool
        assert len(pool) == 1


class TestEviction:
    def test_lru_evicts_oldest(self):
        disk, pool = make_pool(capacity=2)
        p1, p2, p3 = disk.allocate(), disk.allocate(), disk.allocate()
        pool.put(p1, b"1")
        pool.put(p2, b"2")
        pool.get(p1)          # p1 is now more recent than p2
        pool.put(p3, b"3")    # evicts p2
        assert p2 not in pool
        assert p1 in pool and p3 in pool

    def test_dirty_eviction_writes_back(self):
        disk, pool = make_pool(capacity=1)
        p1, p2 = disk.allocate(), disk.allocate()
        pool.put(p1, b"dirty")
        pool.put(p2, b"next")      # evicts p1 → must write it
        assert disk.tracker.page_writes == 1
        assert disk.read_page(p1) == b"dirty"

    def test_clean_eviction_is_free(self):
        disk, pool = make_pool(capacity=1)
        p1, p2 = disk.allocate(), disk.allocate()
        disk.write_page(p1, b"a")
        disk.write_page(p2, b"b")
        writes_before = disk.tracker.page_writes
        pool.get(p1)
        pool.get(p2)               # evicts clean p1 — no write-back
        assert disk.tracker.page_writes == writes_before

    def test_eviction_of_deallocated_page_skips_writeback(self):
        disk, pool = make_pool(capacity=1)
        p1, p2 = disk.allocate(), disk.allocate()
        pool.put(p1, b"gone")
        disk.deallocate(p1)
        pool.put(p2, b"next")  # eviction of p1 must not explode
        assert disk.tracker.page_writes == 0


class TestMaintenance:
    def test_flush_writes_all_dirty(self):
        disk, pool = make_pool(capacity=4)
        pids = [disk.allocate() for _ in range(3)]
        for pid in pids:
            pool.put(pid, b"d")
        assert pool.flush() == 3
        assert pool.flush() == 0  # now clean
        for pid in pids:
            assert disk.read_page(pid) == b"d"

    def test_mark_dirty(self):
        disk, pool = make_pool()
        pid = disk.allocate()
        disk.write_page(pid, b"orig")
        obj = pool.get(pid)
        assert obj == b"orig"
        pool.put(pid, b"changed")
        pool.flush()
        assert disk.read_page(pid) == b"changed"

    def test_discard_drops_without_writeback(self):
        disk, pool = make_pool()
        pid = disk.allocate()
        pool.put(pid, b"temp")
        pool.discard(pid)
        assert pid not in pool
        assert disk.tracker.page_writes == 0

    def test_clear_flushes_then_empties(self):
        disk, pool = make_pool()
        pid = disk.allocate()
        pool.put(pid, b"x")
        pool.clear()
        assert len(pool) == 0
        assert disk.read_page(pid) == b"x"

    def test_hit_ratio(self):
        disk, pool = make_pool()
        pid = disk.allocate()
        disk.write_page(pid, b"v")
        pool.get(pid)
        pool.get(pid)
        assert pool.hit_ratio == pytest.approx(0.5)


class TestAgainstReferenceModel:
    def test_fuzz_against_dict_model(self):
        """Random ops on the pool must match a plain dict 'database'."""
        rng = random.Random(42)
        disk, pool = make_pool(capacity=4)
        model = {}
        pids = [disk.allocate() for _ in range(10)]
        for pid in pids:
            payload = bytes([pid]) * 4
            disk.write_page(pid, payload)
            model[pid] = payload
        for step in range(2000):
            pid = rng.choice(pids)
            op = rng.random()
            if op < 0.6:
                assert pool.get(pid) == model[pid], step
            else:
                payload = bytes([rng.randrange(256)]) * 4
                pool.put(pid, payload)
                model[pid] = payload
        pool.flush()
        for pid in pids:
            assert disk.read_page(pid) == model[pid]

    def test_io_bounded_by_capacity_misses(self):
        """A working set within capacity converges to zero misses."""
        disk, pool = make_pool(capacity=5)
        pids = [disk.allocate() for _ in range(5)]
        for pid in pids:
            disk.write_page(pid, b"v")
        for _ in range(3):
            for pid in pids:
                pool.get(pid)
        assert pool.misses == 5  # only the cold start
        assert pool.hits == 10
