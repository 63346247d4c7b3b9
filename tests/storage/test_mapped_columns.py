"""Memory-mapped column slabs: RPROCOL3 round trips, lazy integrity,
and the one image shared by files and page chains."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import columns_from_objects
from repro.storage import (
    CorruptPageError,
    DiskManager,
    MappedColumns,
    map_columns,
    read_column_stream,
    save_columns,
    save_columns_file,
)
from repro.storage.column_pages import _N_SLABS, _NEXT, _V3_HEADER_SIZE, _encode
from repro.workloads import make_workload


def some_columns(n=150, seed=3):
    return columns_from_objects(make_workload(n, "uniform", seed=seed).set_a)


def assert_columns_equal(got, want):
    assert np.array_equal(np.asarray(got.oid), want.oid)
    for name in ("mlo", "mhi", "vlo", "vhi", "tref"):
        assert np.array_equal(np.asarray(getattr(got, name)), getattr(want, name)), name


# ----------------------------------------------------------------------
# RPROCOL3 slab images
# ----------------------------------------------------------------------
class TestMappedColumns:
    def test_round_trip(self, tmp_path):
        cols = some_columns()
        path = tmp_path / "cols.rcol3"
        nbytes = save_columns_file(path, cols)
        assert path.stat().st_size == nbytes
        mapped = map_columns(path)
        assert isinstance(mapped, MappedColumns)
        assert len(mapped) == len(cols)
        assert_columns_equal(mapped, cols)

    def test_header_is_aligned(self):
        assert _V3_HEADER_SIZE % 8 == 0

    def test_open_reads_only_the_header(self, tmp_path):
        """No slab is verified at open; the batch touch verifies all."""
        cols = some_columns()
        path = tmp_path / "cols.rcol3"
        save_columns_file(path, cols)
        mapped = map_columns(path)
        assert sum(mapped._verified) == 0
        mapped.oid
        assert sum(mapped._verified) == 1
        mapped.batch()
        assert sum(mapped._verified) == _N_SLABS

    def test_shift_planes_recomputed_lazily(self, tmp_path):
        cols = some_columns()
        path = tmp_path / "cols.rcol3"
        save_columns_file(path, cols)
        mapped = map_columns(path)
        assert mapped._slo is None
        expect = cols.mlo - cols.vlo * cols.tref
        assert np.array_equal(mapped.slo, expect)
        assert mapped._slo is not None  # cached
        batch = mapped.batch()
        assert np.array_equal(batch.slo, expect)
        assert np.array_equal(batch.shi, cols.mhi - cols.vhi * cols.tref)

    def test_mapped_batch_sweeps_like_materialized(self, tmp_path):
        """The mapped batch is kernel-identical to an in-memory pack."""
        from repro.core import ColumnStore
        from repro.geometry.kernels import batch_sweep_join

        scenario = make_workload(80, "uniform", seed=9)
        cols_a = columns_from_objects(scenario.set_a)
        cols_b = columns_from_objects(scenario.set_b)
        path = tmp_path / "a.rcol3"
        save_columns_file(path, cols_a)
        mapped = map_columns(path)
        ref = ColumnStore.from_columns(cols_a).batch()
        other = ColumnStore.from_columns(cols_b).batch()
        got = batch_sweep_join(mapped.batch(), other, 0.0, 30.0)
        want = batch_sweep_join(ref, other, 0.0, 30.0)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    def test_empty_batch(self, tmp_path):
        from repro.core import UpdateColumns

        path = tmp_path / "empty.rcol3"
        save_columns_file(path, UpdateColumns.empty())
        mapped = map_columns(path)
        assert len(mapped) == 0
        assert mapped.batch().n == 0

    def test_materialize_matches(self, tmp_path):
        cols = some_columns()
        path = tmp_path / "cols.rcol3"
        save_columns_file(path, cols)
        assert_columns_equal(map_columns(path).columns(), cols)

    def test_v3_bytes_through_unified_reader(self, tmp_path):
        cols = some_columns()
        path = tmp_path / "cols.rcol3"
        save_columns_file(path, cols)
        assert_columns_equal(read_column_stream(path.read_bytes()), cols)

    def test_page_chain_carries_the_file_image(self, tmp_path):
        """One on-disk column format: the pages of a chain, next-page
        ids stripped, are the bytes of the mapped file."""
        cols = some_columns()
        path = tmp_path / "cols.rcol3"
        save_columns_file(path, cols)
        disk = DiskManager(page_size=512)
        pid, chain = save_columns(disk, cols), []
        while pid != -1:
            payload = disk.read_page(pid)
            pid = _NEXT.unpack_from(payload, 0)[0]
            chain.append(payload[_NEXT.size :])
        assert len(chain) > 1
        assert b"".join(chain) == path.read_bytes()


# ----------------------------------------------------------------------
# Integrity: corruption and truncation, caught per layer
# ----------------------------------------------------------------------
class TestIntegrity:
    def write(self, tmp_path, mutate=None):
        cols = some_columns()
        path = tmp_path / "cols.rcol3"
        save_columns_file(path, cols)
        if mutate is not None:
            data = bytearray(path.read_bytes())
            mutate(data)
            path.write_bytes(bytes(data))
        return path

    def test_header_bitflip_caught_at_open(self, tmp_path):
        def flip(data):
            data[10] ^= 0xFF  # inside the row-count field

        path = self.write(tmp_path, flip)
        with pytest.raises(CorruptPageError, match="header"):
            map_columns(path)

    def test_slab_bitflip_caught_on_first_touch(self, tmp_path):
        def flip(data):
            data[-5] ^= 0xFF  # last slab (vhi, highest dim)

        path = self.write(tmp_path, flip)
        mapped = map_columns(path)
        mapped.oid  # untouched slabs stay readable
        with pytest.raises(CorruptPageError, match="CRC32"):
            mapped.vhi

    def test_v3_truncation_caught_at_open(self, tmp_path):
        path = self.write(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(CorruptPageError, match="truncated"):
            map_columns(path)

    def test_unknown_magic_rejected(self, tmp_path):
        path = tmp_path / "bogus.rcol3"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
        with pytest.raises(ValueError, match="column-page stream"):
            map_columns(path)
        with pytest.raises(ValueError, match="column-page stream"):
            read_column_stream(path.read_bytes())

    @pytest.mark.parametrize("reader", ["read_column_stream", "map_columns"])
    def test_v1_magic_refused(self, tmp_path, reader):
        """The version-1 and version-2 readers are gone: ``RPROCOLS`` or
        ``RPROCOL2`` in front of otherwise well-formed column bytes is as
        unknown as any magic."""
        for magic in (b"RPROCOLS", b"RPROCOL2"):
            stream = magic + b"".join(_encode(some_columns()))[8:]
            with pytest.raises(ValueError, match="column-page stream"):
                if reader == "map_columns":
                    path = tmp_path / "old.rcols"
                    path.write_bytes(stream)
                    map_columns(path)
                else:
                    read_column_stream(stream)

