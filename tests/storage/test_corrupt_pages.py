"""CRC32 page integrity: corruption is detected, old formats are refused."""

from __future__ import annotations

import struct

import pytest

from repro.storage import (
    CorruptPageError,
    DiskManager,
    FileDiskManager,
    PageError,
    load_column_store,
    load_columns,
    save_column_store,
    save_columns,
)
from repro.storage import column_pages

from ..conftest import random_objects
from .test_column_pages import assert_columns_equal, some_columns

_HEADER = struct.Struct("<8sqqq")


@pytest.fixture
def path(tmp_path):
    return str(tmp_path / "pages.db")


def flip_byte(path: str, offset: int, mask: int = 0x40) -> None:
    with open(path, "r+b") as f:
        f.seek(offset)
        byte = f.read(1)[0]
        f.seek(offset)
        f.write(bytes([byte ^ mask]))


def page_offset(page_size: int, page_id: int) -> int:
    return _HEADER.size + page_id * page_size


def write_page_file(path: str, magic: bytes, page_size: int, payloads) -> None:
    """Synthesize a length-only-framed page file under ``magic``."""
    with open(path, "wb") as f:
        f.write(_HEADER.pack(magic, page_size, len(payloads), -1))
        for data in payloads:
            framed = struct.pack("<i", len(data)) + data
            f.write(framed.ljust(page_size, b"\x00"))


class TestFileDiskChecksums:
    def test_new_files_are_version_2(self, path):
        with FileDiskManager(path, page_size=128) as disk:
            assert disk.format_version == 2
            assert disk.usable_page_size == 128 - 8
        assert FileDiskManager(path).format_version == 2

    def test_payload_bit_flip_detected(self, path):
        disk = FileDiskManager(path, page_size=128)
        pid = disk.allocate()
        disk.write_page(pid, b"payload-bytes")
        disk.close()
        # Flip one bit inside the payload, past the 8-byte frame.
        flip_byte(path, page_offset(128, pid) + 8 + 3)
        reopened = FileDiskManager(path)
        with pytest.raises(CorruptPageError, match="CRC32"):
            reopened.read_page(pid)
        reopened.close()

    def test_corrupt_length_detected(self, path):
        disk = FileDiskManager(path, page_size=128)
        pid = disk.allocate()
        disk.write_page(pid, b"x" * 16)
        disk.close()
        with open(path, "r+b") as f:
            f.seek(page_offset(128, pid))
            f.write(struct.pack("<i", 10_000))
        reopened = FileDiskManager(path)
        with pytest.raises(CorruptPageError, match="length"):
            reopened.read_page(pid)
        reopened.close()

    def test_crc_mismatch_detected(self, path):
        disk = FileDiskManager(path, page_size=128)
        pid = disk.allocate()
        disk.write_page(pid, b"y" * 16)
        disk.close()
        # Corrupt the stored checksum itself.
        flip_byte(path, page_offset(128, pid) + 4)
        reopened = FileDiskManager(path)
        with pytest.raises(CorruptPageError):
            reopened.read_page(pid)
        reopened.close()

    @pytest.mark.parametrize("magic", [b"RPRODISK", b"NOTMAGIC"])
    def test_v1_magic_refused(self, path, magic):
        """The version-1 reader is gone: a well-formed ``RPRODISK`` file
        gets the same typed refusal as any unknown magic."""
        write_page_file(path, magic, 128, [b"hello", b"world"])
        with pytest.raises(PageError, match="not a repro page file"):
            FileDiskManager(path)

    def test_recycled_page_reads_empty(self, path):
        disk = FileDiskManager(path, page_size=128)
        pid = disk.allocate()
        disk.write_page(pid, b"stale")
        disk.deallocate(pid)
        again = disk.allocate()
        assert again == pid
        # The stale free-link/frame must not survive as readable data.
        assert disk.read_page(again) == b""
        disk.close()

    def test_empty_page_validates(self, path):
        disk = FileDiskManager(path, page_size=128)
        pid = disk.allocate()
        assert disk.read_page(pid) == b""
        disk.write_page(pid, b"")
        assert disk.read_page(pid) == b""
        disk.close()

    def test_oversize_respects_v2_frame(self, path):
        disk = FileDiskManager(path, page_size=128)
        pid = disk.allocate()
        with pytest.raises(PageError):
            disk.write_page(pid, b"x" * (disk.usable_page_size + 1))
        disk.close()


def image(cols) -> bytes:
    """The ``RPROCOL3`` image a page chain carries."""
    return b"".join(column_pages._encode(cols))


class TestColumnStreamChecksums:
    def test_truncated_stream_detected(self):
        stream = image(some_columns(n=30))
        with pytest.raises(CorruptPageError, match="truncated"):
            column_pages.read_column_stream(stream[:-10])

    def test_payload_bit_flip_detected(self):
        stream = bytearray(image(some_columns(n=30)))
        stream[column_pages._V3_HEADER_SIZE + 11] ^= 0x20
        with pytest.raises(CorruptPageError, match="CRC32"):
            column_pages.read_column_stream(bytes(stream))

    def test_unsupported_version_rejected(self):
        cols = some_columns(n=5)
        stream = bytearray(image(cols))
        stream[8] = 9  # the version byte right after the magic
        with pytest.raises(ValueError, match="version"):
            column_pages.read_column_stream(bytes(stream))

    def test_round_trip_on_checksummed_file(self, tmp_path):
        from repro.core import ColumnStore

        objs = random_objects(5, 60)
        store = ColumnStore.from_objects(objs)
        disk = FileDiskManager(str(tmp_path / "cols.db"), page_size=256)
        root = save_column_store(disk, store)
        back = load_column_store(disk, root)
        n = len(store)
        assert back.oid[:n].tolist() == store.oid[:n].tolist()
        disk.close()

    def test_chunking_respects_usable_page_size(self, tmp_path):
        # File pages lose 8 framing bytes; the chain must never ask
        # a page to hold more than it can.
        disk = FileDiskManager(str(tmp_path / "tight.db"), page_size=64)
        cols = some_columns(n=40)
        root = save_columns(disk, cols)
        assert_columns_equal(load_columns(disk, root), cols)
        disk.close()

    def test_in_memory_disk_unchanged(self):
        disk = DiskManager(page_size=512)
        assert disk.usable_page_size == 512
        cols = some_columns(n=40)
        root = save_columns(disk, cols)
        assert_columns_equal(load_columns(disk, root), cols)
