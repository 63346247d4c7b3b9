"""Tests for node serialization and page-capacity arithmetic."""

import hashlib
import random

from repro.geometry import Box, KineticBox
from repro.index import (
    ENTRY_BYTES,
    HEADER_BYTES,
    Entry,
    Node,
    NodeCodec,
    max_entries_for_page,
)
from repro.storage import DEFAULT_PAGE_SIZE

from ..conftest import random_kbox


class TestCapacityArithmetic:
    def test_entry_bytes(self):
        # ref (i64) + 9 doubles of kinetic-box parameters.
        assert ENTRY_BYTES == 8 + 72

    def test_default_page_fits_paper_capacity(self):
        # Table I uses node capacity 30; a 4 KiB page must hold it.
        assert max_entries_for_page(DEFAULT_PAGE_SIZE) >= 30

    def test_capacity_formula(self):
        assert max_entries_for_page(HEADER_BYTES + 3 * ENTRY_BYTES) == 3
        assert max_entries_for_page(HEADER_BYTES + 3 * ENTRY_BYTES - 1) == 2


class TestRoundTrip:
    def test_empty_leaf(self):
        codec = NodeCodec()
        node = Node(5, 0)
        decoded = codec.decode(codec.encode(node))
        assert decoded.page_id == 5
        assert decoded.level == 0
        assert decoded.entries == []

    def test_random_nodes(self):
        rng = random.Random(31)
        codec = NodeCodec()
        for _ in range(50):
            level = rng.randint(0, 3)
            entries = [
                Entry(random_kbox(rng), rng.randint(0, 10**9))
                for _ in range(rng.randint(0, 30))
            ]
            node = Node(rng.randint(0, 1000), level, entries)
            data = codec.encode(node)
            assert len(data) <= DEFAULT_PAGE_SIZE
            decoded = codec.decode(data)
            assert decoded.page_id == node.page_id
            assert decoded.level == node.level
            assert decoded.entries == node.entries

    def test_full_node_fits_page(self):
        rng = random.Random(1)
        codec = NodeCodec()
        capacity = max_entries_for_page(DEFAULT_PAGE_SIZE)
        node = Node(0, 2, [Entry(random_kbox(rng), i) for i in range(capacity)])
        assert len(codec.encode(node)) <= DEFAULT_PAGE_SIZE


class TestPinnedBytes:
    """The page layout is fixed: a change to field order, widths,
    endianness or the sign of zero moves these digests."""

    LEAF = Node(2**40 + 7, 0, [
        Entry(KineticBox.from_params(
            (-12.5, -0.0, 1e-3, 3.25, -0.0, 0.75, -1.5, -0.0, -0.125)), 2**33 + 1),
        Entry(KineticBox.from_params(
            (0.1, 0.2, -7.0, -6.9, -2.5, 2.5, 0.0, 0.0, 12.0625)), 2**63 - 1),
        Entry(KineticBox.from_params(
            (-1e300, 1e-300, -0.3, 0.3, -1.0 / 3, 1.0 / 3, -5.0, -4.0, 60.0)), 5),
    ])
    INNER = Node(3, 2, [
        Entry(KineticBox.from_params(
            (-0.0, 0.0, -0.0, 0.0, -3.5, 3.5, -0.0, 2.2, 7.7)), 2**32),
        Entry(KineticBox.from_params(
            (123.456, 789.012, -345.678, -12.5, -9.75, -0.5, 0.5, 9.75, -1.0)),
            -(2**35)),
    ])

    def test_leaf_digest(self):
        data = NodeCodec().encode(self.LEAF)
        assert len(data) == HEADER_BYTES + 3 * ENTRY_BYTES
        assert hashlib.sha256(data).hexdigest() == (
            "ca7744a6eeb18e9e46db3f2786a0d451e004165d7eaaea66a9af980908bdd00a"
        )

    def test_inner_digest(self):
        data = NodeCodec().encode(self.INNER)
        assert len(data) == HEADER_BYTES + 2 * ENTRY_BYTES
        assert hashlib.sha256(data).hexdigest() == (
            "06dc891713b63301c099e135664d4a6793ca4bb22e24b203ae2c53fb696ac72d"
        )

    def test_decode_inverts_encode_bit_for_bit(self):
        codec = NodeCodec()
        for node in (self.LEAF, self.INNER):
            data = codec.encode(node)
            assert codec.encode(codec.decode(data)) == data


class TestNode:
    def test_bound_at_unions_entries(self):
        e1 = Entry(KineticBox.rigid(Box(0, 1, 0, 1), 1, 0, 0.0), 1)
        e2 = Entry(KineticBox.rigid(Box(5, 6, 2, 3), -1, 0, 0.0), 2)
        node = Node(0, 0, [e1, e2])
        bound = node.bound_at(0.0)
        assert bound.at(0.0).contains(Box(0, 6, 0, 3))
        # At t=2 the boxes have swapped direction-wise; still bounded.
        for t in (0.0, 1.0, 2.0, 5.0):
            assert bound.at(t).contains(e1.kbox.at(t))
            assert bound.at(t).contains(e2.kbox.at(t))

    def test_bound_at_empty_raises(self):
        import pytest

        with pytest.raises(ValueError):
            Node(0, 0).bound_at(0.0)

    def test_find_ref(self):
        e1 = Entry(KineticBox.rigid(Box(0, 1, 0, 1), 0, 0, 0.0), 11)
        node = Node(0, 0, [e1])
        assert node.find_ref(11) == 0
        assert node.find_ref(99) is None
