"""Tests for struct writers/readers and the identity codec."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.storage import StructReader, StructWriter

f64s = st.floats(allow_nan=False, width=64)
i64s = st.integers(min_value=-(2**63), max_value=2**63 - 1)
u8s = st.integers(min_value=0, max_value=255)


class TestRoundTrips:
    def test_mixed_sequence(self):
        w = StructWriter()
        w.write_u8(7)
        w.write_i64(-123456789)
        w.write_f64(3.14159)
        w.write_f64s([1.0, 2.0, 3.0])
        r = StructReader(w.getvalue())
        assert r.read_u8() == 7
        assert r.read_i64() == -123456789
        assert r.read_f64() == pytest.approx(3.14159)
        assert r.read_f64s(3) == [1.0, 2.0, 3.0]
        assert r.remaining == 0

    def test_len_tracks_bytes(self):
        w = StructWriter()
        w.write_u8(1)
        w.write_i64(2)
        w.write_f64(3.0)
        assert len(w) == 1 + 8 + 8

    @given(st.lists(f64s, max_size=30))
    def test_f64s_roundtrip(self, values):
        w = StructWriter()
        w.write_f64s(values)
        r = StructReader(w.getvalue())
        assert r.read_f64s(len(values)) == values

    @given(i64s, u8s, f64s)
    def test_scalar_roundtrip(self, i, u, f):
        w = StructWriter()
        w.write_i64(i)
        w.write_u8(u)
        w.write_f64(f)
        r = StructReader(w.getvalue())
        assert (r.read_i64(), r.read_u8(), r.read_f64()) == (i, u, f)

    def test_infinity_survives(self):
        w = StructWriter()
        w.write_f64(float("inf"))
        assert StructReader(w.getvalue()).read_f64() == float("inf")
