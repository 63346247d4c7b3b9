"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import random
from typing import List

import pytest
from hypothesis import settings

from repro.core.columns import columns_from_objects
from repro.geometry import Box, KineticBox
from repro.objects import MovingObject

from .check.sanitize import sanitize_engine

#: ``pytest --hypothesis-profile=ci``: ten times hypothesis's default
#: example count (the CI ``tests`` job runs the stateful model with it).
settings.register_profile("ci", max_examples=1_000)


def random_kbox(
    rng: random.Random,
    space: float = 100.0,
    max_side: float = 5.0,
    max_speed: float = 3.0,
    t_ref_range: "tuple[float, float]" = (0.0, 2.0),
) -> KineticBox:
    """A random rigid moving rectangle."""
    x = rng.uniform(0, space)
    y = rng.uniform(0, space)
    w = rng.uniform(0.1, max_side)
    h = rng.uniform(0.1, max_side)
    vx = rng.uniform(-max_speed, max_speed)
    vy = rng.uniform(-max_speed, max_speed)
    t_ref = rng.uniform(*t_ref_range)
    return KineticBox.rigid(Box(x, x + w, y, y + h), vx, vy, t_ref)


def random_object(
    rng: random.Random,
    oid: int,
    t_ref: float = 0.0,
    space: float = 1000.0,
    max_side: float = 10.0,
    max_speed: float = 3.0,
) -> MovingObject:
    """A random moving object with the given id and reference time."""
    x = rng.uniform(0, space)
    y = rng.uniform(0, space)
    side = rng.uniform(1.0, max_side)
    vx = rng.uniform(-max_speed, max_speed)
    vy = rng.uniform(-max_speed, max_speed)
    return MovingObject(oid, Box(x, x + side, y, y + side), vx, vy, t_ref)


def random_objects(
    seed: int,
    n: int,
    id_offset: int = 0,
    t_ref: float = 0.0,
    **kwargs,
) -> List[MovingObject]:
    """``n`` random objects with consecutive ids from ``id_offset``."""
    rng = random.Random(seed)
    return [random_object(rng, id_offset + i, t_ref, **kwargs) for i in range(n)]


@pytest.fixture
def rng() -> random.Random:
    """A deterministic RNG per test."""
    return random.Random(0xC0FFEE)


def assert_sanitized(*engines) -> None:
    """Run the :mod:`tests.check.sanitize` sanitizer on each engine; no findings.

    A sharded engine's in-process shards (``workers=0``) are columnar
    engines of their own and are sanitized too.
    """
    for engine in engines:
        assert sanitize_engine(engine) == [], engine
        for shard in getattr(getattr(engine, "_backend", None), "engines", {}).values():
            assert sanitize_engine(shard) == [], shard


def _nan_position(cols, row: int) -> None:
    cols.mlo[1, row] = float("nan")


def _inf_velocity(cols, row: int) -> None:
    cols.vhi[0, row] = float("inf")


def _nan_tref(cols, row: int) -> None:
    cols.tref[row] = float("nan")


def _inverted_box(cols, row: int) -> None:
    cols.mlo[0, row] = cols.mhi[0, row] + 1.0


#: Hostile edits of one row of an ``UpdateColumns`` batch; the columnar
#: ingest gate (``check_planes``) must refuse every one of them.
HOSTILE_COLUMN_EDITS = {
    "nan-position": _nan_position,
    "inf-velocity": _inf_velocity,
    "nan-tref": _nan_tref,
    "inverted-box": _inverted_box,
}


def _raw_box(x_lo, x_hi, y_lo, y_hi) -> Box:
    """A Box built around its constructor's ``lo <= hi`` check."""
    box = Box(0, 0, 0, 0)
    object.__setattr__(box, "_b", (x_lo, x_hi, y_lo, y_hi))
    return box


def hostile_object(obj: MovingObject, case: str) -> MovingObject:
    """``obj`` with one ``HOSTILE_COLUMN_EDITS`` edit applied."""
    cols = columns_from_objects([obj])
    HOSTILE_COLUMN_EDITS[case](cols, 0)
    bad = MovingObject(obj.oid, Box(0, 0, 0, 0), 0.0, 0.0, 0.0)
    bad.kbox = KineticBox(
        _raw_box(cols.mlo[0, 0], cols.mhi[0, 0], cols.mlo[1, 0], cols.mhi[1, 0]),
        _raw_box(cols.vlo[0, 0], cols.vhi[0, 0], cols.vlo[1, 0], cols.vhi[1, 0]),
        cols.tref[0],
    )
    return bad
