"""Columnar structure-of-arrays object store (the scaling substrate).

PR 1's :class:`~repro.geometry.kernels.KineticBatch` proved the
structure-of-arrays shape at the tree leaves; this module extends it to
a whole dataset.  A :class:`ColumnStore` holds every object of one
dataset as contiguous NumPy columns — MBR bounds, velocity bounds,
reference times, object ids — plus a sorted-id index from ids to rows,
and is the single source of truth the vectorized engine, the probe
kernels and the benchmarks all share.  The per-tick hot path then never touches a
Python object per moving object: updates land as array writes, probes
run over zero-copy :class:`KineticBatch` views of the live columns.

Layout
------
Rows ``0..n-1`` are live, stored in a dense prefix of capacity-sized
arrays (amortized-doubling growth, swap-with-last eviction).  Arrays
are indexed ``[dim, row]`` exactly like :class:`KineticBatch`, and the
pre-shifted bounds ``slo = mlo - vlo * tref`` / ``shi = mhi - vhi *
tref`` are maintained *incrementally* on every write with the same
elementwise expression :class:`KineticBatch` uses, so a view of the
columns is bit-identical to a batch packed fresh from the objects.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..geometry import NDIMS, Box, KineticBatch
from ..geometry.kernels import radix_argsort
from ..objects import MovingObject

__all__ = [
    "ColumnStore",
    "UpdateColumns",
    "ObjectsView",
    "check_planes",
    "columns_from_objects",
    "pack_updates",
    "merge_interval_planes",
    "pair_keys",
    "pair_lexsort",
    "unpack_pair_keys",
]

_MIN_CAPACITY = 8

#: Two oids in ``[0, 2**_PACK_BITS)`` pack into one int64 pair key.
_PACK_BITS = 31
#: Pair key of everything else: compares field by field, ``a`` major.
_WIDE_KEY = np.dtype([("a", np.int64), ("b", np.int64)])


def run_heads(*planes: np.ndarray) -> np.ndarray:
    """Mask of the rows that open a run of equal rows in sorted planes.

    ``planes`` are parallel arrays sorted so that equal rows are
    adjacent; a row opens a run when any plane differs from the row
    before it (the first row always does).
    """
    head = np.zeros(planes[0].shape[0], dtype=bool)
    head[:1] = True
    for plane in planes:
        head[1:] |= plane[1:] != plane[:-1]
    return head


def pair_lexsort(key: np.ndarray, *rows: np.ndarray) -> np.ndarray:
    """``np.lexsort((*reversed(rows), key))``, bit for bit, without a
    float sort of every row.

    Orders by the pair ``key``, then by ``rows`` (major first), ties in
    index order.  A stable argsort of the key comes first — a timsort,
    cheap on the concatenated already-sorted chunks the store and the
    ledger hand in — and only the key groups whose rows it left out of
    order are lexsorted again.  ``-0.0`` and ``0.0`` tie, as in
    ``lexsort``; a NaN anywhere falls back to ``lexsort`` itself.
    """
    if any(np.isnan(plane).any() for plane in rows):
        return np.lexsort((*reversed(rows), key))
    order = np.argsort(key, kind="stable")
    k = key[order]
    ordered = [plane[order] for plane in rows]
    # Adjacent rows of one key group where the later one sorts first.
    later, tie = np.zeros(max(k.shape[0] - 1, 0), dtype=bool), None
    for plane in ordered:
        below = plane[1:] < plane[:-1]
        later |= below if tie is None else tie & below
        same = plane[1:] == plane[:-1]
        tie = same if tie is None else tie & same
    later &= k[1:] == k[:-1]
    if not later.any():
        return order
    # Re-sort the rows of every disordered group, group by group.
    group = np.cumsum(run_heads(k))
    bad = np.zeros(int(group[-1]) + 1, dtype=bool)
    bad[group[1:][later]] = True
    at = np.flatnonzero(bad[group])
    sub = np.lexsort((*(plane[at] for plane in reversed(ordered)), group[at]))
    order[at] = order[at[sub]]
    return order


def has_duplicates(ids: np.ndarray) -> bool:
    """Whether any value occurs twice in an integer array."""
    ids = np.sort(ids)
    return bool((ids[1:] == ids[:-1]).any())


def pair_run_starts(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Start index of every ``(a, b)`` run in pair-sorted planes.

    ``a``/``b`` must already be sorted with ``a`` major and ``b`` minor
    (rows of one pair contiguous); the returned indices are the pair
    boundaries — the inverted index the columnar result store keeps.
    """
    return np.flatnonzero(run_heads(a, b))


def pair_keys(*sides: Tuple[np.ndarray, np.ndarray]) -> List[np.ndarray]:
    """One sortable key per row for each ``(a, b)`` plane pair.

    All returned arrays share one key space, so keys of different sides
    compare, sort and ``searchsorted`` against each other exactly like
    the ``(a, b)`` tuples they stand for.  When every oid of every side
    lies in ``[0, 2**31)`` the key is the packed int64 ``(a << 31) | b``
    (one machine compare per probe); a single negative or wider oid
    anywhere switches *all* sides to a two-field structured key that
    NumPy compares lexicographically — slower per compare, same order,
    same callers: nothing downstream branches on which one it got.
    """
    bits = 0
    for a, b in sides:
        bits |= int(np.bitwise_or.reduce(a)) | int(np.bitwise_or.reduce(b))
    if bits >> _PACK_BITS == 0:
        return [(a << np.int64(_PACK_BITS)) | b for a, b in sides]
    keys = []
    for a, b in sides:
        key = np.empty(a.shape[0], dtype=_WIDE_KEY)
        key["a"], key["b"] = a, b
        keys.append(key)
    return keys


def unpack_pair_keys(key: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The ``(a, b)`` ``int64`` planes a :func:`pair_keys` array packs."""
    if key.dtype == _WIDE_KEY:
        return key["a"].copy(), key["b"].copy()
    return key >> np.int64(_PACK_BITS), key & np.int64((1 << _PACK_BITS) - 1)


def _segmented_prefix_max(values: np.ndarray, run: np.ndarray) -> np.ndarray:
    """Inclusive prefix maximum of ``values`` within each ``run`` segment.

    A segmented Hillis–Steele scan: ``run`` is a non-decreasing segment
    id per element (segments contiguous), and element ``i`` may only
    absorb maxima from elements of the same segment.  ``O(n log L)``
    array passes for maximum segment length ``L`` — the interval lists
    behind one pair are short, so ``L`` (and the pass count) stays tiny
    even when the planes hold hundreds of thousands of rows.
    """
    g = values.copy()
    n = g.shape[0]
    if n == 0:
        return g
    lengths = np.bincount(run)
    max_len = int(lengths.max()) if lengths.size else 1
    shift = 1
    while shift < max_len:
        same = run[shift:] == run[:-shift]
        np.maximum(g[shift:], np.where(same, g[:-shift], -np.inf), out=g[shift:])
        shift <<= 1
    return g


def merge_interval_planes(
    a: np.ndarray,
    b: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    tol: float,
):
    """Coalesce pair-keyed interval planes into merged disjoint rows.

    Vectorized :func:`~repro.geometry.interval.merge_intervals` over SoA
    planes: rows must be sorted by ``(a, b, lo)``; within one pair, rows
    whose gap to the running merged end is at most ``tol`` collapse into
    one row carrying the first start and the running maximum end —
    element for element the exact greedy rule of the scalar merge, so
    the surviving rows are bit-identical to merging each pair's list
    through the interval algebra.  Returns ``(a, b, lo, hi)`` merged
    planes plus the pair-run start indices of the merged rows.
    """
    n = a.shape[0]
    if n == 0:
        return a, b, lo, hi, np.empty(0, dtype=np.int64)
    new_pair = run_heads(a, b)
    run = np.cumsum(new_pair)
    reach = _segmented_prefix_max(hi, run)
    # A row opens a new merged segment when it opens a new pair, or when
    # it starts beyond the pair's running merged end plus the tolerance
    # (the scalar merge's append-vs-extend test; the cross-pair lanes of
    # the comparison are masked out by the new_pair OR).
    seg = new_pair.copy()
    np.logical_or(seg[1:], lo[1:] > reach[:-1] + tol, out=seg[1:])
    starts = np.nonzero(seg)[0]
    m_a = a[starts]
    m_b = b[starts]
    m_lo = lo[starts]
    m_hi = np.maximum.reduceat(hi, starts)
    return m_a, m_b, m_lo, m_hi, pair_run_starts(m_a, m_b)


@dataclass(slots=True)
class UpdateColumns:
    """A batch of object states as columns (the array-native update unit).

    The wire format between the vectorized update stream, the engine and
    the :class:`ColumnStore`: ``k`` objects with ``(2, k)`` bound arrays
    and ``(k,)`` id / reference-time arrays.  Velocity *bounds* are
    carried (not just rigid velocities) so the layout round-trips any
    :class:`~repro.geometry.KineticBox`.
    """

    oid: np.ndarray
    mlo: np.ndarray
    mhi: np.ndarray
    vlo: np.ndarray
    vhi: np.ndarray
    tref: np.ndarray

    def __len__(self) -> int:
        return int(self.oid.shape[0])

    @classmethod
    def empty(cls) -> "UpdateColumns":
        """A zero-length batch."""
        return cls(
            np.empty(0, dtype=np.int64),
            np.empty((NDIMS, 0)),
            np.empty((NDIMS, 0)),
            np.empty((NDIMS, 0)),
            np.empty((NDIMS, 0)),
            np.empty(0),
        )

    @classmethod
    def from_objects(cls, objs: Sequence[MovingObject]) -> "UpdateColumns":
        """Pack a sequence of objects (order preserved)."""
        return columns_from_objects(objs)

    def check_tick(self, t: float) -> None:
        """Raise unless this is a valid same-tick group-commit batch:
        finite ordered bounds (:func:`check_planes`), every row
        referenced at ``t`` and no object id twice."""
        if len(self) == 0:
            return
        check_planes(self)
        if not np.all(self.tref == t):
            raise ValueError("columnar updates must carry t_ref == engine.now")
        if has_duplicates(self.oid):
            raise ValueError("duplicate object ids in one update batch")

    def take(self, index: np.ndarray) -> "UpdateColumns":
        """The rows selected by a boolean mask or index array (copied)."""
        return UpdateColumns(
            self.oid[index],
            self.mlo[:, index],
            self.mhi[:, index],
            self.vlo[:, index],
            self.vhi[:, index],
            self.tref[index],
        )

    def objects(self) -> List[MovingObject]:
        """Materialize the batch as :class:`MovingObject` instances."""
        return [
            MovingObject(
                int(self.oid[i]),
                Box(
                    float(self.mlo[0, i]),
                    float(self.mhi[0, i]),
                    float(self.mlo[1, i]),
                    float(self.mhi[1, i]),
                ),
                float(self.vlo[0, i]),
                float(self.vlo[1, i]),
                t_ref=float(self.tref[i]),
            )
            for i in range(len(self))
        ]


def check_planes(cols) -> None:
    """Raise ``ValueError`` unless every ``mlo/mhi/vlo/vhi/tref`` entry
    of ``cols`` (an :class:`UpdateColumns` or a :class:`KineticBatch`
    view) is finite and no lower bound exceeds its upper bound.

    The ingest gate of the columnar path: a NaN or infinity would flow
    into the sweep's ``argsort``/``searchsorted`` and yield an arbitrary
    answer instead of an error (:class:`~repro.geometry.Box` rejects
    inverted bounds on the object path but lets non-finite ones pass).
    """
    for name in ("mlo", "mhi", "vlo", "vhi", "tref"):
        if not np.isfinite(getattr(cols, name)).all():
            raise ValueError(f"non-finite value in column {name!r}")
    if (cols.mlo > cols.mhi).any() or (cols.vlo > cols.vhi).any():
        raise ValueError("inverted bounds: lower bound above upper bound")


def columns_from_objects(objs: Sequence[MovingObject]) -> UpdateColumns:
    """Pack moving objects into an :class:`UpdateColumns` batch."""
    k = len(objs)
    out = UpdateColumns(
        np.empty(k, dtype=np.int64),
        np.empty((NDIMS, k)),
        np.empty((NDIMS, k)),
        np.empty((NDIMS, k)),
        np.empty((NDIMS, k)),
        np.empty(k),
    )
    for i, obj in enumerate(objs):
        kb = obj.kbox
        out.oid[i] = obj.oid
        out.tref[i] = kb.t_ref
        for d in range(NDIMS):
            out.mlo[d, i] = kb.mbr.lo(d)
            out.mhi[d, i] = kb.mbr.hi(d)
            out.vlo[d, i] = kb.vbr.lo(d)
            out.vhi[d, i] = kb.vbr.hi(d)
    return out


def pack_updates(
    batch: Iterable[MovingObject], columns_a: "ColumnStore", columns_b: "ColumnStore"
) -> Tuple[UpdateColumns, UpdateColumns]:
    """Split an object batch by the dataset holding each id and pack
    both halves (batch order kept); an unknown id is a ``KeyError``."""
    batch = list(batch)
    oids = np.fromiter((obj.oid for obj in batch), dtype=np.int64, count=len(batch))
    in_a = columns_a.find(oids) >= 0
    in_b = columns_b.find(oids) >= 0
    unknown = ~(in_a | in_b)
    if unknown.any():
        raise KeyError(f"unknown object id {int(oids[unknown.argmax()])}")
    return (
        columns_from_objects([obj for obj, hit in zip(batch, in_a.tolist()) if hit]),
        columns_from_objects([obj for obj, hit in zip(batch, (in_b & ~in_a).tolist()) if hit]),
    )


class ColumnStore:
    """One dataset as contiguous columns with a sorted-id index.

    Ids resolve to rows through one stable argsort of the id column
    (:meth:`find`), built on first use and dropped by :meth:`add` and
    :meth:`remove` — updates move no row, so a steady update stream
    never rebuilds it.  The store also keeps running upper bounds of
    ``|mbr|`` and ``|vbr|`` per axis and of ``|t_ref|`` over everything
    ever written to it, which its :class:`KineticBatch` views carry so
    the sweep join's slack needs no pass over the columns.

    >>> from repro.geometry import Box
    >>> store = ColumnStore()
    >>> store.add(columns_from_objects(
    ...     [MovingObject(7, Box(0, 1, 0, 1), 0.5, -0.25, t_ref=0.0)]
    ... ))
    array([0])
    >>> store.row_of(7), len(store)
    (0, 1)
    """

    __slots__ = (
        "n",
        "mlo",
        "mhi",
        "vlo",
        "vhi",
        "tref",
        "oid",
        "slo",
        "shi",
        "_id_order",
        "_id_sorted",
        "_abs_bounds",
    )

    def __init__(self, capacity: int = _MIN_CAPACITY):
        cap = max(int(capacity), _MIN_CAPACITY)
        self.n = 0
        self.mlo = np.zeros((NDIMS, cap))
        self.mhi = np.zeros((NDIMS, cap))
        self.vlo = np.zeros((NDIMS, cap))
        self.vhi = np.zeros((NDIMS, cap))
        self.tref = np.zeros(cap)
        self.slo = np.zeros((NDIMS, cap))
        self.shi = np.zeros((NDIMS, cap))
        self.oid = np.zeros(cap, dtype=np.int64)
        #: lazy stable argsort of the live ids and the ids in that order
        #: — built and dropped together.
        self._id_order: Optional[np.ndarray] = None
        self._id_sorted: Optional[np.ndarray] = None
        #: ``(|mbr| per axis, |vbr| per axis, |t_ref|)``: no value ever
        #: written exceeds them (monotone; evictions do not lower them).
        self._abs_bounds: Tuple[np.ndarray, np.ndarray, float] = (
            np.zeros(NDIMS),
            np.zeros(NDIMS),
            0.0,
        )

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_objects(cls, objs: Iterable[MovingObject]) -> "ColumnStore":
        """Build a store holding every object of the iterable."""
        return cls.from_columns(columns_from_objects(list(objs)))

    @classmethod
    def from_columns(cls, cols: UpdateColumns) -> "ColumnStore":
        """Build a store from a pre-packed column batch (refused by
        :func:`check_planes` when non-finite or inverted)."""
        check_planes(cols)
        store = cls(capacity=len(cols))
        store.add(cols)
        return store

    # ------------------------------------------------------------------
    # Mutation (all vectorized over the batch)
    # ------------------------------------------------------------------
    def add(self, cols: UpdateColumns) -> np.ndarray:
        """Append new objects; returns their row indices.

        Ids must be fresh — updating an existing object goes through
        :meth:`set_rows` (or :meth:`apply`), which overwrites in place.
        """
        k = len(cols)
        if k == 0:
            return np.empty(0, dtype=np.int64)
        # Named already: stored, or earlier in this batch (the stable
        # order keeps a repeated id's occurrences in batch order).
        order = radix_argsort(cols.oid)
        ids = cols.oid[order]
        named = self.find(cols.oid) >= 0
        named[order[1:][ids[1:] == ids[:-1]]] = True
        if named.any():
            raise ValueError(f"object {int(cols.oid[named.argmax()])} already stored")
        self._ensure(k)
        # The new rows are one contiguous span: written by slice.
        span = slice(self.n, self.n + k)
        self.oid[span] = cols.oid
        self._write(span, cols)
        self.n += k
        self._id_order = self._id_sorted = None
        return np.arange(span.start, span.stop, dtype=np.int64)

    def set_rows(self, rows: np.ndarray, cols: UpdateColumns) -> None:
        """Overwrite the state of existing rows (ids must not change)."""
        self._write(rows, cols)

    def apply(self, cols: UpdateColumns, rows: Optional[np.ndarray] = None) -> np.ndarray:
        """Overwrite existing objects by id; returns their rows — which a
        caller that already holds ``rows_of(cols.oid)`` may pass in."""
        if rows is None:
            rows = self.rows_of(cols.oid)
        self._write(rows, cols)
        return rows

    def remove(self, oids: Iterable[int]) -> None:
        """Evict objects by id, keeping the live prefix dense.

        The surviving rows at the tail move into the vacated slots
        below it (one removal: swap-with-last); an unknown or repeated
        id raises ``KeyError`` before anything moves.
        """
        oids = _id_array(oids)
        rows = self.rows_of(oids)
        if has_duplicates(rows):
            raise KeyError("object id named twice in one removal")
        n = self.n - rows.shape[0]
        gone = np.zeros(self.n, dtype=bool)
        gone[rows] = True
        holes = np.flatnonzero(gone[:n])
        movers = n + np.flatnonzero(~gone[n:])
        for arr in (self.mlo, self.mhi, self.vlo, self.vhi, self.slo, self.shi):
            arr[:, holes] = arr[:, movers]
        self.tref[holes] = self.tref[movers]
        self.oid[holes] = self.oid[movers]
        self.n = n
        self._id_order = self._id_sorted = None

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def find(self, oids: np.ndarray) -> np.ndarray:
        """Row of every id of an ``int64`` array, ``-1`` where unknown.

        One binary search per id in the sorted-id index; the index is
        one radix argsort of the id column, rebuilt here after an
        :meth:`add` or :meth:`remove` dropped it.
        """
        n = self.n
        if n == 0 or oids.shape[0] == 0:
            return np.full(oids.shape[0], -1, dtype=np.int64)
        if self._id_order is None:
            self._id_order = radix_argsort(self.oid[:n])
            self._id_sorted = self.oid[:n][self._id_order]
        at = self._id_sorted.searchsorted(oids)
        at[at == n] = 0
        return np.where(self._id_sorted[at] == oids, self._id_order[at], -1)

    def _find_one(self, oid: object) -> int:
        """:meth:`find` for one key of any type (``-1``: not an id here)."""
        try:
            key = operator.index(oid)
        except TypeError:
            return -1
        if not -(2**63) <= key < 2**63:
            return -1
        return int(self.find(np.array([key], dtype=np.int64))[0])

    def row_of(self, oid: int) -> int:
        """Row index currently holding ``oid``."""
        row = self._find_one(oid)
        if row < 0:
            raise KeyError(oid)
        return row

    def rows_of(self, oids: Iterable[int]) -> np.ndarray:
        """Row indices for a batch of ids (raises on unknown ids)."""
        oids = _id_array(oids)
        rows = self.find(oids)
        if rows.shape[0] and rows.min() < 0:
            raise KeyError(f"unknown object id {int(oids[(rows < 0).argmax()])}")
        return rows

    def __contains__(self, oid: object) -> bool:
        return self._find_one(oid) >= 0

    def __len__(self) -> int:
        return self.n

    @property
    def oids(self) -> np.ndarray:
        """Ids of the live rows, in row order (a view)."""
        return self.oid[: self.n]

    # ------------------------------------------------------------------
    # Kinetic views
    # ------------------------------------------------------------------
    def batch(self) -> KineticBatch:
        """Zero-copy :class:`KineticBatch` view of the live rows.

        The view aliases the live columns (including the incrementally
        maintained pre-shifted bounds, so nothing is recomputed) and
        carries the store's magnitude bounds; it is valid until the
        next mutation.
        """
        n = self.n
        return KineticBatch(
            self.mlo[:, :n],
            self.mhi[:, :n],
            self.vlo[:, :n],
            self.vhi[:, :n],
            self.tref[:n],
            self.slo[:, :n],
            self.shi[:, :n],
            self._abs_bounds,
        )

    def gather(self, rows: np.ndarray) -> KineticBatch:
        """A :class:`KineticBatch` of selected rows (fancy-index copy),
        carrying the store's magnitude bounds like :meth:`batch`."""
        return KineticBatch(
            self.mlo[:, rows],
            self.mhi[:, rows],
            self.vlo[:, rows],
            self.vhi[:, rows],
            self.tref[rows],
            self.slo[:, rows],
            self.shi[:, rows],
            self._abs_bounds,
        )

    def columns(self) -> UpdateColumns:
        """The live rows, in row order, as an owned column batch.

        ``ColumnStore.from_columns(store.columns())`` reproduces the
        store plane for plane (the shift planes are recomputed with the
        insert path's own expression), so this is the picklable form a
        dataset crosses a process boundary or lands on pages in.
        """
        n = self.n
        return UpdateColumns(
            self.oid[:n].copy(),
            self.mlo[:, :n].copy(),
            self.mhi[:, :n].copy(),
            self.vlo[:, :n].copy(),
            self.vhi[:, :n].copy(),
            self.tref[:n].copy(),
        )

    def oids_in(self, region: Box, now: float) -> np.ndarray:
        """Ids of the rows whose box at ``now`` intersects ``region``.

        The closed-box test of :meth:`Box.intersects` on bounds
        evaluated as ``lo + v * (now - tref)`` — the expression (and
        rounding) of :meth:`KineticBox.at` — so a box that merely
        touches the region is in or out exactly as the per-object test
        decides.
        """
        n = self.n
        dt = now - self.tref[:n]
        hit = np.ones(n, dtype=bool)
        for d in range(NDIMS):
            hit &= self.mlo[d, :n] + self.vlo[d, :n] * dt <= region.hi(d)
            hit &= region.lo(d) <= self.mhi[d, :n] + self.vhi[d, :n] * dt
        return self.oid[:n][hit]

    def bucket_keys(self, bucket_length: float, rows: Optional[np.ndarray] = None) -> np.ndarray:
        """MTB bucket key of ``rows`` (default: every live row), which
        is ``floor(tref / length)``.

        Matches :meth:`repro.index.mtb.MTBTree.bucket_key` elementwise
        for the non-negative timestamps the simulation produces.
        """
        tref = self.tref[: self.n] if rows is None else self.tref[rows]
        return np.floor_divide(tref, bucket_length).astype(np.int64)

    # ------------------------------------------------------------------
    # Object materialization (tests, compat shims — not the hot path)
    # ------------------------------------------------------------------
    def object_at(self, row: int) -> MovingObject:
        """Reconstruct one row as a :class:`MovingObject`."""
        return MovingObject(
            int(self.oid[row]),
            Box(
                float(self.mlo[0, row]),
                float(self.mhi[0, row]),
                float(self.mlo[1, row]),
                float(self.mhi[1, row]),
            ),
            float(self.vlo[0, row]),
            float(self.vlo[1, row]),
            t_ref=float(self.tref[row]),
        )

    def get(self, oid: int) -> MovingObject:
        """Reconstruct the object stored under ``oid``."""
        return self.object_at(self.row_of(oid))

    def objects(self) -> Iterator[MovingObject]:
        """Iterate every live row as a :class:`MovingObject`."""
        for row in range(self.n):
            yield self.object_at(row)

    # ------------------------------------------------------------------
    def _write(self, rows, cols: UpdateColumns) -> None:
        """Write ``cols`` into ``rows``: an index array, or a slice."""
        self.mlo[:, rows] = cols.mlo
        self.mhi[:, rows] = cols.mhi
        self.vlo[:, rows] = cols.vlo
        self.vhi[:, rows] = cols.vhi
        self.tref[rows] = cols.tref
        # Same elementwise expression as KineticBatch.__init__, so the
        # incrementally maintained shift stays bit-exact with a fresh
        # pack of the same boxes.
        self.slo[:, rows] = cols.mlo - cols.vlo * cols.tref
        self.shi[:, rows] = cols.mhi - cols.vhi * cols.tref
        pos, vel, tref = self._abs_bounds
        np.maximum(pos, _abs_rows(cols.mlo, cols.mhi), out=pos)
        np.maximum(vel, _abs_rows(cols.vlo, cols.vhi), out=vel)
        self._abs_bounds = (pos, vel, max(tref, float(np.abs(cols.tref).max(initial=0.0))))

    def _ensure(self, extra: int) -> None:
        cap = self.tref.shape[0]
        need = self.n + extra
        if need <= cap:
            return
        new_cap = max(cap * 2, need)
        for name in ("mlo", "mhi", "vlo", "vhi", "slo", "shi"):
            old = getattr(self, name)
            grown = np.zeros((NDIMS, new_cap))
            grown[:, : self.n] = old[:, : self.n]
            setattr(self, name, grown)
        tref = np.zeros(new_cap)
        tref[: self.n] = self.tref[: self.n]
        self.tref = tref
        oid = np.zeros(new_cap, dtype=np.int64)
        oid[: self.n] = self.oid[: self.n]
        self.oid = oid

    def __repr__(self) -> str:
        return f"ColumnStore(n={self.n}, capacity={self.tref.shape[0]})"


def _id_array(oids: Iterable[int]) -> np.ndarray:
    """Ids as a flat ``int64`` array (an array passes through)."""
    if isinstance(oids, np.ndarray):
        return oids
    return np.array([int(o) for o in oids], dtype=np.int64)


def _abs_rows(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Largest ``|value|`` per axis of two ``(NDIMS, k)`` planes (0 for
    no rows)."""
    return np.maximum(np.abs(lo), np.abs(hi)).max(axis=1, initial=0.0)


class ObjectsView(Mapping):
    """Read-only ``oid -> MovingObject`` mapping over a :class:`ColumnStore`.

    Reconstructs objects lazily on access, so legacy object-path
    consumers (the scalar :class:`~repro.workloads.UpdateStream`, the
    differential tests) can read a columnar engine's state without the
    engine materializing a Python object per row per tick.
    """

    __slots__ = ("_store",)

    def __init__(self, store: ColumnStore):
        self._store = store

    def __getitem__(self, oid: int) -> MovingObject:
        return self._store.get(oid)

    def __contains__(self, oid: object) -> bool:
        return oid in self._store

    def __iter__(self) -> Iterator[int]:
        return iter(self._store.oids.tolist())

    def __len__(self) -> int:
        return len(self._store)

    def __repr__(self) -> str:
        return f"ObjectsView(n={len(self)})"
