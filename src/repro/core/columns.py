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
Every float column is a view of one plane stack
(:func:`~repro.geometry.kernels.stack_planes`), whose address the store
keeps from one reallocation to the next: the sweep join reads a view
of it, or a gathered stack, without asking NumPy where a column is.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..geometry import NDIMS, Box, KineticBatch, KineticBox
from ..geometry.kernels import STACK_ROWS, radix_argsort, stack_planes
from ..objects import MovingObject

__all__ = [
    "ColumnStore",
    "UpdateColumns",
    "ObjectsView",
    "LateObjectError",
    "check_deadlines",
    "check_ingest",
    "check_planes",
    "columns_from_boxes",
    "columns_from_objects",
    "pack_admissions",
    "pack_updates",
    "registry_find",
    "merge_interval_planes",
    "pair_keys",
    "pair_lexsort",
    "unpack_pair_keys",
]

_MIN_CAPACITY = 8

#: No object ids, and none held: empty planes, never written.
_NO_IDS = np.empty(0, dtype=np.int64)
_NO_HITS = np.empty(0, dtype=bool)

#: :meth:`KineticBox.params` fields (``x_lo, x_hi, y_lo, y_hi``, the
#: velocity bounds alike, ``t_ref``) in ``mlo, mhi, vlo, vhi, tref`` order.
_PLANE_ROWS = np.array([0, 2, 1, 3, 4, 6, 5, 7, 8])

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
    order are sorted again (:func:`_ranked_lexsort`).  ``-0.0`` and
    ``0.0`` tie, as in ``lexsort``; a NaN anywhere falls back to
    ``lexsort`` itself.
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
    # Re-sort the rows of every disordered group, group by group; the
    # groups are found by binary search, so only their rows are visited.
    keys = k[1:][later]
    keys = keys[run_heads(keys)]
    start = np.searchsorted(k, keys, "left")
    size = np.searchsorted(k, keys, "right") - start
    group = np.repeat(np.arange(keys.shape[0]), size)
    at = np.arange(group.shape[0]) + np.repeat(start - (np.cumsum(size) - size), size)
    sub = _ranked_lexsort(group, [plane[at] for plane in ordered])
    order[at] = order[at[sub]]
    return order


def _ranked_lexsort(group: np.ndarray, planes) -> np.ndarray:
    """``np.lexsort((*reversed(planes), group))`` of NaN-free planes and
    ascending non-negative ``group`` ids, as one integer quicksort.

    Each plane is replaced by its dense rank (a quicksort and a scan:
    equal values, ``-0.0`` and ``0.0`` among them, share a rank), and the
    group id, the ranks and the row's position are packed, major first,
    into one ``int64`` that orders like the tuple it packs.  Every packed
    value is distinct, so the unstable sort returns ``lexsort``'s
    permutation; ``lexsort`` itself runs when the fields need more than
    63 bits.
    """
    n = group.shape[0]
    widths = [max(int(group[-1]).bit_length(), 1)] + [n.bit_length()] * (len(planes) + 1)
    if sum(widths) > 63:
        return np.lexsort((*reversed(planes), group))
    packed = group.astype(np.int64)
    for plane, width in zip(planes, widths[1:]):
        order = np.argsort(plane)
        rank = np.empty(n, dtype=np.int64)
        rank[order] = np.cumsum(run_heads(plane[order])) - 1
        packed = (packed << width) | rank
    packed = (packed << widths[-1]) | np.arange(n)
    return np.argsort(packed)


def has_duplicates(ids: np.ndarray) -> bool:
    """Whether any value occurs twice in an integer array."""
    ids = np.sort(ids)
    return bool((ids[1:] == ids[:-1]).any())


def later_copies(ids: np.ndarray) -> np.ndarray:
    """Mask of every occurrence of a value after its first, in array order
    (the stable order keeps a repeated value's occurrences in it)."""
    order = radix_argsort(ids)
    ranked = ids[order]
    later = np.zeros(ids.shape[0], dtype=bool)
    later[order[1:][ranked[1:] == ranked[:-1]]] = True
    return later


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
        return columns_from_boxes([], [])

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
        return [_object_at(self, i) for i in range(len(self))]


def check_planes(cols) -> None:
    """Raise ``ValueError`` unless every ``mlo/mhi/vlo/vhi/tref`` entry
    of ``cols`` (an :class:`UpdateColumns` or a :class:`KineticBatch`
    view) is finite and no lower bound exceeds its upper bound.

    The plane rule of :func:`check_ingest`: a NaN or infinity would flow
    into the sweep's ``argsort``/``searchsorted`` and yield an arbitrary
    answer instead of an error (:class:`~repro.geometry.Box` rejects
    inverted bounds on the object path but lets non-finite ones pass).
    """
    # One stacked array: a one-object batch pays for few NumPy calls.
    bounds = np.array((cols.mlo, cols.vlo, cols.mhi, cols.vhi))
    finite = np.count_nonzero(np.isfinite(bounds)) + np.count_nonzero(np.isfinite(cols.tref))
    if finite != bounds.size + cols.tref.size:
        for name in ("mlo", "mhi", "vlo", "vhi", "tref"):
            if not np.isfinite(getattr(cols, name)).all():
                raise ValueError(f"non-finite value in column {name!r}")
    if np.count_nonzero(bounds[:2] > bounds[2:]):
        raise ValueError("inverted bounds: lower bound above upper bound")


class LateObjectError(ValueError):
    """A tick past some live object's deadline ``t_ref + T_M``.

    Theorems 1 and 2 hold only while every object reports within
    ``T_M``.  ``oids`` names the late objects in ascending order.  The
    engine that raised is as it was; re-reporting those objects at its
    clock lets the tick go ahead.
    """

    def __init__(self, t: float, oids: Sequence[int]):
        self.oids = tuple(oids)
        super().__init__(
            f"{len(self.oids)} object(s) passed their deadline t_ref + T_M "
            f"before tick {t:g}; re-report them first: {list(self.oids[:5])}"
        )


def check_deadlines(t: float, t_m: float, *sides: Tuple[np.ndarray, np.ndarray]) -> None:
    """Raise :class:`LateObjectError` when a tick to ``t`` passes some
    object's deadline, ``t_ref + t_m < t``.

    ``sides`` are ``(tref, oid)`` plane pairs: one ``min`` a side
    decides, and the late ids are gathered only for a refusal.
    """
    if not any(tref.shape[0] and tref.min() + t_m < t for tref, _oid in sides):
        return
    late = np.concatenate([oid[tref + t_m < t] for tref, oid in sides])
    raise LateObjectError(t, np.sort(late).tolist())


def deadline_planes(registry: Mapping[int, MovingObject]) -> Tuple[np.ndarray, np.ndarray]:
    """The ``(tref, oid)`` planes of an ``oid -> MovingObject`` registry,
    the tree-side engines' input to :func:`check_deadlines`."""
    tref = np.array([obj.t_ref for obj in registry.values()], dtype=np.float64)
    return tref, np.fromiter(registry, dtype=np.int64, count=len(registry))


def check_ingest(
    now: float,
    find: Sequence[Callable[[np.ndarray], np.ndarray]] = (),
    update: Sequence[UpdateColumns] = (),
    admit: Sequence[UpdateColumns] = (),
    evict: np.ndarray = _NO_IDS,
) -> Tuple[List[np.ndarray], List[np.ndarray]]:
    """Every engine's ingest gate: refuse a build, an update batch, an
    admission or an eviction before anything is written (Theorems 1 and
    2 hold only while every object has one motion and reports in time).

    ``find[i]`` gives the row of each id dataset ``i`` holds, ``-1``
    elsewhere (:meth:`ColumnStore.find`, :func:`registry_find`).
    ``update[i]`` are new states of ids dataset ``i`` holds, ``admit[i]``
    new objects joining it, ``evict`` ids some dataset holds; a build
    admits whole datasets into empty ones.  ``ValueError``: a NaN/inf or
    inverted bound (:func:`check_planes`), a ``t_ref`` after ``now``, an
    id named twice anywhere in the call or held by a dataset it joins.
    ``KeyError``: an updated or evicted id its dataset does not hold.
    Returns per dataset the rows of its updates and the mask of ``evict``.
    """
    oids, named = [], evict.shape[0]
    for cols in (*update, *admit):
        if len(cols):
            check_planes(cols)
            if np.count_nonzero(cols.tref > now):
                ahead = np.sort(cols.oid[cols.tref > now])
                raise ValueError(
                    f"{ahead.shape[0]} object(s) report t_ref after the clock "
                    f"t={now:g}: {ahead[:5].tolist()}"
                )
            oids.append(cols.oid)
            named += len(cols)
    if named > 1 and has_duplicates(np.concatenate([*oids, evict])):
        raise ValueError(_named_twice(admit, np.concatenate([*oids, evict])))
    rows = [lookup(cols.oid) if len(cols) else _NO_IDS for lookup, cols in zip(find, update)]
    for cols, found in zip(update, rows):
        if np.count_nonzero(found < 0):
            raise KeyError(f"unknown object id {int(cols.oid[(found < 0).argmax()])}")
    held = [lookup(evict) >= 0 if evict.shape[0] else _NO_HITS for lookup in find]
    if evict.shape[0] and not np.logical_or.reduce(held).all():
        unknown = ~np.logical_or.reduce(held)
        raise KeyError(f"unknown object id {int(evict[unknown.argmax()])}")
    admitted = [cols.oid for cols in admit if len(cols)]
    if admitted and find:
        admitted = np.concatenate(admitted)
        stored = np.logical_or.reduce([lookup(admitted) >= 0 for lookup in find])
        if stored.any():
            raise ValueError(f"object {int(admitted[stored.argmax()])} already stored")
    return rows, held


def _named_twice(admit: Sequence[UpdateColumns], ids: np.ndarray) -> str:
    """Why :func:`check_ingest` refuses ``ids``, which repeat a value: an
    id repeated in one dataset's admissions (its first later copy), or
    the first five ids shared across datasets or named twice in the call."""
    for cols in admit:
        later = later_copies(cols.oid)
        if later.any():
            return f"object {int(cols.oid[later.argmax()])} already stored"
    admitted = np.concatenate([_NO_IDS, *(cols.oid for cols in admit)])
    for pool, where in ((admitted, "shared across datasets"), (ids, "named twice in one batch")):
        pool = np.sort(pool)
        repeats = np.unique(pool[1:][pool[1:] == pool[:-1]])
        if repeats.shape[0]:
            return f"object ids {where}: {repeats[:5].tolist()}"


def registry_find(*registries: Mapping[int, object]) -> Callable[[np.ndarray], np.ndarray]:
    """:meth:`ColumnStore.find` over ``oid -> object`` registries, for
    :func:`check_ingest`: ``0`` where one holds the id, ``-1`` elsewhere."""
    return lambda oids: np.array(
        [0 if any(oid in held for held in registries) else -1 for oid in oids.tolist()],
        dtype=np.int64,
    )


def columns_from_boxes(oids: Sequence[int], boxes: Sequence[KineticBox]) -> UpdateColumns:
    """Pack parallel ids and kinetic boxes into an :class:`UpdateColumns`
    batch (order preserved)."""
    params = chain.from_iterable(map(KineticBox.params, boxes))
    # One C-ordered (9, k) array whose row pairs are the planes.
    p = np.fromiter(params, np.float64, 9 * len(oids)).reshape(-1, 9).T.take(_PLANE_ROWS, 0)
    return UpdateColumns(np.array(oids, dtype=np.int64), p[0:2], p[2:4], p[4:6], p[6:8], p[8])


def columns_from_objects(objs: Sequence[MovingObject]) -> UpdateColumns:
    """Pack moving objects into an :class:`UpdateColumns` batch."""
    return columns_from_boxes([obj.oid for obj in objs], [obj.kbox for obj in objs])


def pack_updates(
    batch: Iterable[MovingObject], find_a: Callable[[np.ndarray], np.ndarray]
) -> Tuple[UpdateColumns, UpdateColumns]:
    """Pack an object batch as the ids dataset A holds (``find_a``, a
    :func:`check_ingest` lookup) and the rest, batch order kept."""
    batch = list(batch)
    in_a = (find_a(np.array([obj.oid for obj in batch], dtype=np.int64)) >= 0).tolist()
    return (
        columns_from_objects([obj for obj, hit in zip(batch, in_a) if hit]),
        columns_from_objects([obj for obj, hit in zip(batch, in_a) if not hit]),
    )


def pack_admissions(admit: Sequence[Tuple[MovingObject, str]]) -> Tuple[UpdateColumns, ...]:
    """Pack ``(object, "a" | "b")`` admissions as dataset A's and B's,
    order kept, or as nothing when there are none."""
    if any(dataset not in ("a", "b") for _obj, dataset in admit):
        raise ValueError("admission datasets must be 'a' or 'b'")
    sides = ([obj for obj, dataset in admit if dataset == side] for side in "ab")
    return tuple(map(columns_from_objects, sides)) if admit else ()


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
        "_stack",
        "_stack_address",
        "_id_order",
        "_id_sorted",
        "_abs_bounds",
    )

    def __init__(self, capacity: int = _MIN_CAPACITY):
        cap = max(int(capacity), _MIN_CAPACITY)
        self.n = 0
        self._adopt(np.zeros((STACK_ROWS, cap)))
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
        """Build a store from a pre-packed column batch."""
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
        # Named already: stored, or earlier in this batch.
        named = (self.find(cols.oid) >= 0) | later_copies(cols.oid)
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
        self._stack[:, holes] = self._stack[:, movers]
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
        carries the store's magnitude bounds and its plane stack with the
        kept address; it is valid until the next mutation.
        """
        return KineticBatch.from_stack(self._stack, self.n, self._stack_address, self._abs_bounds)

    def gather(self, rows: np.ndarray) -> KineticBatch:
        """A :class:`KineticBatch` of selected rows (one plane stack taken
        from the store's), carrying the store's magnitude bounds like
        :meth:`batch`."""
        return KineticBatch.from_stack(self._stack.take(rows, axis=1), abs_bounds=self._abs_bounds)

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
        return _object_at(self, row)

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
        stack = np.zeros((STACK_ROWS, new_cap))
        stack[:, : self.n] = self._stack[:, : self.n]
        self._adopt(stack)
        oid = np.zeros(new_cap, dtype=np.int64)
        oid[: self.n] = self.oid[: self.n]
        self.oid = oid

    def _adopt(self, stack: np.ndarray) -> None:
        """Make ``stack`` the float columns: the named planes become views
        of it, and its address is kept for the views :meth:`batch` makes."""
        self._stack = stack
        self._stack_address = stack.ctypes.data
        self.mlo, self.mhi, self.vlo, self.vhi, self.tref, self.slo, self.shi = stack_planes(stack)

    def __reduce__(self):
        # A copy rebuilt from the live rows: copied field by field, the
        # views would part from the stack and the kept address would
        # still be this store's.
        return ColumnStore.from_columns, (self.columns(),)

    def __repr__(self) -> str:
        return f"ColumnStore(n={self.n}, capacity={self.tref.shape[0]})"


def _object_at(cols, i: int) -> MovingObject:
    """Row ``i`` of an :class:`UpdateColumns` or a :class:`ColumnStore`
    as a :class:`MovingObject` (rigid: the lower velocity bounds)."""
    box = Box(*(float(bound[d, i]) for d in range(NDIMS) for bound in (cols.mlo, cols.mhi)))
    return MovingObject(
        int(cols.oid[i]), box, float(cols.vlo[0, i]), float(cols.vlo[1, i]), float(cols.tref[i])
    )


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
