"""The delta ledger: signed result-store changes, netted per tick.

Event grammar
-------------
One event is ``(tick, sign, a_oid, b_oid, start, end)`` with ``sign ∈
{+1, -1}``: the *row* ``((a_oid, b_oid), (start, end))`` — one exact
stored interval of one pair — entered (``+1``) or left (``-1``) the
materialized result store at ``tick``.  Events are state transitions,
not operations: a store mutation that rewrites a pair's interval list
(a re-merge, an invalidation plus re-probe) is recorded as the row
*diff* of old versus new list.  Folding is therefore plain multiset
insert/remove — no merge logic, no order sensitivity — and
reconstructs the store bit-for-bit (:class:`DeltaView`).

Raw record
----------
A store reports whole ``(a, b, lo, hi)`` planes under one sign through
:meth:`DeltaLedger.record_planes` (the result store hands over the rows
it re-merged and the rows that came out, changed or not).  The ledger
keeps the open tick's planes as they arrive; only the netted stream
below is the contract.

Netting
-------
Within one tick a row may bounce (removed by invalidation, re-added by
the re-probe).  :meth:`DeltaLedger.events_at` nets the raw record: the
returned events are exactly the store's state diff across the tick, so
the netted per-tick stream is *engine independent* — the tree and
columnar engines over the same workload emit identical netted streams.
Netting is one vectorized sort-and-sum over the tick's raw planes; its
result — the tick's netted ``(sign, a, b, lo, hi)`` planes, canonically
ordered (removals first, then by pair and interval) — is what
:meth:`DeltaLedger.planes_at` hands to array readers (watches filter it
with masks).  The open tick's netted planes are memoized until a new
raw record arrives.  When the clock moves on, the tick it leaves is
*closed*: netted then unless a read already built the memo, and kept as
``(removal count, packed pair key, lo, hi)`` — ~24 B per event (32 B
when an oid needs the wide key), the sign plane implied by the
removals-first order — while its raw chunks and memo are freed.
:meth:`DeltaLedger.planes_at` unpacks a closed tick into the same
read-only planes, and keeps the last closed tick it unpacked until the
clock moves, so the watches polling one tick share one unpack.  Planes
are handed out as :class:`NettedPlanes`, which build an oid → rows
index on their first oid-filtered read (:meth:`NettedPlanes.oid_rows`)
and share it with every later one.  :meth:`DeltaLedger.events_at` builds a
fresh :class:`DeltaEvent` tuple from the planes on every call, at a
constant delay per event (0.4-0.55 us on the dense e2e workloads, no
netting redone, and no garbage collection inside the build:
:func:`events_from_planes`); the ledger
keeps no tuple, so no event outlives its reader.

A ledger is armed next to an empty store, so the reconciliation
invariant is ``fold(events) == store`` (sanitizer code ``SC701``).
A tick is read only once it has begun: asking for a tick after the
clock raises :class:`ValueError` rather than answering with an empty
tick that would fill later.

Retention
---------
The ledger is compacted like a log.  Every open subscription
(:class:`~repro.deltas.watch.DeltaSubscription`) registers weakly with
its ledger (:meth:`DeltaLedger.subscribe`) and exposes a tick-valued
cursor, the newest tick it has consumed.  When the clock moves, the
closed ticks that every live cursor has passed — except the newest
closed tick, which stays as it is — may be *folded* into the oldest
retained tick: their packed planes and the oldest tick's are netted
together in one pass over the already-sorted planes, and the result
is kept under the newest folded tick.  So the *oldest retained tick*
stands for every tick up to and including it: its events take the
store from empty to its state at the end of that tick, and
``fold_events``, the signed sum and ``SC701``–``SC703`` hold unchanged
over the retained stream.  Netting keeps a count beyond ±1 as repeated
rows, so a duplicate add or a phantom removal survives a fold and
``SC703`` still sees it.  A read of a tick older than the oldest
retained one (:attr:`DeltaLedger.retained_from`) raises
:class:`DeltaRetentionError` instead of answering with an empty tick.

Folds are rare: one runs only once the foldable ticks hold
``_FOLD_RATIO`` times the oldest tick's events.  The oldest tick is
about the store's rows, so the ledger retains at most ``1 +
_FOLD_RATIO`` times the store's rows plus the newest closed and the
open tick, whatever the run's length, and a subscription that stops
polling pins every tick after its cursor until it is dropped.
"""

from __future__ import annotations

import gc
import math
import weakref
from bisect import bisect_left, bisect_right
from functools import partial
from itertools import repeat
from typing import Dict, Iterator, List, Mapping, NamedTuple, Optional, Tuple

import numpy as np

from ..core.columns import pair_keys, pair_lexsort, run_heads, unpack_pair_keys
from ..geometry.interval import check_clock
from ..geometry.kernels import radix_argsort

__all__ = [
    "DeltaEvent",
    "DeltaLedger",
    "DeltaReplayError",
    "DeltaRetentionError",
    "DeltaView",
    "NettedPlanes",
    "events_from_planes",
    "fold_events",
]

PairKey = Tuple[int, int]
Row = Tuple[float, float]
#: One tick's netted ``(sign, a, b, lo, hi)`` planes.
Planes = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]
#: The same planes packed: ``(removals, pair key, lo, hi)`` — the sign
#: follows from the removals-first order, ``a``/``b`` from the key.
Packed = Tuple[int, np.ndarray, np.ndarray, np.ndarray]

#: Fold once the foldable ticks hold this many times the oldest retained
#: tick's events.  A fold rewrites the oldest tick (about the store's
#: ``R`` rows) and the tail, ``(1 + ratio) R`` rows, once every ``ratio
#: R / e`` ticks at ``e`` events a tick: 1.5 e rows a tick at 2 against
#: 2 e at 1, while retention stays within ``(1 + ratio) R``.  On the
#: dense workloads (``R / e`` about 8) 2 folds on one tick in sixteen,
#: under the tenth a 90th-percentile step time reads; 1 folded on one in
#: eight and moved it.
_FOLD_RATIO = 2


class DeltaEvent(NamedTuple):
    """One netted result-store transition (picklable, hashable)."""

    #: Engine timestamp the transition happened at.
    tick: float
    #: ``+1`` — the row entered the store; ``-1`` — it left.
    sign: int
    #: First endpoint of the pair (dataset A).
    a_oid: int
    #: Second endpoint of the pair (dataset B).
    b_oid: int
    #: Stored intersection-interval start.
    start: float
    #: Stored intersection-interval end.
    end: float

    @property
    def pair(self) -> PairKey:
        """The ``(a_oid, b_oid)`` result key the event belongs to."""
        return (self.a_oid, self.b_oid)

    @property
    def interval(self) -> Row:
        """The exact ``(start, end)`` row that entered or left."""
        return (self.start, self.end)


#: ``DeltaEvent._make`` without its Python-level frame (one per event).
_make_event = partial(tuple.__new__, DeltaEvent)


class NettedPlanes(tuple):
    """One tick's read-only netted ``(sign, a, b, lo, hi)`` planes.

    A tuple of the five planes, which also carries an oid → rows index
    built on the first :meth:`oid_rows` call: every oid watch reading
    the same planes object shares one index build, and a lookup is two
    binary searches.  The index lives and dies with its planes, so a
    re-netted tick (a new planes object) can never serve a stale one.
    """

    def __new__(cls, planes) -> "NettedPlanes":
        self = super().__new__(cls, planes)
        #: ``(oids, rows)``: every ``(oid, row)`` of the ``a`` and ``b``
        #: planes once, sorted by oid, then by row.
        self._by_oid = None
        return self

    def oid_rows(self, oid: int) -> np.ndarray:
        """The rows whose pair holds ``oid``, ascending (read-only)."""
        if self._by_oid is None:
            _sign, a, b, _lo, _hi = self
            oids = np.column_stack((a, b)).reshape(-1)  # row-major: a, b per row
            rows = np.arange(oids.shape[0]) >> 1
            if (a == b).any():  # a pair of one oid with itself is one row
                keep = np.ones(oids.shape[0], dtype=bool)
                keep[1::2] = a != b
                oids, rows = oids[keep], rows[keep]
            # Stable: the rows of one oid keep their ascending order.
            order = radix_argsort(oids)
            oids, rows = oids[order], rows[order]
            oids.flags.writeable = rows.flags.writeable = False
            self._by_oid = (oids, rows)
        oids, rows = self._by_oid
        return rows[oids.searchsorted(oid, "left") : oids.searchsorted(oid, "right")]


def events_from_planes(t: float, planes: Planes) -> Tuple[DeltaEvent, ...]:
    """The :class:`DeltaEvent` per row of ``(sign, a, b, lo, hi)`` planes.

    Built with automatic garbage collection paused: thousands of fresh
    records would otherwise trigger young-generation passes that walk
    every young container the caller holds.  Nothing here can leak a
    cycle (an event holds only numbers), the build is one C-level loop
    (no Python bytecode, so no other thread runs in the middle of it),
    and the collector's previous state is restored, also when the build
    raises.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return tuple(map(_make_event, zip(repeat(t), *map(np.ndarray.tolist, planes))))
    finally:
        if was_enabled:
            gc.enable()


def _as_planes(sign=(), a=(), b=(), lo=(), hi=()) -> NettedPlanes:
    """Five column sequences as ``int64`` / ``float64`` planes."""
    return NettedPlanes((
        np.array(sign, dtype=np.int64),
        np.array(a, dtype=np.int64),
        np.array(b, dtype=np.int64),
        np.array(lo, dtype=np.float64),
        np.array(hi, dtype=np.float64),
    ))


class DeltaReplayError(ValueError):
    """An event stream violated exactly-once folding.

    Raised by :class:`DeltaView` on a duplicate add (the row is already
    present) or a phantom removal (the row is absent) — the two ways a
    delta stream can lie about the store it claims to describe.
    """


class DeltaRetentionError(LookupError):
    """A read asked for a tick the ledger has folded away.

    Raised for any tick older than the oldest retained one
    (:attr:`DeltaLedger.retained_from`): its events now live, netted,
    in that tick's, so answering with an empty tick would be a lie.
    """


class DeltaLedger:
    """Per-engine event log with per-tick netting, compacted behind its readers.

    The write path stores what it is given and nothing else: the open
    tick's raw record is a list of *chunks* in arrival order, each one
    ``(sign, a, b, lo, hi)`` plane set handed over whole by
    :meth:`record_planes`.  Netting is one vectorized pass over the
    tick's chunks, memoized as planes (:meth:`planes_at`) until new raw
    records arrive; :meth:`advance` packs the tick it leaves into its
    netted form and drops the chunks, then folds the closed ticks every
    subscription has passed into the oldest retained one once they have
    grown large enough (see the module's "Retention").  The last closed
    tick read is kept unpacked until another closed tick is read or the
    clock moves.  :class:`DeltaEvent` objects exist only while the
    caller of :meth:`events_at` holds them.
    """

    __slots__ = (
        "_now", "_ticks", "_open", "_open_net", "_closed", "_last_closed",
        "_records", "_flush", "_subscribers", "_retained_from",
    )

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        #: Optional callback draining deferred store mutations into the
        #: raw record before any read or clock move.  A store with a
        #: deferred write path (:class:`~repro.core.result.
        #: ColumnResultStore`) installs its ``flush`` here on attach, so
        #: reading the ledger directly — not only through the engine —
        #: always sees the canonicalized stream.
        self._flush: Optional[callable] = None
        #: Every retained tick with at least one raw record, in recording
        #: order (monotone by construction: records land at the current
        #: clock); folding drops a prefix after the first entry.
        self._ticks: List[float] = []
        #: The open tick's chunks in arrival order; a chunk is a
        #: ``(sign, a, b, lo, hi)`` tuple of one sign and four planes.
        self._open: list = []
        #: (raw size netted, packed form, netted planes) of the open
        #: tick: its read memo, and what closing it keeps.
        self._open_net: Optional[Tuple[int, Packed, NettedPlanes]] = None
        #: closed tick → its netted planes, packed.
        self._closed: Dict[float, Packed] = {}
        #: (tick, planes) of the last closed tick :meth:`planes_at` unpacked.
        self._last_closed: Optional[Tuple[float, NettedPlanes]] = None
        #: Raw records taken since the ledger was armed.
        self._records = 0
        #: The live subscriptions whose cursors hold retention back.
        self._subscribers = weakref.WeakSet()
        #: The oldest tick a read may ask for: ``-inf`` until the first
        #: fold, then the oldest retained tick.
        self._retained_from = -math.inf

    @property
    def now(self) -> float:
        """The tick new records are attributed to."""
        return self._now

    @property
    def retained_from(self) -> float:
        """The oldest tick a read may ask for (``-inf`` until a fold).

        After a fold it is the oldest retained tick, whose events net
        every tick up to it; reading an older tick raises
        :class:`DeltaRetentionError`.
        """
        return self._retained_from

    def subscribe(self, subscription) -> None:
        """Hold retention behind ``subscription.cursor`` while it lives.

        The ledger keeps a weak reference only: a dropped subscription
        stops pinning ticks at the next clock move.
        """
        self._subscribers.add(subscription)

    def advance(self, t: float) -> None:
        """Move the ledger clock forward (monotone non-decreasing).

        Moving past the open tick closes it: its netted planes are
        packed and its raw chunks freed, and the ticks every
        subscription has passed may fold into the oldest retained one.
        Any move also frees the closed tick kept unpacked, so between
        ticks the ledger holds packed ticks only.
        """
        check_clock(self._now, t)
        if self._flush is not None:
            self._flush()
        if t > self._now:
            self._last_closed = None
            if self._open:
                self._net_open()
                self._closed[self._now] = self._open_net[1]
                self._open, self._open_net = [], None
            self._compact()
        self._now = float(t)

    def _compact(self) -> None:
        """Fold the passed closed ticks into the oldest retained one,
        once they hold ``_FOLD_RATIO`` times its events.

        Called when the clock moves, so every retained tick is closed;
        the newest one is never folded, and neither is a tick some live
        subscription has not polled past.
        """
        ticks = self._ticks
        cursor = min((sub.cursor for sub in self._subscribers), default=math.inf)
        # Index of the newest foldable tick: passed by every cursor, and
        # not the newest closed tick.
        last = min(bisect_right(ticks, cursor), len(ticks) - 1) - 1
        if last < 1:
            return
        closed = self._closed
        tail = sum(closed[t][1].shape[0] for t in ticks[1 : last + 1])
        if tail < _FOLD_RATIO * closed[ticks[0]][1].shape[0]:
            return
        folded = ticks[: last + 1]
        closed[folded[-1]] = _fold_packed([closed.pop(t) for t in folded])
        del ticks[:last]
        self._retained_from = folded[-1]

    def record_planes(self, sign: int, a, b, lo, hi) -> None:
        """Append one raw transition per row of four parallel planes.

        All rows carry the same ``sign``.  The ledger takes ownership
        of the arrays — it keeps them as they are, no copy — so the
        caller must never write them afterwards (the columnar store
        only ever replaces its planes, it does not write them in
        place).  Empty planes leave no trace.
        """
        if a.shape[0]:
            if not self._open:
                self._ticks.append(self._now)
            self._open.append((sign, a, b, lo, hi))
            self._records += a.shape[0]

    def ticks(self) -> Tuple[float, ...]:
        """Every retained tick that recorded at least one raw transition.

        The first one nets every tick folded into it (see
        :attr:`retained_from`).
        """
        if self._flush is not None:
            self._flush()
        return tuple(self._ticks)

    def planes_at(self, t: float) -> Planes:
        """The netted ``(sign, a, b, lo, hi)`` planes of tick ``t``.

        Row ``i`` is event ``i`` of :meth:`events_at`: same values, same
        canonical order.  The open tick is netted once per raw record
        count and its planes handed out as-is afterwards; a closed tick
        is unpacked from its packed form once, and handed out as-is
        until another closed tick is read or the clock moves.  Either
        way the arrays are read-only.  A quiet tick has empty planes; a
        tick older than :attr:`retained_from` raises
        :class:`DeltaRetentionError`, and a tick after the clock (or
        NaN) raises :class:`ValueError`: it has not begun, so an empty
        answer now could differ from the answer once it has.
        """
        if not t <= self._now:
            raise ValueError(
                f"tick {t:g} is after the ledger clock {self._now:g}: "
                "it has not begun"
            )
        if t < self._retained_from:
            raise DeltaRetentionError(
                f"tick {t:g} was folded into tick {self._retained_from:g}, "
                "the oldest one this ledger retains"
            )
        if self._flush is not None:
            self._flush()
        if t == self._now:
            return self._net_open()
        last = self._last_closed
        if last is not None and last[0] == t:
            return last[1]
        closed = self._closed.get(t)
        if closed is None:
            return _NO_PLANES
        planes = _unpack(closed)
        self._last_closed = (t, planes)
        return planes

    def _net_open(self) -> Planes:
        """The open tick's netted planes, memoized per raw record count."""
        if not self._open:
            return _NO_PLANES
        size = _raw_size(self._open)
        if self._open_net is None or self._open_net[0] != size:
            self._open_net = (size, *_net_planes(self._open))
        return self._open_net[2]

    def events_at(self, t: float) -> Tuple[DeltaEvent, ...]:
        """The netted events of tick ``t`` (empty for a quiet tick).

        Built from :meth:`planes_at` at a constant delay per event, as
        a new tuple on every call: re-reads are equal, not identical,
        and the ledger keeps none of them.
        """
        return events_from_planes(t, self.planes_at(t))

    def events(self) -> Iterator[DeltaEvent]:
        """All retained netted events, in tick order.

        Lists the ticks through :meth:`ticks`, so mutations the store
        still holds deferred are drained first.
        """
        for t in self.ticks():
            yield from self.events_at(t)

    def approx_bytes(self) -> int:
        """Resident bytes of the retained planes and their oid indexes
        (the benchmark memory column)."""
        total = sum(plane.nbytes for chunk in self._open for plane in chunk[1:])
        if self._open_net is not None:
            _size, (_removals, key, _lo, _hi), planes = self._open_net
            total += key.nbytes + sum(plane.nbytes for plane in planes)
            total += _index_bytes(planes)
        if self._last_closed is not None:
            # Its ``lo``/``hi`` are the packed tick's own arrays.
            planes = self._last_closed[1]
            total += sum(plane.nbytes for plane in planes[:3]) + _index_bytes(planes)
        for _removals, key, lo, hi in self._closed.values():
            total += key.nbytes + lo.nbytes + hi.nbytes
        return total

    def __len__(self) -> int:
        """Total raw records (diagnostics; netted streams may be shorter).

        A running count kept at record time, so it still counts the
        closed ticks whose raw chunks are gone.
        """
        return self._records

    def __repr__(self) -> str:
        return (
            f"DeltaLedger(now={self._now:g}, ticks={len(self._ticks)}, "
            f"retained_from={self._retained_from:g}, records={len(self)})"
        )


def _index_bytes(planes: NettedPlanes) -> int:
    """Bytes of a planes object's oid index (0 until it is built)."""
    return 0 if planes._by_oid is None else sum(arr.nbytes for arr in planes._by_oid)


def _raw_size(chunks: list) -> int:
    """Raw records in one tick's chunks."""
    return sum(chunk[1].shape[0] for chunk in chunks)


def _chunk_planes(chunk):
    """One chunk as ``(sign, a, b, lo, hi)`` planes, one sign per row."""
    sign, a, b, lo, hi = chunk
    return np.full(a.shape[0], sign, dtype=np.int64), a, b, lo, hi


def _net_rows(sign, key, lo, hi) -> Tuple[int, np.ndarray]:
    """Net signed rows: ``(removals, rows)``, the surviving row indexes.

    A stable sort on ``(pair, start, end)`` brings equal rows together
    in input order; the signed count of each run is its net.  A
    well-formed record stream alternates presence per row, so the net
    is -1/0/+1.  A count beyond ±1 (a double add or double removal — a
    store-hook bug) is preserved as repeated rows so the
    :class:`DeltaView` fold, and hence the ``SC703`` sanitizer, still
    sees it instead of it vanishing in the netting.  Each surviving row
    is the first of its run (``-0.0`` and ``0.0`` are one row).  The
    sort is a stable argsort of the key — a timsort, which merges the
    already-sorted chunks and ticks it is handed instead of sorting them
    afresh (:func:`~repro.core.columns.pair_lexsort`).  ``rows`` lists
    the removals first, then the additions, each by pair and interval.
    """
    order = pair_lexsort(key, lo, hi)
    first = np.flatnonzero(run_heads(key[order], lo[order], hi[order]))
    net = np.add.reduceat(sign[order], first)
    rows = order[first]  # each distinct row, as first recorded
    # Removals first, then by pair and interval: the runs are already in
    # (pair, start, end) order, so a partition by sign is all it takes.
    gone, come = net < 0, net > 0
    if np.abs(net).max(initial=0) <= 1:  # a well-formed stream
        return int(gone.sum()), np.concatenate([rows[gone], rows[come]])
    rows = np.concatenate(
        [np.repeat(rows[gone], -net[gone]), np.repeat(rows[come], net[come])]
    )
    return int(-net[gone].sum()), rows


def _signs(removals: int, n: int) -> np.ndarray:
    """The sign plane of ``n`` canonical rows, ``removals`` of them first."""
    return np.repeat(np.array([-1, 1], dtype=np.int64), [removals, n - removals])


def _net_planes(chunks: list) -> Tuple[Packed, NettedPlanes]:
    """Net one tick's raw chunks into canonical state-diff planes
    (:func:`_net_rows`).

    Returns the packed form and the planes, which share ``lo``/``hi``.
    """
    sign, a, b, lo, hi = (
        np.concatenate(planes)
        for planes in zip(*(_chunk_planes(chunk) for chunk in chunks))
    )
    (key,) = pair_keys((a, b))
    removals, rows = _net_rows(sign, key, lo, hi)
    packed = (removals, key[rows], lo[rows], hi[rows])
    planes = (_signs(removals, rows.shape[0]), a[rows], b[rows], *packed[2:])
    for plane in planes:
        plane.flags.writeable = False  # memoized and shared with readers
    return packed, NettedPlanes(planes)


def _fold_packed(ticks: List[Packed]) -> Packed:
    """Net consecutive closed ticks into one packed tick (:func:`_net_rows`).

    The ticks' packed planes are concatenated in tick order — each one
    canonical, so the key sort merges sorted runs — and netted without
    unpacking a key.  The result is the state diff across all of them:
    a row added in one tick and removed in a later one is gone, and a
    count beyond ±1 stays repeated rows.
    """
    keys = [key for _removals, key, _lo, _hi in ticks]
    if len({key.dtype for key in keys}) > 1:  # a wide key among packed ones
        keys = pair_keys(*map(unpack_pair_keys, keys))
    key = np.concatenate(keys)
    lo = np.concatenate([packed[2] for packed in ticks])
    hi = np.concatenate([packed[3] for packed in ticks])
    if not key.shape[0]:
        return 0, key, lo, hi
    sign = np.concatenate([_signs(packed[0], packed[1].shape[0]) for packed in ticks])
    removals, rows = _net_rows(sign, key, lo, hi)
    lo, hi = lo[rows], hi[rows]
    lo.flags.writeable = hi.flags.writeable = False  # shared by unpacked planes
    return removals, key[rows], lo, hi


def _unpack(packed: Packed) -> NettedPlanes:
    """The read-only netted planes of a closed tick's packed form."""
    removals, key, lo, hi = packed
    a, b = unpack_pair_keys(key)
    sign = np.ones(key.shape[0], dtype=np.int64)
    sign[:removals] = -1
    for plane in (sign, a, b):
        plane.flags.writeable = False
    return NettedPlanes((sign, a, b, lo, hi))


#: What a tick with no raw record nets to.
_NO_PLANES = _as_planes()


class DeltaView:
    """The exact fold target: a pair → sorted-row map built from events.

    Applying a ``+1`` event inserts its row, a ``-1`` event removes it;
    both are exact-match operations that raise :class:`DeltaReplayError`
    when the stream and the claimed state disagree.  After folding a
    ledger from an empty view, :meth:`rows` equals the result store's
    ``interval_rows()`` bit-for-bit; a view seeded with ``rows`` folds
    later events onto that state.
    """

    __slots__ = ("_rows",)

    def __init__(
        self, rows: Optional[Mapping[PairKey, Tuple[Row, ...]]] = None
    ) -> None:
        self._rows: Dict[PairKey, List[Row]] = {}
        if rows:
            for key, pair_rows in rows.items():
                self._rows[key] = sorted(tuple(row) for row in pair_rows)

    def apply_row(
        self, sign: int, a_oid: int, b_oid: int, start: float, end: float
    ) -> None:
        """Apply one transition; raises :class:`DeltaReplayError` if ill-formed."""
        key = (a_oid, b_oid)
        row = (start, end)
        rows = self._rows.get(key)
        if sign > 0:
            if rows is None:
                self._rows[key] = [row]
                return
            pos = bisect_left(rows, row)
            if pos < len(rows) and rows[pos] == row:
                raise DeltaReplayError(
                    f"duplicate add of interval {row} for pair {key}"
                )
            rows.insert(pos, row)
        else:
            pos = bisect_left(rows, row) if rows is not None else 0
            if rows is None or pos >= len(rows) or rows[pos] != row:
                raise DeltaReplayError(
                    f"removal of absent interval {row} for pair {key}"
                )
            rows.pop(pos)
            if not rows:
                del self._rows[key]

    def apply(self, event: DeltaEvent) -> None:
        self.apply_row(event.sign, event.a_oid, event.b_oid, event.start, event.end)

    def rows(self) -> Dict[PairKey, Tuple[Row, ...]]:
        """The materialized view as exact, sorted interval rows."""
        return {key: tuple(rows) for key, rows in self._rows.items()}

    def __len__(self) -> int:
        return len(self._rows)

    def __repr__(self) -> str:
        return f"DeltaView(pairs={len(self._rows)})"


def fold_events(ledger: DeltaLedger, upto: Optional[float] = None) -> DeltaView:
    """Fold a ledger's retained events into a :class:`DeltaView`.

    Ticks strictly after ``upto`` are skipped, so sampling the view at
    every retained tick of a run is one fold per sample over an
    already-netted stream; an ``upto`` older than the ledger's
    :attr:`~DeltaLedger.retained_from` raises
    :class:`DeltaRetentionError`, as that state was folded away.
    """
    if upto is not None and upto < ledger.retained_from:
        raise DeltaRetentionError(
            f"cannot fold up to tick {upto:g}: the oldest retained tick is "
            f"{ledger.retained_from:g}"
        )
    view = DeltaView()
    for t in ledger.ticks():
        if upto is not None and t > upto:
            break
        for event in ledger.events_at(t):
            view.apply(event)
    return view
