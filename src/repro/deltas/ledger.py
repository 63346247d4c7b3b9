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
it re-merged and the rows that came out, changed or not);
:meth:`DeltaLedger.record` is its one-row form.  The ledger keeps the
open tick's planes as they arrive; only the netted stream below is the
contract.

Netting
-------
Within one tick a row may bounce (removed by invalidation, re-added by
the re-probe).  :meth:`DeltaLedger.events_at` nets the raw record: the
returned events are exactly the store's state diff across the tick, so
the netted per-tick stream is *engine independent* — serial, columnar
and sharded runs over the same workload emit identical netted streams.
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
read-only planes on each call.  :meth:`DeltaLedger.events_at` builds a
fresh :class:`DeltaEvent` tuple from the planes on every call, at a
constant delay per event (~0.45 us, no netting redone); the ledger
keeps no tuple, so no event outlives its reader.

A ledger may carry a *baseline*: the store rows at the moment the
ledger was (re)armed.  A fresh engine has an empty baseline; a shard
restored from a checkpoint is re-armed with the tick-start rows so the
reconciliation invariant ``baseline ⊕ events == store`` (sanitizer code
``SC701``) holds across recovery without re-emitting history.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import partial
from itertools import repeat
from typing import Dict, Iterator, List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..core.columns import pair_keys, run_heads, unpack_pair_keys

__all__ = [
    "DeltaEvent",
    "DeltaLedger",
    "DeltaReplayError",
    "DeltaView",
    "events_from_planes",
    "fold_events",
    "planes_from_events",
]

PairKey = Tuple[int, int]
Row = Tuple[float, float]
#: One tick's netted ``(sign, a, b, lo, hi)`` planes.
Planes = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]
#: The same planes packed: ``(removals, pair key, lo, hi)`` — the sign
#: follows from the removals-first order, ``a``/``b`` from the key.
Packed = Tuple[int, np.ndarray, np.ndarray, np.ndarray]


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


def events_from_planes(t: float, planes: Planes) -> Tuple[DeltaEvent, ...]:
    """The :class:`DeltaEvent` per row of ``(sign, a, b, lo, hi)`` planes."""
    return tuple(map(_make_event, zip(repeat(t), *(p.tolist() for p in planes))))


def _as_planes(sign=(), a=(), b=(), lo=(), hi=()) -> Planes:
    """Five column sequences as ``int64`` / ``float64`` planes."""
    return (
        np.array(sign, dtype=np.int64),
        np.array(a, dtype=np.int64),
        np.array(b, dtype=np.int64),
        np.array(lo, dtype=np.float64),
        np.array(hi, dtype=np.float64),
    )


def planes_from_events(events: Sequence[DeltaEvent]) -> Planes:
    """The ``(sign, a, b, lo, hi)`` planes of an event sequence, in order."""
    return _as_planes(*list(zip(*events))[1:])


class DeltaReplayError(ValueError):
    """An event stream violated exactly-once folding.

    Raised by :class:`DeltaView` on a duplicate add (the row is already
    present) or a phantom removal (the row is absent) — the two ways a
    delta stream can lie about the store it claims to describe.
    """


class DeltaLedger:
    """Append-only per-engine event log with per-tick netting.

    The write path stores what it is given and nothing else: the open
    tick's raw record is a list of *chunks* in arrival order, each one
    ``(sign, a, b, lo, hi)`` plane set handed over whole by
    :meth:`record_planes`.  Netting is one vectorized pass over the
    tick's chunks, memoized as planes (:meth:`planes_at`) until new raw
    records arrive; :meth:`advance` packs the tick it leaves into its
    netted form and drops the chunks.  :class:`DeltaEvent` objects exist
    only while the caller of :meth:`events_at` holds them.
    """

    __slots__ = (
        "_now", "_ticks", "_open", "_open_net", "_closed", "_records",
        "_baseline", "_flush",
    )

    def __init__(
        self,
        start_time: float = 0.0,
        baseline: Optional[Mapping[PairKey, Tuple[Row, ...]]] = None,
    ) -> None:
        self._now = float(start_time)
        #: Optional callback draining deferred store mutations into the
        #: raw record before any read or clock move.  A store with a
        #: deferred write path (:class:`~repro.core.result.
        #: ColumnResultStore`) installs its ``flush`` here on attach, so
        #: reading the ledger directly — not only through the engine —
        #: always sees the canonicalized stream.
        self._flush: Optional[callable] = None
        #: Every tick with at least one raw record, in recording order
        #: (monotone by construction: records land at the current clock).
        self._ticks: List[float] = []
        #: The open tick's chunks in arrival order; a chunk is a
        #: ``(sign, a, b, lo, hi)`` tuple of one sign and four planes.
        self._open: list = []
        #: (raw size netted, packed form, netted planes) of the open
        #: tick: its read memo, and what closing it keeps.
        self._open_net: Optional[Tuple[int, Packed, Planes]] = None
        #: closed tick → its netted planes, packed.
        self._closed: Dict[float, Packed] = {}
        #: Raw records taken since the ledger was armed.
        self._records = 0
        self._baseline: Dict[PairKey, Tuple[Row, ...]] = (
            {key: tuple(rows) for key, rows in baseline.items()}
            if baseline
            else {}
        )

    @property
    def now(self) -> float:
        """The tick new records are attributed to."""
        return self._now

    def advance(self, t: float) -> None:
        """Move the ledger clock forward (monotone non-decreasing).

        Moving past the open tick closes it: its netted planes are
        packed and its raw chunks freed.
        """
        if t < self._now:
            raise ValueError(f"time went backwards: {t} < {self._now}")
        if self._flush is not None:
            self._flush()
        if t > self._now and self._open:
            self._net_open()
            self._closed[self._now] = self._open_net[1]
            self._open, self._open_net = [], None
        self._now = float(t)

    def record(self, sign: int, a_oid: int, b_oid: int, start: float, end: float) -> None:
        """Append one raw transition: the one-row :meth:`record_planes`."""
        self.record_planes(
            sign,
            np.array([a_oid], dtype=np.int64),
            np.array([b_oid], dtype=np.int64),
            np.array([start], dtype=np.float64),
            np.array([end], dtype=np.float64),
        )

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
        """Every tick that recorded at least one raw transition."""
        if self._flush is not None:
            self._flush()
        return tuple(self._ticks)

    def planes_at(self, t: float) -> Planes:
        """The netted ``(sign, a, b, lo, hi)`` planes of tick ``t``.

        Row ``i`` is event ``i`` of :meth:`events_at`: same values, same
        canonical order.  The open tick is netted once per raw record
        count and its planes handed out as-is afterwards; a closed tick
        is unpacked from its packed form on each call.  Either way the
        arrays are read-only.  A quiet tick has empty planes.
        """
        if self._flush is not None:
            self._flush()
        if t == self._now:
            return self._net_open()
        closed = self._closed.get(t)
        return _NO_PLANES if closed is None else _unpack(closed)

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
        """All netted events, in tick order."""
        for t in self._ticks:
            yield from self.events_at(t)

    def baseline_rows(self) -> Dict[PairKey, Tuple[Row, ...]]:
        """The store rows the ledger was armed against (usually empty)."""
        return dict(self._baseline)

    def approx_bytes(self) -> int:
        """Resident bytes of the retained planes (the benchmark memory column)."""
        total = sum(plane.nbytes for chunk in self._open for plane in chunk[1:])
        if self._open_net is not None:
            _size, (_removals, key, _lo, _hi), planes = self._open_net
            total += key.nbytes + sum(plane.nbytes for plane in planes)
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
            f"records={len(self)})"
        )


def _raw_size(chunks: list) -> int:
    """Raw records in one tick's chunks."""
    return sum(chunk[1].shape[0] for chunk in chunks)


def _chunk_planes(chunk):
    """One chunk as ``(sign, a, b, lo, hi)`` planes, one sign per row."""
    sign, a, b, lo, hi = chunk
    return np.full(a.shape[0], sign, dtype=np.int64), a, b, lo, hi


def _net_planes(chunks: list) -> Tuple[Packed, Planes]:
    """Net one tick's raw chunks into canonical state-diff planes.

    A stable sort on ``(pair, start, end)`` brings equal rows together
    in arrival order; the signed count of each run is its net.  A
    well-formed record stream alternates presence per row, so the net
    is -1/0/+1.  A count beyond ±1 (a double add or double removal — a
    store-hook bug) is preserved as repeated rows so the
    :class:`DeltaView` fold, and hence the ``SC703`` sanitizer, still
    sees it instead of it vanishing in the netting.  Each surviving row
    is reported as first recorded (``-0.0`` and ``0.0`` are one row).
    Returns the packed form and the planes, which share ``lo``/``hi``.
    """
    sign, a, b, lo, hi = (
        np.concatenate(planes)
        for planes in zip(*(_chunk_planes(chunk) for chunk in chunks))
    )
    (key,) = pair_keys((a, b))
    order = np.lexsort((hi, lo, key))
    first = np.flatnonzero(run_heads(key[order], lo[order], hi[order]))
    net = np.add.reduceat(sign[order], first)
    rows = order[first]  # each distinct row, as first recorded
    # Removals first, then by pair and interval: the runs are already in
    # (pair, start, end) order, so a partition by sign is all it takes.
    gone, come = net < 0, net > 0
    rows = np.concatenate(
        [np.repeat(rows[gone], -net[gone]), np.repeat(rows[come], net[come])]
    )
    removals = int(-net[gone].sum())
    signs = np.repeat(
        np.array([-1, 1], dtype=np.int64), [removals, rows.shape[0] - removals]
    )
    packed = (removals, key[rows], lo[rows], hi[rows])
    planes = (signs, a[rows], b[rows], *packed[2:])
    for plane in planes:
        plane.flags.writeable = False  # memoized and shared with readers
    return packed, planes


def _unpack(packed: Packed) -> Planes:
    """The read-only netted planes of a closed tick's packed form."""
    removals, key, lo, hi = packed
    a, b = unpack_pair_keys(key)
    sign = np.ones(key.shape[0], dtype=np.int64)
    sign[:removals] = -1
    for plane in (sign, a, b):
        plane.flags.writeable = False
    return sign, a, b, lo, hi


#: What a tick with no raw record nets to.
_NO_PLANES: Planes = _as_planes()


class DeltaView:
    """The exact fold target: a pair → sorted-row map built from events.

    Applying a ``+1`` event inserts its row, a ``-1`` event removes it;
    both are exact-match operations that raise :class:`DeltaReplayError`
    when the stream and the claimed state disagree.  After folding a
    ledger from its baseline, :meth:`rows` equals the result store's
    ``interval_rows()`` bit-for-bit.
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


def fold_events(source, upto: Optional[float] = None) -> DeltaView:
    """Fold an event source (ledger or merger) into a :class:`DeltaView`.

    ``source`` needs ``ticks()`` / ``events_at(t)``; a ``baseline_rows``
    attribute, when present, seeds the view (restored shards).  Ticks
    strictly after ``upto`` are skipped, so sampling the view at every
    tick of a run is one fold per sample over an already-netted stream.
    """
    baseline = getattr(source, "baseline_rows", None)
    view = DeltaView(baseline() if baseline is not None else None)
    for t in source.ticks():
        if upto is not None and t > upto:
            break
        for event in source.events_at(t):
            view.apply(event)
    return view
