"""Phase-scoped trace spans over the :class:`~repro.metrics.CostTracker`.

The paper's §VI evaluation is an exercise in cost *attribution*: I/O and
response time split between the initial join and per-update maintenance,
and — inside a tick — between TPR descent, exact pair tests and MTB
bucket scans.  :class:`ObsRecorder` makes that attribution first-class:

* a recorder owns a tree of :class:`Span` objects and a stack of the
  currently open ones (the root span is always open);
* attached to a :class:`~repro.metrics.CostTracker` (via
  :meth:`ObsRecorder.attach`), every counter increment lands on the
  **innermost open span** in addition to the tracker's global total;
* span totals roll up bottom-up, so the root's rollup is bit-exact
  equal to the tracker's counter deltas since :meth:`attach` — the
  recorder never changes what is counted, only *where* it is filed;
* every span carries a monotonic timer (:func:`~repro.metrics.
  monotonic_clock`), giving inclusive seconds per span and exclusive
  seconds after subtracting child time.

A recording starts when the caller attaches it; an engine owns none.
There is one kind of span: all activations with the same name and tags
under the same parent accumulate into one span with a call count.
Phases tagged with their timestamp (``engine.tick``, ``t=...``) thus
form a per-tick timeline, and hot call sites (tree descents, join runs)
stay one span however often they run.

The detached path stays free: code instruments itself through
:func:`tracker_span`, which returns a shared no-op context manager when
no recorder is attached.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from ..metrics import CostTracker, monotonic_clock

__all__ = ["Span", "ObsRecorder", "tracker_span", "NULL_SPAN"]

#: Current on-disk format tag of exported recordings.
FORMAT = "repro.obs/1"


class Span:
    """One node of the span tree: a named region with counters and a timer.

    ``counts`` holds the span's *exclusive* (self) counters — increments
    that arrived while this span was innermost.  :meth:`total` rolls up
    the subtree.  ``seconds`` is inclusive wall time over all ``calls``
    entries of the span.
    """

    __slots__ = (
        "sid", "name", "parent", "tags", "counts", "children",
        "seconds", "calls", "_t0", "_open", "_agg",
    )

    def __init__(
        self,
        sid: int,
        name: str,
        parent: Optional["Span"],
        tags: Optional[Dict[str, Any]] = None,
    ):
        self.sid = sid
        self.name = name
        self.parent = parent
        self.tags: Dict[str, Any] = tags if tags is not None else {}
        self.counts: Dict[str, Union[int, float]] = {}
        self.children: List[Span] = []
        self.seconds = 0.0
        self.calls = 0
        self._t0 = 0.0
        self._open = 0
        #: Children by ``(name, tags)``, made on the first child.
        self._agg: Optional[Dict[Any, "Span"]] = None

    def count(self, key: str, n: Union[int, float] = 1) -> None:
        """Add ``n`` to this span's exclusive counter ``key``."""
        counts = self.counts
        counts[key] = counts.get(key, 0) + n

    def total(self) -> Dict[str, Union[int, float]]:
        """Rolled-up counters of this span's whole subtree."""
        total: Dict[str, Union[int, float]] = dict(self.counts)
        for child in self.children:
            for key, value in child.total().items():
                total[key] = total.get(key, 0) + value
        return total

    def self_seconds(self) -> float:
        """Exclusive wall time: inclusive minus the children's inclusive."""
        return self.seconds - sum(child.seconds for child in self.children)

    def walk(self) -> Iterator["Span"]:
        """This span and its subtree, depth-first in creation order."""
        yield self
        for child in self.children:
            yield from child.walk()

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, calls={self.calls}, "
            f"seconds={self.seconds:.4f}, counts={self.counts})"
        )


class _SpanContext:
    """Reusable enter/exit plumbing for one span activation.

    Nest-safe: if the span is already open (recursion through the same
    call site), only the outermost activation accumulates elapsed time.
    """

    __slots__ = ("_recorder", "_span")

    def __init__(self, recorder: "ObsRecorder", span: Span):
        self._recorder = recorder
        self._span = span

    def __enter__(self) -> Span:
        span = self._span
        span.calls += 1
        if span._open == 0:
            span._t0 = monotonic_clock()
        span._open += 1
        self._recorder._stack.append(span)
        return span

    def __exit__(self, *exc_info: object) -> None:
        span = self._span
        stack = self._recorder._stack
        if stack and stack[-1] is span:
            stack.pop()
        else:  # pragma: no cover - misuse guard (overlapping exits)
            stack.remove(span)
        span._open -= 1
        if span._open == 0:
            span.seconds += monotonic_clock() - span._t0


class _NullSpan:
    """Shared no-op context manager — the disabled fast path."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info: object) -> None:
        return None


NULL_SPAN = _NullSpan()


def tracker_span(tracker: CostTracker, name: str, **tags: Any):
    """A span on ``tracker``'s recorder, or a no-op.

    The instrumentation idiom of phases and hot call sites alike::

        with tracker_span(tracker, "tpr.search"):
            ...

    costs one attribute test when no recorder is attached.
    """
    obs = tracker.obs
    if obs is None:
        return NULL_SPAN
    return obs.span(name, **tags)


class ObsRecorder:
    """A recording: span tree, open-span stack, export.

    Parameters
    ----------
    label:
        Name of the root span (shows up as the recording's top row).
    meta:
        Free-form metadata stored with every export (figure/series/x
        tags, workload parameters, ...).
    """

    def __init__(self, label: str = "run", meta: Optional[Dict[str, Any]] = None):
        self.meta: Dict[str, Any] = dict(meta) if meta else {}
        self._next_sid = 0
        self.root = self._new_span(label, None, None)
        self.root.calls = 1
        self.root._open = 1
        self.root._t0 = monotonic_clock()
        self._stack: List[Span] = [self.root]
        self.trackers: List[CostTracker] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def attach(self, tracker: CostTracker) -> None:
        """Start receiving ``tracker``'s increments (innermost-span filing)."""
        tracker.attach_obs(self)
        if tracker not in self.trackers:
            self.trackers.append(tracker)

    def detach(self) -> None:
        """Stop receiving increments from every attached tracker; a
        tracker another recorder has taken over since keeps that one."""
        for tracker in self.trackers:
            if tracker.obs is self:
                tracker.attach_obs(None)
        self.trackers.clear()

    def count(self, key: str, n: Union[int, float] = 1) -> None:
        """File ``n`` of counter ``key`` on the innermost open span."""
        counts = self._stack[-1].counts
        counts[key] = counts.get(key, 0) + n

    def span(self, name: str, **tags: Any) -> _SpanContext:
        """Open a child span of the innermost open span (per name and tags).

        Repeated calls under the same parent accumulate into one span
        whose ``calls`` counts the activations.
        """
        parent = self._stack[-1]
        key = (name, tuple(sorted(tags.items()))) if tags else name
        agg = parent._agg
        if agg is None:
            agg = parent._agg = {}
        span = agg.get(key)
        if span is None:
            span = self._new_span(name, parent, tags or None)
            parent.children.append(span)
            agg[key] = span
        return _SpanContext(self, span)

    def _new_span(
        self, name: str, parent: Optional[Span], tags: Optional[Dict[str, Any]]
    ) -> Span:
        span = Span(self._next_sid, name, parent, tags)
        self._next_sid += 1
        return span

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def current(self) -> Span:
        """The innermost open span (the root when no phase is open)."""
        return self._stack[-1]

    def root_totals(self) -> Dict[str, Union[int, float]]:
        """Rolled-up counters of the whole recording.

        These are bit-exact equal to the tracker's counter deltas since
        :meth:`attach` (the attribution contract tested by
        ``tests/obs/test_attribution.py``).
        """
        return self.root.total()

    def elapsed(self) -> float:
        """Wall seconds since the recording started."""
        return monotonic_clock() - self.root._t0

    def find(self, name: str) -> List[Span]:
        """All spans with the given name, in creation order."""
        return [span for span in self.root.walk() if span.name == name]

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_dict(self, meta: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        """The whole recording as a JSON-ready dict (root still usable)."""
        root_seconds = self.root.seconds
        if self.root._open:
            root_seconds += monotonic_clock() - self.root._t0
        merged_meta = dict(self.meta)
        if meta:
            merged_meta.update(meta)
        spans = []
        for span in self.root.walk():
            seconds = span.seconds
            if span._open:  # still open at export time: include elapsed
                seconds += monotonic_clock() - span._t0
            spans.append({
                "id": span.sid,
                "parent": span.parent.sid if span.parent is not None else None,
                "name": span.name,
                "tags": span.tags,
                "calls": span.calls,
                "seconds": seconds,
                "self": span.counts,
                "total": span.total(),
            })
        return {
            "format": FORMAT,
            "meta": merged_meta,
            "seconds": root_seconds,
            "totals": self.root.total(),
            "spans": spans,
        }

    def export_json(
        self, path: Union[str, Path], meta: Optional[Dict[str, Any]] = None
    ) -> Path:
        """Write the recording to ``path`` as JSON; returns the path."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(meta), indent=1, sort_keys=True))
        return path

    def __repr__(self) -> str:
        return (
            f"ObsRecorder(spans={self._next_sid}, "
            f"open={[s.name for s in self._stack]})"
        )

