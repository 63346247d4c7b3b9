"""Cost accounting: disk I/O, intersection tests, monotonic timers.

The paper reports *number of disk I/Os* and *total response time* for
every experiment.  A single :class:`CostTracker` instance is threaded
through the storage layer and the join algorithms so benchmarks can read
both metrics after a run.  Trackers nest: a tracker can snapshot and
diff, which is how per-update maintenance costs are amortized.

This module is also the package's **single sanctioned clock source**
(mirroring how :mod:`repro.geometry.constants` is the single source of
tolerances): every layer that needs a real-time reading imports
:func:`monotonic_clock` from here instead of touching :mod:`time`
itself.  The simulation-time layers (``core``, ``join``, ``index``)
never read the real clock at all, so an answer is a function of the
inputs alone — the pinned answer digests of the end-to-end benchmark
and ``tests/workloads/test_vector.py`` would move if one did.

Phase-level *attribution* of these counters (which tick, which join,
which tree descent an increment belongs to) lives in :mod:`repro.obs`:
an :class:`~repro.obs.ObsRecorder` attached via :meth:`CostTracker.
attach_obs` receives a copy of every increment on its innermost open
span.  With no recorder attached the counters behave exactly as before
(one predictable-branch test per increment).
"""

from __future__ import annotations

import time
from typing import Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (obs imports us)
    from .obs.recorder import ObsRecorder

__all__ = ["CostTracker", "CostSnapshot", "COUNTER_KEYS", "monotonic_clock"]

#: The one sanctioned monotonic clock of the package.  Everything
#: that measures elapsed real time — stopwatches, obs span timers,
#: benchmarks — routes through this name.
monotonic_clock = time.perf_counter

#: Names of the attributable integer counters, in snapshot order.
COUNTER_KEYS = ("page_reads", "page_writes", "pair_tests", "node_visits")


class CostSnapshot:
    """Immutable copy of a tracker's counters at one point in time."""

    __slots__ = ("page_reads", "page_writes", "pair_tests", "node_visits", "cpu_seconds")

    def __init__(
        self,
        page_reads: int,
        page_writes: int,
        pair_tests: int,
        node_visits: int,
        cpu_seconds: float,
    ):
        self.page_reads = page_reads
        self.page_writes = page_writes
        self.pair_tests = pair_tests
        self.node_visits = node_visits
        self.cpu_seconds = cpu_seconds

    @property
    def io_total(self) -> int:
        """Reads plus writes — the paper's "I/O cost"."""
        return self.page_reads + self.page_writes

    def __sub__(self, other: "CostSnapshot") -> "CostSnapshot":
        return CostSnapshot(
            self.page_reads - other.page_reads,
            self.page_writes - other.page_writes,
            self.pair_tests - other.pair_tests,
            self.node_visits - other.node_visits,
            self.cpu_seconds - other.cpu_seconds,
        )

    def scaled(self, divisor: float) -> "CostSnapshot":
        """Amortized copy (e.g. per-update maintenance cost)."""
        if divisor <= 0:
            raise ValueError("divisor must be positive")
        return CostSnapshot(
            int(self.page_reads / divisor),
            int(self.page_writes / divisor),
            int(self.pair_tests / divisor),
            int(self.node_visits / divisor),
            self.cpu_seconds / divisor,
        )

    def __repr__(self) -> str:
        return (
            f"CostSnapshot(io={self.io_total}, tests={self.pair_tests}, "
            f"visits={self.node_visits}, cpu={self.cpu_seconds:.4f}s)"
        )


class CostTracker:
    """Mutable counters incremented by storage and join code.

    * ``page_reads`` / ``page_writes`` — buffer-pool misses, the honest
      disk I/O count of the simulated disk substrate;
    * ``pair_tests`` — candidate pairs tested, the dominant CPU term.
      The tree engines count what the scalar plane sweep tests exactly
      (1-D sweep candidates per node pair, plus bound and filter tests);
      the columnar engine counts the stage-one candidates its sweep
      join's grid enumerates (``batch_sweep_join``'s ``counter[0]``),
      of which the ``exact_tests`` obs count reached the exact kernel;
    * ``node_visits`` — index nodes visited by traversals;
    * a monotonic stopwatch accumulating time inside :meth:`timed`.

    When an :class:`~repro.obs.ObsRecorder` is attached (see
    :meth:`attach_obs`), every increment is *additionally* delivered to
    the recorder's innermost open span, which is how ``repro.obs``
    attributes cost to phases without changing any of the totals here.
    """

    __slots__ = (
        "page_reads",
        "page_writes",
        "pair_tests",
        "node_visits",
        "cpu_seconds",
        "obs",
        "_timed_depth",
        "_timed_t0",
    )

    def __init__(self) -> None:
        self.page_reads = 0
        self.page_writes = 0
        self.pair_tests = 0
        self.node_visits = 0
        self.cpu_seconds = 0.0
        #: Attached :class:`~repro.obs.ObsRecorder`, or ``None``.
        self.obs: Optional["ObsRecorder"] = None
        self._timed_depth = 0
        self._timed_t0 = 0.0

    # ------------------------------------------------------------------
    def count_read(self, n: int = 1) -> None:
        self.page_reads += n
        if self.obs is not None:
            self.obs.count("page_reads", n)

    def count_write(self, n: int = 1) -> None:
        self.page_writes += n
        if self.obs is not None:
            self.obs.count("page_writes", n)

    def count_pair_tests(self, n: int = 1) -> None:
        self.pair_tests += n
        if self.obs is not None:
            self.obs.count("pair_tests", n)

    def count_node_visit(self, n: int = 1) -> None:
        self.node_visits += n
        if self.obs is not None:
            self.obs.count("node_visits", n)

    # ------------------------------------------------------------------
    def attach_obs(self, recorder: Optional["ObsRecorder"]) -> None:
        """Attach (or with ``None`` detach) an observability recorder.

        From this point on every counter increment also lands on the
        recorder's innermost open span; the tracker's own totals are
        unaffected, which is what keeps the span rollup bit-exact
        against them.
        """
        self.obs = recorder

    # ------------------------------------------------------------------
    def timed(self) -> "_Stopwatch":
        """Context manager adding elapsed monotonic time to ``cpu_seconds``.

        Nest-safe: re-entering while a stopwatch is already running does
        not double-count — only the outermost region accumulates, so
        ``cpu_seconds`` is always *inclusive* wall time of the outermost
        measured regions.  (Per-phase exclusive vs. inclusive splits are
        the job of :mod:`repro.obs` span timers.)

        >>> tracker = CostTracker()
        >>> with tracker.timed():
        ...     with tracker.timed():
        ...         pass
        >>> tracker.cpu_seconds >= 0.0
        True
        """
        return _Stopwatch(self)

    def snapshot(self) -> CostSnapshot:
        """Immutable copy of the current counters."""
        return CostSnapshot(
            self.page_reads,
            self.page_writes,
            self.pair_tests,
            self.node_visits,
            self.cpu_seconds,
        )

    def reset(self) -> None:
        """Zero all counters (the attached recorder, if any, stays)."""
        self.page_reads = 0
        self.page_writes = 0
        self.pair_tests = 0
        self.node_visits = 0
        self.cpu_seconds = 0.0

    def __repr__(self) -> str:
        return f"CostTracker({self.snapshot()!r})"


class _Stopwatch:
    """Context manager used by :meth:`CostTracker.timed`."""

    __slots__ = ("_tracker",)

    def __init__(self, tracker: CostTracker):
        self._tracker = tracker

    def __enter__(self) -> "_Stopwatch":
        tracker = self._tracker
        if tracker._timed_depth == 0:
            tracker._timed_t0 = monotonic_clock()
        tracker._timed_depth += 1
        return self

    def __exit__(self, *exc_info: object) -> None:
        tracker = self._tracker
        tracker._timed_depth -= 1
        if tracker._timed_depth == 0:
            tracker.cpu_seconds += monotonic_clock() - tracker._timed_t0
