"""Deterministic fault injection for the sharded execution layer.

Chaos testing the supervisor (:mod:`repro.par.supervisor`) needs
*reproducible* failures: a worker that dies exactly at tick 3, a reply
that arrives after the round-trip deadline, a result that cannot be
pickled.  This module is the single vocabulary for those injected
faults, shared by the worker loop (which arms worker-side faults), the
supervisor (which arms parent-side faults), and the chaos test matrix.

A *fault plan* is a semicolon-separated spec string, each entry
``kind`` or ``kind:key=value,key=value``::

    kill:op=tick,nth=2          die on the 2nd tick command
    hang:op=ops                 sleep "forever" before the 1st ops command
    delay:op=tick,seconds=0.5   stall half a second, then proceed
    error:op=pairs_at           raise inside command dispatch
    badresult:op=store_dump     return an unpicklable result
    drop:nth=1                  parent side: discard one good reply

Recognised keys: ``op`` (command op to match; omitted = any command),
``shard`` (shard id filter), ``nth`` (1-based count of *matching*
commands before firing, default 1) and ``seconds`` (stall length for
``delay``/``hang``).  Every fault fires **at most once**; respawned
workers are always armed with the empty plan, so an injected crash
cannot re-fire during checkpoint/replay recovery and recovery itself is
deterministic.

Plans come from ``JoinConfig(faults="…")`` or the ``REPRO_FAULTS``
environment variable (the config wins; workers inherit the spec
explicitly through :func:`repro.par.worker.serve`, not through the
environment snapshot).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

__all__ = [
    "Fault",
    "FaultPlan",
    "FaultInjected",
    "Unpicklable",
    "WORKER_KINDS",
    "PARENT_KINDS",
    "FAULTS_ENV",
]

#: Environment variable consulted when no explicit spec is given.
FAULTS_ENV = "REPRO_FAULTS"

#: Kinds acted on inside the worker process, before/around dispatch.
WORKER_KINDS = ("kill", "hang", "delay", "error", "badresult")
#: Kinds acted on in the supervisor, around the pipe round-trip.
PARENT_KINDS = ("drop",)

#: ``hang`` is an unbounded stall; long enough that only the
#: supervisor's timeout (or the test watchdog) can end the wait.
HANG_SECONDS = 3600.0


class FaultInjected(RuntimeError):
    """Raised by the ``error`` fault kind inside command dispatch."""


class Unpicklable:
    """A value that defeats pickling (the ``badresult`` payload)."""

    def __reduce__(self):
        raise TypeError("injected unpicklable result")


@dataclass
class Fault:
    """One armed fault: what to do, and which command triggers it."""

    kind: str
    op: Optional[str] = None
    shard: Optional[int] = None
    nth: int = 1
    seconds: Optional[float] = None
    #: Matching commands seen so far (mutated as the plan observes).
    seen: int = field(default=0, compare=False)
    fired: bool = field(default=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in WORKER_KINDS + PARENT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.nth < 1:
            raise ValueError("nth must be >= 1")

    @property
    def stall(self) -> float:
        if self.seconds is not None:
            return self.seconds
        return HANG_SECONDS if self.kind == "hang" else 0.05

    def matches(self, op: str, shard: Optional[int]) -> bool:
        """Observe one command; True when this fault should fire on it."""
        if self.fired:
            return False
        if self.op is not None and op != self.op:
            return False
        if self.shard is not None and shard != self.shard:
            return False
        self.seen += 1
        if self.seen < self.nth:
            return False
        self.fired = True
        return True


def _known_ops() -> frozenset:
    """Op names an ``op=`` filter may name (lazy: the protocol module
    sits below :mod:`repro.par`, which imports this module at package
    init — resolving it at parse time avoids the cycle)."""
    from .par.protocol import known_fault_ops

    return known_fault_ops()


def _parse_entry(entry: str) -> Fault:
    kind, _, rest = entry.partition(":")
    kwargs = {}
    if rest:
        for pair in rest.split(","):
            key, sep, value = pair.partition("=")
            key = key.strip()
            if not sep or key not in ("op", "shard", "nth", "seconds"):
                raise ValueError(f"bad fault field {pair!r} in {entry!r}")
            if key == "op":
                op = value.strip()
                if op not in _known_ops():
                    raise ValueError(
                        f"unknown command op {op!r} in fault entry {entry!r}"
                    )
                kwargs[key] = op
            elif key == "seconds":
                kwargs[key] = float(value)
            else:
                kwargs[key] = int(value)
    return Fault(kind.strip(), **kwargs)


class FaultPlan:
    """An ordered set of armed faults plus the hooks that consult it.

    The worker loop calls :meth:`before_command` per command and
    :meth:`poison_results` per batch; the supervisor calls
    :meth:`should_drop` per received reply.  A plan with no faults is
    the common case and every hook is O(1) then.
    """

    def __init__(self, faults: Sequence[Fault] = ()):
        self.faults: List[Fault] = list(faults)

    @classmethod
    def parse(cls, spec: Optional[str]) -> "FaultPlan":
        """Build a plan from a spec string (``None``/empty = no faults)."""
        if not spec:
            return cls()
        return cls([_parse_entry(e) for e in spec.split(";") if e.strip()])

    @classmethod
    def from_env(cls) -> "FaultPlan":
        """The plan named by ``REPRO_FAULTS`` (empty when unset)."""
        return cls.parse(os.environ.get(FAULTS_ENV, ""))

    def __bool__(self) -> bool:
        return bool(self.faults)

    def __repr__(self) -> str:
        return f"FaultPlan({self.faults!r})"

    # ------------------------------------------------------------------
    # Worker-side hooks
    # ------------------------------------------------------------------
    def before_command(self, cmd: Tuple) -> None:
        """Fire kill/hang/delay/error faults triggered by ``cmd``.

        ``kill`` exits the process without cleanup (``os._exit``) —
        the pipe breaks mid-batch exactly like a hard crash.  ``hang``
        and ``delay`` stall dispatch; ``error`` raises
        :class:`FaultInjected` so the serve loop's structured
        ``("error", …)`` reply path is exercised.
        """
        op, sid = cmd[0], cmd[1] if len(cmd) > 1 else None
        for fault in self.faults:
            if fault.kind in ("kill", "hang", "delay", "error") and fault.matches(
                op, sid
            ):
                if fault.kind == "kill":
                    os._exit(17)
                if fault.kind == "error":
                    raise FaultInjected(f"injected error on {op!r} (shard {sid})")
                time.sleep(fault.stall)

    def poison_results(self, cmds: Sequence[Tuple], results: List) -> None:
        """Replace matching commands' results with unpicklable values."""
        for fault in self.faults:
            if fault.kind != "badresult":
                continue
            for i, cmd in enumerate(cmds):
                op, sid = cmd[0], cmd[1] if len(cmd) > 1 else None
                if fault.matches(op, sid):
                    results[i] = Unpicklable()
                    break

    # ------------------------------------------------------------------
    # Parent-side hooks
    # ------------------------------------------------------------------
    def should_drop(self, slot: int) -> bool:
        """True when the supervisor must discard one received reply.

        ``shard`` in a ``drop`` entry filters on the *slot* index (the
        reply is a whole slot's batch, not a single shard's).
        """
        for fault in self.faults:
            if fault.kind == "drop" and fault.matches("reply", slot):
                return True
        return False
