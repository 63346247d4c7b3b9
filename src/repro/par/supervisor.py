"""Supervised shard workers: timeouts, respawn, checkpoint/replay.

:class:`ShardSupervisor` is the fault-tolerant ``workers > 0`` backend
of :class:`~repro.par.sharded.ShardedJoinEngine`.  It keeps the bare
pipe-per-slot dispatch of the original pool backend (one persistent
process per slot, ~0.2 ms per fan-out) but wraps every round trip in a
supervision loop:

* **Liveness** — replies are awaited with ``Connection.poll`` in
  heartbeat-sized slices instead of a bare blocking ``recv``.  A worker
  that died is detected within one heartbeat
  (:class:`ShardWorkerDied`); one that hangs is cut off at the
  configured timeout (:class:`ShardTimeoutError`).  Without
  supervision either condition deadlocked the engine forever.
* **Recovery** — shard state is rebuilt deterministically.  The
  supervisor remembers, per shard, a *replay base* (initially the
  shard's build spec; later a checkpoint blob serialized by the worker
  — the shard's column planes as a rebuild spec plus its result-store
  planes, :data:`~repro.par.worker.CHECKPOINT_FORMAT`) and a bounded op
  log of every state-mutating command acknowledged since that base.  The
  paper's TC maintenance is deterministic given the update stream, so
  ``base + log`` replayed into a fresh process reproduces the exact
  pre-crash shard state — proven store-identical by the differential
  chaos suite.  Commands are logged only after a successful reply and
  the in-flight batch is re-issued after replay, giving exactly-once
  application across crashes.
* **Degradation** — after ``max_retries`` failed respawns of a slot,
  its shards fold into in-process serial execution (the same
  :func:`repro.par.worker.execute` dispatch the ``workers=0`` backend
  uses), so a persistently failing slot degrades throughput instead of
  failing the join.

Fault injection (:mod:`repro.faults`) hooks in at two points: worker
processes are armed with the plan at first spawn (never on respawn, so
recovery itself is deterministic), and the supervisor consults the
parent-side plan to drop replies.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..faults import FaultPlan
from ..metrics import monotonic_clock
from . import worker
from .protocol import BASE_OPS, OP_BUILD, OP_CHECKPOINT, OP_RESTORE

#: Commands that change shard state and therefore enter the op log
#: (everything else is a read and can simply be re-asked).  Derived
#: from the declared command vocabulary — re-exported here because the
#: op log is where the flag matters.
from .protocol import MUTATING_OPS  # noqa: F401 (re-export)

__all__ = [
    "ShardSupervisor",
    "SupervisorStats",
    "ShardFailure",
    "ShardTimeoutError",
    "ShardWorkerDied",
    "ShardCommandError",
    "MUTATING_OPS",
]


class ShardFailure(RuntimeError):
    """A worker-process failure the supervisor can recover from."""


class ShardTimeoutError(ShardFailure):
    """No reply within the configured round-trip timeout."""


class ShardWorkerDied(ShardFailure):
    """The worker process exited or its pipe broke mid round-trip."""


class ShardCommandError(RuntimeError):
    """The worker reported a structured command error.

    Deterministic — replaying would fail identically — so it is
    surfaced to the caller instead of triggering recovery.  The worker
    and its engine state survive (the serve loop reports errors rather
    than dying), so post-mortem commands still work.
    """


@dataclass
class SupervisorStats:
    """Cumulative supervision counters (read through ``fault_stats()``)."""

    timeouts: int = 0
    worker_deaths: int = 0
    respawns: int = 0
    recoveries: int = 0
    replayed_commands: int = 0
    checkpoints: int = 0
    dropped_replies: int = 0
    degraded_slots: int = 0
    recovery_seconds: float = 0.0


class _Slot:
    """One supervised worker process plus its parent-side pipe end."""

    def __init__(self, index: int):
        self.index = index
        self.proc: Optional[multiprocessing.Process] = None
        self.conn = None
        self.degraded = False

    def spawn(self, fault_spec: Optional[str]) -> None:
        parent_conn, child_conn = multiprocessing.Pipe()
        self.proc = multiprocessing.Process(
            target=worker.serve, args=(child_conn, fault_spec), daemon=True
        )
        self.proc.start()
        child_conn.close()
        self.conn = parent_conn

    @property
    def alive(self) -> bool:
        return self.proc is not None and self.proc.is_alive()

    def kill(self) -> None:
        """Hard-stop the worker and reap it (no zombies, no leaked fds)."""
        if self.conn is not None:
            try:
                self.conn.close()
            except OSError:  # pragma: no cover - close can't really fail
                pass
            self.conn = None
        if self.proc is not None:
            if self.proc.is_alive():
                self.proc.terminate()
            # join *after* terminate as well: a terminated child that is
            # never re-joined stays a zombie for the parent's lifetime.
            self.proc.join(timeout=5.0)
            if self.proc.is_alive():  # pragma: no cover - kernel refusal
                self.proc.kill()
                self.proc.join(timeout=5.0)
            self.proc = None

    def shutdown(self) -> None:
        """Graceful stop: ask the serve loop to exit, then reap."""
        if self.conn is not None:
            try:
                self.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        if self.proc is not None:
            self.proc.join(timeout=5.0)
        self.kill()


class ShardSupervisor:
    """Fault-tolerant pipe backend: one supervised process per slot.

    Commands for shard ``s`` always go to slot ``s mod n_slots``, whose
    lone process keeps that engine in its registry — same routing as
    the original pool backend, same command semantics as the serial
    one.  ``timeout=None`` waits forever (liveness checks still catch
    dead workers); ``checkpoint_interval`` bounds each shard's op log.
    """

    def __init__(
        self,
        workers: int,
        shard_ids: Sequence[int],
        *,
        timeout: Optional[float] = 30.0,
        heartbeat: float = 0.05,
        checkpoint_interval: int = 16,
        max_retries: int = 2,
        fault_spec: Optional[str] = None,
    ):
        if timeout is not None and timeout <= 0:
            raise ValueError("timeout must be positive (or None)")
        if heartbeat <= 0:
            raise ValueError("heartbeat must be positive")
        if checkpoint_interval < 1:
            raise ValueError("checkpoint_interval must be >= 1")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        self.timeout = timeout
        self.heartbeat = heartbeat
        self.checkpoint_interval = checkpoint_interval
        self.max_retries = max_retries
        self.stats = SupervisorStats()
        # The parent-side plan serves `drop` faults; the same spec arms
        # the workers (spec=None lets them read REPRO_FAULTS themselves).
        self._plan = (
            FaultPlan.parse(fault_spec)
            if fault_spec is not None
            else FaultPlan.from_env()
        )
        self._worker_spec = fault_spec

        n_slots = max(1, min(workers, len(shard_ids)))
        self._slot_of = {
            sid: i % n_slots for i, sid in enumerate(sorted(shard_ids))
        }
        self._shards_of: Dict[int, List[int]] = {}
        for sid, slot_idx in self._slot_of.items():
            self._shards_of.setdefault(slot_idx, []).append(sid)
        self._slots = [_Slot(i) for i in range(n_slots)]
        for slot in self._slots:
            slot.spawn(self._worker_spec)

        #: Per-shard replay base: the command that (re)creates the
        #: engine — ``("build", sid, spec)`` at epoch 0, then
        #: ``("restore", sid, blob)`` after each checkpoint.
        self._base: Dict[int, Tuple] = {}
        self._base_epoch: Dict[int, int] = {}
        self._base_now: Dict[int, float] = {}
        self._epochs: Dict[int, int] = {sid: 0 for sid in self._slot_of}
        self._oplog: Dict[int, List[Tuple]] = {sid: [] for sid in self._slot_of}
        #: Engines of degraded shards, executed in-process.
        self._local: Dict[int, object] = {}

    # ------------------------------------------------------------------
    # Backend protocol
    # ------------------------------------------------------------------
    def run(self, cmds_by_shard: Dict[int, List[Tuple]]) -> Dict[int, List]:
        per_slot: Dict[int, List[Tuple[int, List[Tuple]]]] = {}
        for sid, cmds in cmds_by_shard.items():
            per_slot.setdefault(self._slot_of[sid], []).append((sid, cmds))
        # Phase 1: post every slot's batch so healthy slots compute in
        # parallel; a failed send is surfaced in the collect phase.
        posted: Dict[int, bool] = {}
        for slot_idx, entries in per_slot.items():
            slot = self._slots[slot_idx]
            if slot.degraded:
                continue
            flat = [cmd for _sid, cmds in entries for cmd in cmds]
            posted[slot_idx] = self._post(slot, flat)
        # Phase 2: collect, recovering any slot that fails.  Every
        # posted slot is collected even if an earlier one errored —
        # leaving a reply unread would desync the next round's framing.
        results: Dict[int, List] = {}
        errors: List[ShardCommandError] = []
        for slot_idx, entries in per_slot.items():
            slot = self._slots[slot_idx]
            flat = [cmd for _sid, cmds in entries for cmd in cmds]
            if slot.degraded:
                payload = worker.execute(self._local, flat)
            else:
                try:
                    if not posted[slot_idx]:
                        raise self._mark_death(slot, "send failed")
                    payload = self._await_reply(slot)
                except ShardFailure as exc:
                    payload = self._recover(slot, flat, exc)
                except ShardCommandError as exc:
                    self._resync_after_error(slot, flat)
                    errors.append(exc)
                    continue
            self._record(flat)
            pos = 0
            for sid, cmds in entries:
                results[sid] = payload[pos : pos + len(cmds)]
                pos += len(cmds)
        if errors:
            raise errors[0]
        self._maybe_checkpoint()
        return results

    def close(self) -> None:
        for slot in self._slots:
            slot.shutdown()
        self._local.clear()

    # ------------------------------------------------------------------
    # Supervised round trips
    # ------------------------------------------------------------------
    def _post(self, slot: _Slot, flat: List[Tuple]) -> bool:
        try:
            slot.conn.send(flat)
            return True
        except (BrokenPipeError, EOFError, OSError):
            return False

    def _mark_death(self, slot: _Slot, why: str) -> ShardWorkerDied:
        self.stats.worker_deaths += 1
        return ShardWorkerDied(f"slot {slot.index}: {why}")

    def _await_reply(self, slot: _Slot):
        """Poll for one reply with heartbeat liveness checks.

        Raises :class:`ShardTimeoutError` after ``timeout`` seconds,
        :class:`ShardWorkerDied` as soon as the process is seen dead
        with no buffered reply, and :class:`ShardCommandError` on a
        structured ``("error", …)`` reply.
        """
        deadline = (
            None if self.timeout is None else monotonic_clock() + self.timeout
        )
        while True:
            if deadline is None:
                wait = self.heartbeat
            else:
                remaining = deadline - monotonic_clock()
                if remaining <= 0:
                    self.stats.timeouts += 1
                    raise ShardTimeoutError(
                        f"slot {slot.index}: no reply within "
                        f"{self.timeout:g}s"
                    )
                wait = min(self.heartbeat, remaining)
            try:
                ready = slot.conn.poll(wait)
            except (BrokenPipeError, EOFError, OSError):
                raise self._mark_death(slot, "pipe broke while waiting")
            if ready:
                try:
                    status, payload = slot.conn.recv()
                except (EOFError, OSError):
                    raise self._mark_death(slot, "died mid-reply")
                if self._plan and self._plan.should_drop(slot.index):
                    self.stats.dropped_replies += 1
                    continue
                if status != "ok":
                    raise ShardCommandError(f"shard worker failed:\n{payload}")
                return payload
            if not slot.alive and not slot.conn.poll(0):
                code = None if slot.proc is None else slot.proc.exitcode
                raise self._mark_death(slot, f"worker exited (code {code})")

    # ------------------------------------------------------------------
    # Recovery ladder
    # ------------------------------------------------------------------
    def _replay_cmds(self, sid: int) -> List[Tuple]:
        base = self._base.get(sid)
        if base is None:
            return []
        return [base] + list(self._oplog[sid])

    def _replay_into(self, slot: _Slot) -> None:
        """Rebuild every shard of ``slot`` from its base + op log."""
        for sid in self._shards_of.get(slot.index, []):
            if sid in self._local:
                continue
            cmds = self._replay_cmds(sid)
            if not cmds:
                continue
            if not self._post(slot, cmds):
                raise self._mark_death(slot, "send failed during replay")
            self._await_reply(slot)
            self.stats.replayed_commands += len(cmds)

    def _recover(self, slot: _Slot, flat: List[Tuple], exc: ShardFailure):
        """Respawn-and-replay, degrading to in-process execution.

        The failed in-flight batch ``flat`` was never logged, so replay
        reproduces the state *before* it and re-issuing it afterwards
        applies it exactly once.
        """
        t0 = monotonic_clock()
        self.stats.recoveries += 1
        slot.kill()
        for _attempt in range(self.max_retries):
            slot.spawn("")  # respawned workers are never fault-armed
            self.stats.respawns += 1
            try:
                self._replay_into(slot)
                if not self._post(slot, flat):
                    raise self._mark_death(slot, "send failed after respawn")
                payload = self._await_reply(slot)
                self.stats.recovery_seconds += monotonic_clock() - t0
                return payload
            except ShardFailure:
                slot.kill()
        # Ladder bottom: fold the slot's shards into this process.
        slot.degraded = True
        self.stats.degraded_slots += 1
        for sid in self._shards_of.get(slot.index, []):
            if sid in self._local:
                continue
            cmds = self._replay_cmds(sid)
            if cmds:
                worker.execute(self._local, cmds)
                self.stats.replayed_commands += len(cmds)
        payload = worker.execute(self._local, flat)
        self.stats.recovery_seconds += monotonic_clock() - t0
        return payload

    def _resync_after_error(self, slot: _Slot, flat: List[Tuple]) -> None:
        """Restore a slot to its logged state after a command error.

        A structured error aborts the worker's batch mid-way: commands
        before the failing one were applied but never acknowledged, so
        they are absent from the op log.  Read-only batches leave no
        trace and need nothing; a batch with mutating commands is rolled
        back by rebuilding the slot from base + log, keeping the
        exactly-once bookkeeping truthful (the failed batch counts as
        never applied).
        """
        if any(cmd[0] in MUTATING_OPS for cmd in flat):
            self._recover(slot, [], ShardCommandError("resync"))

    # ------------------------------------------------------------------
    # Checkpoint / op-log bookkeeping
    # ------------------------------------------------------------------
    def _record(self, cmds: List[Tuple]) -> None:
        """File acknowledged mutating commands into the op logs."""
        for cmd in cmds:
            op, sid = cmd[0], cmd[1]
            if op not in MUTATING_OPS:
                continue
            if op in BASE_OPS:
                self._set_base(sid, cmd)
            elif sid not in self._local:
                # Degraded shards live in-process: their state cannot
                # be lost to a crash, so nothing needs logging.
                self._oplog[sid].append(cmd)

    def _set_base(self, sid: int, cmd: Tuple) -> None:
        spec = cmd[2] if cmd[0] == OP_BUILD else worker.checkpoint_spec(cmd[2])
        self._base[sid] = cmd
        self._base_epoch[sid] = self._epochs[sid]
        self._base_now[sid] = spec[4]  # build-spec start_time
        self._oplog[sid] = []

    def _maybe_checkpoint(self) -> None:
        """Ask workers for fresh checkpoints where the log grew full."""
        for sid, log in self._oplog.items():
            if len(log) < self.checkpoint_interval or sid in self._local:
                continue
            slot = self._slots[self._slot_of[sid]]
            cmd = (OP_CHECKPOINT, sid)
            if slot.degraded:
                blob = worker.execute(self._local, [cmd])[0]
            else:
                try:
                    if not self._post(slot, [cmd]):
                        raise self._mark_death(slot, "send failed")
                    blob = self._await_reply(slot)[0]
                except ShardFailure as exc:
                    blob = self._recover(slot, [cmd], exc)[0]
            self._epochs[sid] += 1
            self._set_base(sid, (OP_RESTORE, sid, blob))
            self.stats.checkpoints += 1

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def export_state(self, now: Optional[float] = None) -> Dict[str, object]:
        """A JSON-safe snapshot of op logs, checkpoints and slots (what
        the tests' SC501–SC503 audit reads)."""
        return {
            "format": "repro.par.supervisor/1",
            "now": now,
            "checkpoint_interval": self.checkpoint_interval,
            "slots": [
                {
                    "slot": slot.index,
                    "alive": slot.alive,
                    "degraded": slot.degraded,
                }
                for slot in self._slots
            ],
            "shards": [
                {
                    "shard": sid,
                    "slot": self._slot_of[sid],
                    "degraded": sid in self._local,
                    "epoch": self._epochs[sid],
                    "oplog_len": len(self._oplog[sid]),
                    "oplog_ops": [cmd[0] for cmd in self._oplog[sid]],
                    "checkpoint": (
                        None
                        if sid not in self._base
                        else {
                            "kind": self._base[sid][0],
                            "epoch": self._base_epoch[sid],
                            "now": self._base_now[sid],
                        }
                    ),
                }
                for sid in sorted(self._slot_of)
            ],
        }

    def __repr__(self) -> str:
        degraded = sum(1 for s in self._slots if s.degraded)
        return (
            f"ShardSupervisor(slots={len(self._slots)}, "
            f"shards={len(self._slot_of)}, degraded={degraded}, "
            f"timeout={self.timeout}, "
            f"checkpoint_interval={self.checkpoint_interval})"
        )
