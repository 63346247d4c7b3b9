"""Single source of truth for the shard command vocabulary.

Every supervisor↔worker command is a plain tuple ``(op, shard_id,
*args)``.  Before this module the op names lived as bare string
literals spread over four files (:mod:`repro.par.worker` dispatch,
:mod:`repro.par.sharded` emission, :mod:`repro.par.supervisor` op-log
bookkeeping, :mod:`repro.faults` filters), and the exactly-once
recovery guarantee hinged on those copies never drifting.  Now the
vocabulary is declared once, here, and everything else derives from it:

* :data:`COMMANDS` — one :class:`CommandSpec` per op: payload arity
  (arguments after ``(op, shard_id)``) and whether the op mutates shard
  state.  Dispatch validates arity against it; the supervisor logs
  exactly the mutating ops.
* :data:`MUTATING_OPS` / :data:`BASE_OPS` — derived sets, never
  hand-maintained lists.
* :func:`known_fault_ops` — the op names a fault spec may filter on
  (every command op plus the parent-side :data:`REPLY_DROP_OP`).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "CommandSpec",
    "COMMANDS",
    "OPS",
    "MUTATING_OPS",
    "BASE_OPS",
    "REPLY_DROP_OP",
    "known_fault_ops",
    "OP_BUILD",
    "OP_RESTORE",
    "OP_INITIAL_JOIN",
    "OP_TICK",
    "OP_OPS",
    "OP_PAIRS_AT",
    "OP_STORE_DUMP",
    "OP_OBJECTS",
    "OP_PRUNE",
    "OP_COST",
    "OP_OBS",
    "OP_CHECKPOINT",
    "OP_DELTAS",
]

# -- command ops -------------------------------------------------------
OP_BUILD = "build"
OP_RESTORE = "restore"
OP_INITIAL_JOIN = "initial_join"
OP_TICK = "tick"
OP_OPS = "ops"
OP_PAIRS_AT = "pairs_at"
OP_STORE_DUMP = "store_dump"
OP_OBJECTS = "objects"
OP_PRUNE = "prune"
OP_COST = "cost"
OP_OBS = "obs"
OP_CHECKPOINT = "checkpoint"
OP_DELTAS = "deltas"


@dataclass(frozen=True)
class CommandSpec:
    """Declared shape of one command op.

    ``n_args`` is the payload arity: a well-formed command tuple has
    exactly ``2 + n_args`` elements (``op``, ``shard_id``, payload).
    ``mutating`` marks ops that change shard state and therefore must
    enter the supervisor's op log for checkpoint/replay recovery.
    """

    op: str
    n_args: int
    mutating: bool
    doc: str


#: The whole vocabulary.  ``mutating`` flags here are the op log's
#: ground truth; the chaos matrix (``tests/par/test_faults.py``) kills a
#: worker at each mutating op a run issues (``initial_join``, ``tick``,
#: ``ops``) and requires serial-identical answers after replay.
COMMANDS = {
    OP_BUILD: CommandSpec(
        OP_BUILD, n_args=1, mutating=True,
        doc="construct a shard engine from a build spec",
    ),
    OP_RESTORE: CommandSpec(
        OP_RESTORE, n_args=1, mutating=True,
        doc="rebuild a shard engine from a checkpoint blob",
    ),
    OP_INITIAL_JOIN: CommandSpec(
        OP_INITIAL_JOIN, n_args=0, mutating=True,
        doc="run the initial join, populating the result store",
    ),
    OP_TICK: CommandSpec(
        OP_TICK, n_args=1, mutating=True,
        doc="advance the shard clock to the given timestamp",
    ),
    OP_OPS: CommandSpec(
        OP_OPS, n_args=1, mutating=True,
        doc="group-commit one membership-resolved column batch",
    ),
    OP_PAIRS_AT: CommandSpec(
        OP_PAIRS_AT, n_args=1, mutating=False,
        doc="answer the intersecting pairs at a timestamp",
    ),
    OP_STORE_DUMP: CommandSpec(
        OP_STORE_DUMP, n_args=0, mutating=False,
        doc="dump the result store as its (a, b, lo, hi) planes",
    ),
    OP_OBJECTS: CommandSpec(
        OP_OBJECTS, n_args=0, mutating=False,
        doc="list the resident object ids of both datasets",
    ),
    OP_PRUNE: CommandSpec(
        OP_PRUNE, n_args=0, mutating=True,
        doc="drop expired intervals from the result store",
    ),
    OP_COST: CommandSpec(
        OP_COST, n_args=0, mutating=False,
        doc="snapshot the cumulative cost counters",
    ),
    OP_OBS: CommandSpec(
        OP_OBS, n_args=0, mutating=False,
        doc="export the observability recording",
    ),
    OP_CHECKPOINT: CommandSpec(
        OP_CHECKPOINT, n_args=0, mutating=False,
        doc="serialize the engine into a recovery blob",
    ),
    OP_DELTAS: CommandSpec(
        OP_DELTAS, n_args=1, mutating=False,
        doc="enumerate the shard's netted delta events at a tick",
    ),
}

#: Every command op, in declaration order.
OPS = tuple(COMMANDS)

#: Ops that enter the supervisor op log (derived, never listed twice).
MUTATING_OPS = frozenset(
    op for op, spec in COMMANDS.items() if spec.mutating
)

#: Ops that (re)create a shard engine and therefore reset the replay
#: base: everything logged before them is obsolete.
BASE_OPS = frozenset({OP_BUILD, OP_RESTORE})

#: Pseudo-op the supervisor's parent-side ``drop`` fault matches on
#: (a reply is a whole batch, not any single command).
REPLY_DROP_OP = "reply"


def known_fault_ops() -> frozenset:
    """Op names a fault spec's ``op=`` filter may legally name."""
    return frozenset(OPS) | {REPLY_DROP_OP}
