"""Worker-side execution of shard commands.

A shard's engine is stateful, so pool execution routes every command
for shard ``s`` to the *same* single-worker executor; inside that
process the engine lives in the module-global :data:`_ENGINES`
registry, keyed by shard id.  The serial (``workers=0``) backend runs
the identical :func:`execute` dispatch on an in-process registry, so
both paths share one command semantics.

Commands are plain tuples ``(op, shard_id, *args)``; results are plain
picklable values (tuples, dicts, :class:`~repro.metrics.CostSnapshot`).

What crosses the shard boundary is column planes, and this module owns
that format: a build spec and a checkpoint carry each dataset as
:class:`~repro.core.columns.UpdateColumns`, an ``OP_OPS`` payload is the
argument tuple of :meth:`ColumnarJoinEngine.apply_update_columns`
(``(upd_a, upd_b, admit_a, admit_b, evict)`` column slices), and a store
dump is the result store's ``(a, b, lo, hi)`` planes.  No
:class:`~repro.objects.MovingObject` is built on either side of the pipe.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.columnar import ColumnarJoinEngine
from ..core.config import JoinConfig
from ..faults import FaultPlan
from .protocol import (
    COMMANDS,
    OP_BUILD,
    OP_CHECKPOINT,
    OP_COST,
    OP_INITIAL_JOIN,
    OP_OBJECTS,
    OP_OPS,
    OP_PAIRS_AT,
    OP_RESTORE,
    OP_STORE_DUMP,
    OP_TICK,
)

__all__ = [
    "build_spec",
    "execute",
    "run_commands",
    "serve",
    "make_checkpoint",
    "restore_engine",
    "checkpoint_spec",
    "CHECKPOINT_FORMAT",
]

#: Version tag of the picklable checkpoint blob — the only one
#: :func:`restore_engine` accepts.  ``/5`` carries the shard as arrays:
#: each dataset's column planes in row order inside ``spec`` and the
#: result store's ``(a, b, lo, hi)`` planes under ``store``.
CHECKPOINT_FORMAT = "repro.par.ckpt/5"

#: Per-process registry of shard engines (pool workers only).
_ENGINES: Dict[int, ColumnarJoinEngine] = {}


def build_spec(
    columns_a, columns_b, algorithm: str, config: JoinConfig, start_time: float
) -> Tuple:
    """The picklable recipe from which a shard engine is built.

    Each dataset may come in any form :class:`ColumnarJoinEngine`
    accepts; the sharded engine and checkpoints ship
    :class:`~repro.core.columns.UpdateColumns`.
    """
    return (columns_a, columns_b, algorithm, config, start_time)


def make_checkpoint(engine: ColumnarJoinEngine) -> Dict:
    """Serialize a shard engine into a picklable recovery blob.

    Nothing but arrays and scalars: both datasets' live column planes
    in row order as a build spec referenced at ``engine.now``, the
    result store's canonical interval planes and the update counter.
    A fresh engine built from the spec is plane-identical to this one
    and re-adding the store planes reproduces the store bit-for-bit, so
    checkpoint + op-log replay lands on the exact pre-crash state.
    """
    return {
        "format": CHECKPOINT_FORMAT,
        "spec": build_spec(
            engine.columns_a.columns(),
            engine.columns_b.columns(),
            engine.algorithm,
            engine.config,
            engine.now,
        ),
        "store": engine.store.planes(),
        "update_count": engine.update_count,
    }


def _checked_blob(blob: Dict) -> Dict:
    fmt = blob.get("format") if isinstance(blob, dict) else None
    if fmt != CHECKPOINT_FORMAT:
        raise ValueError(f"unknown checkpoint format {fmt!r}")
    return blob


def checkpoint_spec(blob: Dict) -> Tuple:
    """The build spec embedded in a checkpoint blob."""
    return _checked_blob(blob)["spec"]


def restore_engine(blob: Dict) -> ColumnarJoinEngine:
    """Rebuild a shard engine from a checkpoint blob.

    Through the public constructor and one
    :meth:`~repro.core.result.ColumnResultStore.add_batch` over the
    dumped planes — already canonical (sorted, merged, disjoint), so
    the flush lands on the exact pre-checkpoint planes while every row
    still passes the store's own validation.  A shard keeps no delta
    ledger (the sharded engine refuses ``config.deltas``), so there is
    no event history to carry across.
    """
    blob = _checked_blob(blob)
    columns_a, columns_b, algorithm, config, start_time = blob["spec"]
    engine = ColumnarJoinEngine(
        columns_a,
        columns_b,
        algorithm=algorithm,
        config=config,
        start_time=start_time,
    )
    engine.store.add_batch(*blob["store"])
    engine.update_count = blob["update_count"]
    return engine


def execute(
    engines: Dict[int, ColumnarJoinEngine], cmds: Sequence[Tuple]
) -> List[Any]:
    """Run a command batch against a registry; one result per command.

    Every command is validated against its :data:`~repro.par.protocol.
    COMMANDS` spec before dispatch: an unknown op or a wrong payload
    arity is a deterministic :class:`ValueError`, never a silent
    misread of the tuple.
    """
    out: List[Any] = []
    for cmd in cmds:
        op, sid = cmd[0], cmd[1]
        spec = COMMANDS.get(op)
        if spec is None:
            raise ValueError(f"unknown shard command {op!r}")
        if len(cmd) != 2 + spec.n_args:
            raise ValueError(
                f"command {op!r} takes {spec.n_args} argument(s), "
                f"got {len(cmd) - 2}"
            )
        if op == OP_BUILD:
            columns_a, columns_b, algorithm, config, start_time = cmd[2]
            engines[sid] = ColumnarJoinEngine(
                columns_a,
                columns_b,
                algorithm=algorithm,
                config=config,
                start_time=start_time,
            )
            out.append(engines[sid].build_cost)
            continue
        if op == OP_RESTORE:
            engines[sid] = restore_engine(cmd[2])
            out.append(None)
            continue
        engine = engines[sid]
        if op == OP_INITIAL_JOIN:
            out.append(engine.run_initial_join())
        elif op == OP_TICK:
            engine.tick(cmd[2])
            out.append(None)
        elif op == OP_OPS:
            # (upd_a, upd_b, admit_a, admit_b, evict) column slices.
            engine.apply_update_columns(*cmd[2])
            out.append(None)
        elif op == OP_PAIRS_AT:
            out.append(engine.result_at(cmd[2]))
        elif op == OP_STORE_DUMP:
            out.append(engine.store.planes())
        elif op == OP_OBJECTS:
            out.append(
                (
                    sorted(engine.columns_a.oids.tolist()),
                    sorted(engine.columns_b.oids.tolist()),
                )
            )
        elif op == OP_COST:
            out.append(engine.tracker.snapshot())
        elif op == OP_CHECKPOINT:
            out.append(make_checkpoint(engine))
        else:
            raise ValueError(f"unknown shard command {op!r}")
    return out


def run_commands(cmds: Sequence[Tuple]) -> List[Any]:
    """Pool-worker entry point: dispatch against this process's registry."""
    return execute(_ENGINES, cmds)


def serve(conn, fault_spec: Optional[str] = None) -> None:
    """Pipe-worker main loop: answer command batches until told to stop.

    Each request is one picklable command list; the reply is
    ``("ok", results)`` or ``("error", traceback_text)`` — errors are
    reported rather than killing the worker, so the engine state held
    in :data:`_ENGINES` survives a failed command for post-mortem
    commands.  A result that cannot be pickled is downgraded to a
    structured ``("error", …)`` reply too, so the request/reply framing
    never desyncs.  A ``None`` request (or a closed pipe) shuts down.

    ``fault_spec`` arms deterministic fault injection
    (:mod:`repro.faults`): ``None`` reads ``REPRO_FAULTS`` from the
    environment, the empty string disarms entirely (the supervisor
    passes ``""`` on respawn so injected crashes cannot re-fire during
    recovery).
    """
    plan = FaultPlan.from_env() if fault_spec is None else FaultPlan.parse(fault_spec)
    while True:
        try:
            cmds = conn.recv()
        except EOFError:
            break
        if cmds is None:
            break
        try:
            if plan:
                for cmd in cmds:
                    plan.before_command(cmd)
            results = run_commands(cmds)
            if plan:
                plan.poison_results(cmds, results)
            reply = ("ok", results)
        except Exception:  # noqa: BLE001 - reported, not swallowed
            import traceback

            reply = ("error", traceback.format_exc())
        try:
            conn.send(reply)
        except Exception:  # unpicklable result: keep the framing intact
            import traceback

            try:
                conn.send(("error", traceback.format_exc()))
            except Exception:  # pragma: no cover - parent pipe gone
                break
    conn.close()
