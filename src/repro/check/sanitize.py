"""Runtime invariant sanitizer for the TC-join data structures.

The paper's correctness hangs on a handful of structural invariants:

* **TPR/TPR*-tree** (Šaltenis et al.): every parent entry's kinetic
  bound conservatively contains its child subtree at the current
  timestamp *and* for the whole horizon; occupancy stays within
  ``[min_fill, capacity]``; the leaf entries and the object table agree
  bit-for-bit.
* **MTB-tree** (paper §IV-C): an object lives in exactly the bucket of
  its last update time, bucket keys never run ahead of the clock, and
  the per-bucket trees sum to the forest's object table.
* **ColumnResultStore** (Theorems 1–2): planes sorted by
  ``(a, b, lo)`` with disjoint per-pair intervals, the searchsorted
  inverted index agreeing with the planes, coherent post-flush
  bookkeeping, and no stored interval reaching past the TC bound
  ``max(lut_a, lut_b) + T_M`` (``lut`` widened to the bucket end under
  MTB bucketing).
* **Sharded engine** (:mod:`repro.par`): the stripe partition covers
  the whole domain, every object is resident in exactly the shards its
  swept ghost halo touches, and pairs co-located on several shards
  carry bit-identical interval lists.
* **Shard supervisor** (:mod:`repro.par.supervisor`): recovery op logs
  stay bounded by the checkpoint interval, each shard's replay base
  agrees with its checkpoint epoch and never runs ahead of the engine
  clock, and no shard's commands route to a dead worker slot.

Every checker walks a live structure and returns
:class:`~repro.check.errors.Finding` records instead of asserting, so
callers can aggregate, report, or raise.  The checkers are duck-typed
(no imports from :mod:`repro.index` or :mod:`repro.core`) — both those
packages delegate their ``validate()`` paths here without creating an
import cycle.

Enable continuous checking with ``JoinConfig(sanitize=True)`` (or the
``REPRO_SANITIZE=1`` environment variable); audit an exported sharded
state with ``python -m repro.check sanitize PATH``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..geometry import INF
from ..geometry.constants import CONTAIN_EPS, MERGE_TOL
from ..geometry.kinetic import KineticBox
from ..geometry.plane_sweep import sweep_bounds
from .errors import Finding, InvariantViolation

__all__ = [
    "check_tpr_tree",
    "check_mtb_forest",
    "check_sharded_state",
    "check_supervisor_state",
    "check_column_store",
    "check_column_result_store",
    "check_delta_ledger",
    "sanitize_engine",
    "sanitize_columnar_engine",
    "raise_on_findings",
]


def raise_on_findings(findings: Sequence[Finding]) -> None:
    """Raise :class:`InvariantViolation` when ``findings`` is non-empty."""
    if findings:
        raise InvariantViolation(findings)


# ----------------------------------------------------------------------
# TPR / TPR*-tree structure
# ----------------------------------------------------------------------
def check_tpr_tree(
    tree,
    t_now: float,
    check_times: Optional[Sequence[float]] = None,
    label: str = "tree",
) -> List[Finding]:
    """Structural invariants of one TPR(*)-tree (codes SC101–SC104).

    ``check_times`` are the timestamps at which parent-child kinetic
    containment is verified; the default is the reference time and the
    end of the insertion horizon, the two ends of the paper's validity
    window.
    """
    if check_times is None:
        check_times = [t_now, t_now + tree.horizon]
    findings: List[Finding] = []
    seen_oids: List[int] = []

    root = tree.read_node(tree.root_id)
    if root.level != tree.height - 1:
        findings.append(Finding(
            "SC101",
            f"root level {root.level} does not match height {tree.height}",
            f"{label}/node {tree.root_id}",
        ))

    def visit(page_id: int, expected_level: Optional[int]) -> None:
        node = tree.read_node(page_id)
        where = f"{label}/node {page_id}"
        if expected_level is not None and node.level != expected_level:
            findings.append(Finding(
                "SC101",
                f"level {node.level} where parent implies {expected_level}",
                where,
            ))
        if page_id != tree.root_id and len(node.entries) < tree.min_fill:
            findings.append(Finding(
                "SC102",
                f"underfull node: {len(node.entries)} < min_fill {tree.min_fill}",
                where,
            ))
        if len(node.entries) > tree.node_capacity:
            findings.append(Finding(
                "SC102",
                f"overfull node: {len(node.entries)} > capacity {tree.node_capacity}",
                where,
            ))
        for entry in node.entries:
            if node.is_leaf:
                seen_oids.append(entry.ref)
                if entry.ref not in tree.objects:
                    findings.append(Finding(
                        "SC104", f"leaf oid {entry.ref} missing from object table", where
                    ))
                elif tree.objects.get(entry.ref).kbox != entry.kbox:
                    findings.append(Finding(
                        "SC104",
                        f"object table disagrees with leaf entry for oid {entry.ref}",
                        where,
                    ))
            else:
                child = tree.read_node(entry.ref)
                if not child.entries:
                    findings.append(Finding(
                        "SC102", f"child node {entry.ref} is empty", where
                    ))
                else:
                    for t in check_times:
                        t_eval = max(t_now, t)
                        child_box = child.bound_at(t_eval).at(t_eval)
                        parent_box = entry.kbox.at(t_eval).expanded(
                            CONTAIN_EPS, CONTAIN_EPS, CONTAIN_EPS, CONTAIN_EPS
                        )
                        if not parent_box.contains(child_box):
                            findings.append(Finding(
                                "SC103",
                                f"bound of child {entry.ref} escapes its parent "
                                f"entry at t={t_eval:g}",
                                where,
                            ))
                visit(entry.ref, node.level - 1)

    visit(tree.root_id, root.level)
    if sorted(seen_oids) != sorted(tree.objects):
        findings.append(Finding(
            "SC104",
            f"leaf entries ({len(seen_oids)}) do not match object table "
            f"({len(tree.objects)})",
            label,
        ))
    return findings


# ----------------------------------------------------------------------
# MTB forest
# ----------------------------------------------------------------------
def check_mtb_forest(forest, t_now: float, label: str = "forest") -> List[Finding]:
    """MTB bucket invariants (codes SC201–SC203) plus per-bucket trees."""
    findings: List[Finding] = []
    total = 0
    for key, _end, tree in forest.trees():
        where = f"{label}/bucket {key}"
        if not len(tree):
            findings.append(Finding("SC202", "empty bucket tree retained", where))
        findings.extend(check_tpr_tree(tree, t_now, label=where))
        for obj in tree.all_objects():
            if obj.t_ref > t_now:
                findings.append(Finding(
                    "SC203",
                    f"object {obj.oid} updated at t={obj.t_ref:g}, after the "
                    f"clock t={t_now:g}",
                    where,
                ))
            if forest.bucket_key(obj.t_ref) != key:
                findings.append(Finding(
                    "SC201",
                    f"object {obj.oid} (lut {obj.t_ref:g}) belongs in bucket "
                    f"{forest.bucket_key(obj.t_ref)}, found in {key}",
                    where,
                ))
            if obj.oid not in forest.objects:
                findings.append(Finding(
                    "SC202", f"object {obj.oid} missing from forest table", where
                ))
            elif forest.objects.tag(obj.oid) != key:
                findings.append(Finding(
                    "SC202",
                    f"forest table files object {obj.oid} under bucket "
                    f"{forest.objects.tag(obj.oid)}, tree says {key}",
                    where,
                ))
        total += len(tree)
    if total != len(forest.objects):
        findings.append(Finding(
            "SC202",
            f"bucket trees hold {total} objects, forest table {len(forest.objects)}",
            label,
        ))
    return findings


# ----------------------------------------------------------------------
# Sharded engine state
# ----------------------------------------------------------------------
def check_sharded_state(
    state: Dict[str, object], label: str = "sharded"
) -> List[Finding]:
    """Shard invariants of a sharded-engine export (codes SC401–SC403).

    ``state`` is the JSON-safe snapshot produced by
    :meth:`~repro.par.sharded.ShardedJoinEngine.export_state` (format
    ``"repro.par/1"``).  Everything is recomputed from the exported
    object parameters — the checker shares no code with
    :mod:`repro.par` beyond the geometry primitives, so it audits the
    engine rather than restating it.

    * **SC401** — the stripe partition covers the domain: cuts strictly
      increasing, shard ids exactly ``0..K-1``.
    * **SC402** — ghost membership matches the horizon rule: each
      object's declared member set equals the stripes its kinetic box
      sweeps over ``[t_ref, t_ref + ghost_horizon]``, and each shard
      holds exactly its members.
    * **SC403** — the merged store is a duplicate-free union: a pair
      stored on several shards carries a bit-identical interval list on
      every copy, and a shard storing a pair holds both endpoints.
    """
    findings: List[Finding] = []
    fmt = state.get("format")
    if fmt != "repro.par/1":
        findings.append(Finding("SC401", f"unknown export format {fmt!r}", label))
        return findings
    cuts = [float(c) for c in state["cuts"]]
    axis = int(state["axis"])
    horizon = float(state["ghost_horizon"])
    shards = state["shards"]
    n_shards = len(cuts) + 1

    # SC401: K-1 increasing cuts <=> K stripes tiling (-inf, +inf).
    if any(b <= a for a, b in zip(cuts, cuts[1:])):
        findings.append(Finding(
            "SC401", f"cuts not strictly increasing: {cuts}", label
        ))
    shard_ids = [int(s["shard"]) for s in shards]
    if sorted(shard_ids) != list(range(n_shards)):
        findings.append(Finding(
            "SC401",
            f"{len(cuts)} cuts imply shards 0..{n_shards - 1}, engine "
            f"reports {sorted(shard_ids)}",
            label,
        ))
        return findings  # membership recompute needs a sane shard set

    # SC402: recompute each object's swept ghost membership from its
    # exported kinetic parameters and compare against both the declared
    # member list and the actual shard contents.
    residents_a = {int(s["shard"]): set(s["objects_a"]) for s in shards}
    residents_b = {int(s["shard"]): set(s["objects_b"]) for s in shards}
    members_of: Dict[int, Set[int]] = {}
    for entry in state["objects"]:
        oid = int(entry["oid"])
        where = f"{label}/object {oid}"
        kbox = KineticBox.from_params(tuple(entry["params"]))
        lo, hi = sweep_bounds(kbox, axis, kbox.t_ref, kbox.t_ref + horizon)
        # Stripe boundaries belong to both neighbors (closed semantics).
        expected = list(range(bisect_left(cuts, lo), bisect_right(cuts, hi) + 1))
        declared = [int(m) for m in entry["members"]]
        members_of[oid] = set(expected)
        if declared != expected:
            findings.append(Finding(
                "SC402",
                f"declared members {declared} != swept-halo members {expected}",
                where,
            ))
        residents = residents_a if entry["dataset"] == "a" else residents_b
        for sid in range(n_shards):
            if oid in residents[sid]:
                if sid not in expected:
                    findings.append(Finding(
                        "SC402",
                        f"resident on shard {sid} outside its halo {expected}",
                        where,
                    ))
            elif sid in expected:
                findings.append(Finding(
                    "SC402", f"missing from member shard {sid}", where
                ))
    for sid in range(n_shards):
        for oid in sorted(
            (residents_a[sid] | residents_b[sid]) - set(members_of)
        ):
            findings.append(Finding(
                "SC402",
                f"shard resident {oid} unknown to the engine",
                f"{label}/shard {sid}",
            ))

    # SC403: co-located pair copies must agree bit-for-bit, and a shard
    # can only have computed a pair it holds both endpoints of.
    first_copy: Dict[Tuple[int, int], Tuple[int, List]] = {}
    for s in shards:
        sid = int(s["shard"])
        for key_list, ivs in s["store"]:
            key = (int(key_list[0]), int(key_list[1]))
            where = f"{label}/shard {sid}/pair {key}"
            for oid in key:
                if sid not in members_of.get(oid, ()):
                    findings.append(Finding(
                        "SC403",
                        f"stored pair endpoint {oid} is not a member of "
                        f"shard {sid}",
                        where,
                    ))
            prior = first_copy.get(key)
            if prior is None:
                first_copy[key] = (sid, ivs)
            elif prior[1] != ivs:
                findings.append(Finding(
                    "SC403",
                    f"interval list {ivs} differs from shard {prior[0]}'s "
                    f"copy {prior[1]}",
                    where,
                ))
    return findings


# ----------------------------------------------------------------------
# Shard supervisor state
# ----------------------------------------------------------------------
def check_supervisor_state(
    state: Dict[str, object], label: str = "supervisor"
) -> List[Finding]:
    """Supervision invariants of a supervisor export (codes SC501–SC503).

    ``state`` is the JSON-safe snapshot produced by
    :meth:`~repro.par.supervisor.ShardSupervisor.export_state` (format
    ``"repro.par.supervisor/1"``).

    * **SC501** — every shard's op log is bounded: its length never
      exceeds the checkpoint interval (the supervisor must have taken
      a checkpoint and truncated the log by then), and logged commands
      are all state-mutating ops.
    * **SC502** — checkpoint/engine epoch agreement: each shard's
      replay base carries exactly the shard's current epoch, and its
      reference time never runs ahead of the engine clock.
    * **SC503** — no commands are addressed to a dead slot: every
      non-degraded shard is assigned to a slot that exists and is
      alive (degraded shards execute in-process and need no worker).
    """
    findings: List[Finding] = []
    fmt = state.get("format")
    if fmt != "repro.par.supervisor/1":
        findings.append(Finding("SC501", f"unknown export format {fmt!r}", label))
        return findings
    interval = state.get("checkpoint_interval")
    now = state.get("now")
    slots = {int(s["slot"]): s for s in state["slots"]}
    mutating = {"build", "restore", "initial_join", "tick", "ops", "prune"}

    for entry in state["shards"]:
        sid = int(entry["shard"])
        where = f"{label}/shard {sid}"

        # SC501: bounded, well-formed op log.
        log_len = int(entry["oplog_len"])
        if interval is not None and log_len > int(interval):
            findings.append(Finding(
                "SC501",
                f"op log holds {log_len} commands, checkpoint interval "
                f"is {interval}",
                where,
            ))
        for op in entry.get("oplog_ops", ()):
            if op not in mutating:
                findings.append(Finding(
                    "SC501", f"non-mutating command {op!r} in the op log", where
                ))

        # SC502: replay base agrees with the shard's epoch and clock.
        checkpoint = entry.get("checkpoint")
        if checkpoint is not None:
            if int(checkpoint["epoch"]) != int(entry["epoch"]):
                findings.append(Finding(
                    "SC502",
                    f"checkpoint epoch {checkpoint['epoch']} != shard "
                    f"epoch {entry['epoch']}",
                    where,
                ))
            if now is not None and float(checkpoint["now"]) > float(now):
                findings.append(Finding(
                    "SC502",
                    f"checkpoint reference time {checkpoint['now']} is "
                    f"ahead of the engine clock {now}",
                    where,
                ))
        elif log_len:
            findings.append(Finding(
                "SC502", f"{log_len} logged commands but no replay base", where
            ))

        # SC503: commands must be routable to a live executor.
        slot = slots.get(int(entry["slot"]))
        if slot is None:
            findings.append(Finding(
                "SC503", f"assigned to unknown slot {entry['slot']}", where
            ))
        elif not entry.get("degraded") and not (
            slot.get("alive") or slot.get("degraded")
        ):
            findings.append(Finding(
                "SC503",
                f"assigned to dead slot {entry['slot']} without "
                f"degradation",
                where,
            ))
    return findings


# ----------------------------------------------------------------------
# Columnar store / engine
# ----------------------------------------------------------------------
def check_column_store(store, t_now: float, label: str = "columns") -> List[Finding]:
    """Invariants of one :class:`~repro.core.columns.ColumnStore` (SC601–SC603).

    * **SC601** — ids are unique, and the sorted-id index, when built,
      is a bijection onto the dense live prefix: a permutation of
      ``[0, n)`` listing the id column in strictly increasing order.
    * **SC602** — the incrementally maintained pre-shifted bounds are
      *bit-identical* to a fresh recompute (``slo = mlo - vlo * tref``);
      any drift here would silently break the kernels' exactness
      contract.  The maintained magnitude bounds must dominate the live
      columns: the sweep join's slack is sized by them.
    * **SC603** — reference times never run ahead of the engine clock
      and all live values are finite.
    """
    import numpy as np

    findings: List[Finding] = []
    n = store.n
    ids = store.oid[:n]
    if np.unique(ids).shape[0] != n:
        findings.append(Finding("SC601", "an id is stored in two rows", label))
    order, in_order = store._id_order, store._id_sorted
    if order is not None:
        if order.shape[0] != n or in_order.shape[0] != n:
            findings.append(Finding(
                "SC601", f"id index holds {order.shape[0]} ids for {n} live rows", label
            ))
        elif not np.array_equal(np.sort(order), np.arange(n)):
            findings.append(Finding(
                "SC601", f"id index is no permutation of the rows [0, {n})", label
            ))
        elif not np.array_equal(ids[order], in_order):
            findings.append(Finding(
                "SC601", "id index files an id at a row storing another", label
            ))
        elif not (in_order[1:] > in_order[:-1]).all():
            findings.append(Finding("SC601", "id index is not sorted by id", label))
    live = slice(0, n)
    # Exact equality on purpose: the incremental shift must be the very
    # bits a fresh pack would produce (see the kernels' exactness
    # contract).
    expect_slo = store.mlo[:, live] - store.vlo[:, live] * store.tref[live]
    expect_shi = store.mhi[:, live] - store.vhi[:, live] * store.tref[live]
    if not np.array_equal(store.slo[:, live], expect_slo):
        findings.append(Finding(
            "SC602", "pre-shifted lower bounds drifted from recompute", label
        ))
    if not np.array_equal(store.shi[:, live], expect_shi):
        findings.append(Finding(
            "SC602", "pre-shifted upper bounds drifted from recompute", label
        ))
    pos, vel, tref = store._abs_bounds
    for name, bound, planes in (
        ("|mbr|", pos, (store.mlo, store.mhi)),
        ("|vbr|", vel, (store.vlo, store.vhi)),
    ):
        for plane in planes:
            if (np.abs(plane[:, live]).max(axis=1, initial=0.0) > bound).any():
                findings.append(Finding(
                    "SC602", f"maintained {name} bound below the live columns", label
                ))
    if np.abs(store.tref[live]).max(initial=0.0) > tref:
        findings.append(Finding(
            "SC602", "maintained |t_ref| bound below the live column", label
        ))
    if n:
        if float(store.tref[live].max()) > t_now:
            findings.append(Finding(
                "SC603",
                f"reference time {float(store.tref[live].max()):g} runs ahead "
                f"of the clock t={t_now:g}",
                label,
            ))
        for name in ("mlo", "mhi", "vlo", "vhi"):
            if not np.isfinite(getattr(store, name)[:, live]).all():
                findings.append(Finding(
                    "SC603", f"non-finite values in column {name}", label
                ))
    return findings


def check_delta_ledger(store, source, label: str = "ledger") -> List[Finding]:
    """Reconcile a delta event source against its live store (SC701–SC703).

    ``source`` is anything with the ledger read surface — a
    :class:`~repro.deltas.DeltaLedger` (per-engine, possibly carrying a
    restore baseline) or a :class:`~repro.deltas.ShardDeltaMerger` (the
    sharded parent).  Three invariants:

    * **SC702** — the tick sequence is strictly increasing (events are
      appended in clock order, never back-dated).
    * **SC703** — the netted stream is well-formed: folding it never
      adds a row twice nor removes an absent one (the exactly-once
      grammar; a duplicated or lost emission surfaces here).
    * **SC701** — the fold lands exactly on the store: baseline ⊕
      events equals the live interval rows bit-for-bit.
    """
    from ..deltas import DeltaReplayError, DeltaView

    findings: List[Finding] = []
    ticks = source.ticks()
    for i in range(1, len(ticks)):
        if not ticks[i - 1] < ticks[i]:
            findings.append(Finding(
                "SC702",
                f"tick sequence not strictly increasing: "
                f"{ticks[i - 1]:g} then {ticks[i]:g}",
                f"{label}/tick {i}",
            ))
            return findings
    baseline = getattr(source, "baseline_rows", None)
    view = DeltaView(baseline() if baseline is not None else None)
    for t in ticks:
        for event in source.events_at(t):
            try:
                view.apply(event)
            except DeltaReplayError as exc:
                findings.append(Finding(
                    "SC703", str(exc), f"{label}/tick {t:g}"
                ))
                return findings
    folded = view.rows()
    live = store.interval_rows()
    if folded != live:  # bit-exact reconciliation on purpose
        missing = sorted(set(live) - set(folded))[:3]
        extra = sorted(set(folded) - set(live))[:3]
        drifted = sorted(
            key for key in set(live) & set(folded)
            if live[key] != folded[key]
        )[:3]
        findings.append(Finding(
            "SC701",
            "folded delta view diverges from the live store "
            f"({len(folded)} vs {len(live)} pairs; missing {missing}, "
            f"extra {extra}, drifted {drifted})",
            label,
        ))
    return findings


def check_column_result_store(
    store,
    t_m: Optional[float] = None,
    anchors: Optional[Dict[int, float]] = None,
    floor: Optional[float] = None,
    label: str = "column-store",
) -> List[Finding]:
    """Result-store invariants (codes SC801–SC803 and SC303).

    Audited directly on the planes of a
    :class:`~repro.core.result.ColumnResultStore` (the store is flushed
    first so the canonical layout is what's checked):

    * **SC801** — the planes are sorted by ``(a, b, lo)`` and each
      pair's intervals are pairwise disjoint beyond the merge tolerance.
    * **SC802** — the searchsorted inverted index agrees with the
      planes: the cached pair-run boundaries equal a fresh recompute,
      and the lazy ``b``-side ordering, when built, actually sorts the
      ``b`` plane and its cached sorted copy equals ``b[order]``.
    * **SC803** — bookkeeping is coherent after a flush: no pending
      batches or dead rows survive, the pair count matches the run
      boundaries, and every row is a valid interval (finite start,
      no NaN, ``lo <= hi``).
    * **SC303** — the Theorem-1/2 window bound.  ``anchors`` maps oid →
      the window anchor for that object (its last update time, widened
      to the bucket end under MTB bucketing); with ``t_m`` given, every
      stored interval must end by ``max(anchor_a, anchor_b, floor) +
      t_m``.  ``floor`` covers the initial join, whose window is
      anchored at the build timestamp.  Pass ``t_m=None`` for
      strategies without a TC bound (NaiveJoin).

    Ledger reconciliation stays with :func:`check_delta_ledger`
    (SC701–703), which folds against ``interval_rows()``.
    """
    import numpy as np

    findings: List[Finding] = []
    store.flush()
    n = store._n
    a = store._a[:n]
    b = store._b[:n]
    lo = store._lo[:n]
    hi = store._hi[:n]

    # SC801: global (a, b, lo) order, per-pair disjointness.
    if n > 1:
        same_pair = (a[1:] == a[:-1]) & (b[1:] == b[:-1])
        pair_order = (a[1:] > a[:-1]) | ((a[1:] == a[:-1]) & (b[1:] >= b[:-1]))
        if not bool(pair_order.all()):
            row = int(np.nonzero(~pair_order)[0][0]) + 1
            findings.append(Finding(
                "SC801",
                f"pair keys out of order at row {row}: "
                f"({int(a[row - 1])}, {int(b[row - 1])}) then "
                f"({int(a[row])}, {int(b[row])})",
                label,
            ))
        bad_lo = same_pair & (lo[1:] < lo[:-1])
        if bool(bad_lo.any()):
            row = int(np.nonzero(bad_lo)[0][0]) + 1
            findings.append(Finding(
                "SC801",
                f"interval starts out of order within pair "
                f"({int(a[row])}, {int(b[row])}) at row {row}",
                label,
            ))
        overlap = same_pair & ~bad_lo & (lo[1:] <= hi[:-1] + MERGE_TOL)
        if bool(overlap.any()):
            row = int(np.nonzero(overlap)[0][0]) + 1
            findings.append(Finding(
                "SC801",
                f"intervals not disjoint within pair "
                f"({int(a[row])}, {int(b[row])}): "
                f"[{lo[row - 1]:g}, {hi[row - 1]:g}] then "
                f"[{lo[row]:g}, {hi[row]:g}]",
                label,
            ))

    # SC802: cached index structures versus a fresh recompute.  The
    # boundary scan is restated inline (not imported from repro.core) so
    # the checker audits the store without sharing its code.
    if n == 0:
        expect_runs = np.empty(0, dtype=np.int64)
    else:
        boundary = np.empty(n, dtype=bool)
        boundary[0] = True
        np.logical_or(a[1:] != a[:-1], b[1:] != b[:-1], out=boundary[1:])
        expect_runs = np.nonzero(boundary)[0]
    if not np.array_equal(store._run_starts, expect_runs):
        findings.append(Finding(
            "SC802",
            f"cached pair-run boundaries ({store._run_starts.shape[0]}) "
            f"diverge from recompute ({expect_runs.shape[0]})",
            label,
        ))
    if store._b_order is not None:
        order = store._b_order
        if order.shape[0] != n or not bool(
            np.all(b[order][1:] >= b[order][:-1]) if n > 1 else True
        ):
            findings.append(Finding(
                "SC802", "b-side inverted index does not sort the b plane", label
            ))
        elif not np.array_equal(store._b_sorted, b[order]):
            findings.append(Finding(
                "SC802",
                "cached sorted b plane diverges from the b plane in index order",
                label,
            ))

    # SC803: flush left coherent bookkeeping and valid rows.
    if store._pend or store._dead:
        findings.append(Finding(
            "SC803",
            f"flush left {len(store._pend)} pending batches and "
            f"{store._dead} dead rows",
            label,
        ))
    if not bool(store._live[:n].all()):
        findings.append(Finding(
            "SC803", "dead rows survived a flush", label
        ))
    if store._n_pairs != expect_runs.shape[0]:
        findings.append(Finding(
            "SC803",
            f"pair count {store._n_pairs} does not match "
            f"{expect_runs.shape[0]} pair runs",
            label,
        ))
    if n:
        if bool(np.isnan(lo).any()) or bool(np.isnan(hi).any()):
            findings.append(Finding("SC803", "NaN interval endpoints", label))
        if bool(np.isinf(lo).any()):
            findings.append(Finding("SC803", "interval starting at +inf", label))
        bad = hi < lo
        if bool(bad.any()):
            row = int(np.nonzero(bad)[0][0])
            findings.append(Finding(
                "SC803", f"empty interval [{lo[row]:g}, {hi[row]:g}]", label
            ))

    # SC303: the Theorem-1/2 window bound, on the planes.
    if t_m is not None and anchors is not None and n:
        anchor = np.full(n, -INF)
        if anchors:
            keys = np.fromiter(anchors.keys(), dtype=np.int64, count=len(anchors))
            vals = np.fromiter(anchors.values(), dtype=float, count=len(anchors))
            order = np.argsort(keys)
            keys, vals = keys[order], vals[order]

            def look(oids: np.ndarray) -> np.ndarray:
                pos = np.searchsorted(keys, oids)
                pos[pos >= keys.shape[0]] = 0
                hit = keys[pos] == oids
                out = np.where(hit, vals[pos], -INF)
                return out

            anchor = np.maximum(look(a), look(b))
        if floor is not None:
            anchor = np.maximum(anchor, floor)
        bound = anchor + t_m + MERGE_TOL
        bad = (anchor > -INF) & (hi > bound)
        if bool(bad.any()):
            row = int(np.nonzero(bad)[0][0])
            findings.append(Finding(
                "SC303",
                f"interval [{lo[row]:g}, {hi[row]:g}] of pair "
                f"({int(a[row])}, {int(b[row])}) exceeds the TC bound "
                f"{anchor[row]:g} + T_M = {anchor[row] + t_m:g}",
                f"{label}/pair ({int(a[row])}, {int(b[row])})",
            ))
    return findings


def sanitize_columnar_engine(engine) -> List[Finding]:
    """Check everything a columnar engine maintains.

    Both column stores (SC601–SC603) plus the interval-plane
    result-store invariants (SC801–SC803), with the same Theorem-1/2
    interval bound the object engine is audited against:
    per-object anchors are the reference times (TC) or their bucket
    ends (MTB), straight from the live ``tref`` column.
    """
    t = engine.now
    findings: List[Finding] = []
    findings.extend(check_column_store(engine.columns_a, t, label="columns_a"))
    findings.extend(check_column_store(engine.columns_b, t, label="columns_b"))
    anchors: Dict[int, float] = {}
    for store in (engine.columns_a, engine.columns_b):
        oids = store.oids.tolist()
        if engine.algorithm == "mtb":
            length = engine.config.bucket_length
            ends = (
                (store.bucket_keys(length) + 1).astype(float) * length
            ).tolist()
        else:
            ends = store.tref[: store.n].tolist()
        anchors.update(zip(oids, ends))
    findings.extend(check_column_result_store(
        engine.store,
        t_m=engine.config.t_m,
        anchors=anchors,
        floor=getattr(engine, "start_time", None),
    ))
    if engine.ledger is not None:
        engine.store.flush()
        findings.extend(check_delta_ledger(engine.store, engine.ledger))
    return findings


# ----------------------------------------------------------------------
# Dispatchers
# ----------------------------------------------------------------------
def _tree_anchors(strategy) -> Dict[int, float]:
    """oid → last update time, from the strategy's single trees."""
    anchors: Dict[int, float] = {}
    for name in ("tree_a", "tree_b"):
        tree = getattr(strategy, name, None)
        if tree is not None:
            for obj in tree.all_objects():
                anchors[obj.oid] = obj.t_ref
    return anchors


def _forest_anchors(*forests) -> Dict[int, float]:
    """oid → bucket-end of its last update time (the Theorem-2 widening)."""
    anchors: Dict[int, float] = {}
    for forest in forests:
        if forest is None:
            continue
        for obj in forest.all_objects():
            anchors[obj.oid] = forest.bucket_end(forest.bucket_key(obj.t_ref))
    return anchors


def sanitize_engine(engine) -> List[Finding]:
    """Check every structure a continuous-join engine maintains.

    Accepts both :class:`~repro.core.engine.ContinuousJoinEngine`
    (whatever its strategy) and
    :class:`~repro.core.selfjoin.ContinuousSelfJoinEngine`; the
    structures present are discovered by attribute.
    """
    t = engine.now
    findings: List[Finding] = []

    # Self-join engine: one forest, one canonical-pair store.
    if not hasattr(engine, "_strategy"):
        findings.extend(check_mtb_forest(engine.forest, t, label="forest"))
        findings.extend(check_column_result_store(
            engine.store,
            t_m=engine.config.t_m,
            anchors=_forest_anchors(engine.forest),
            floor=getattr(engine, "start_time", None),
        ))
        return findings

    strategy = engine._strategy
    for name in ("tree_a", "tree_b"):
        tree = getattr(strategy, name, None)
        if tree is not None:
            findings.extend(check_tpr_tree(tree, t, label=name))
    for name in ("forest_a", "forest_b"):
        forest = getattr(strategy, name, None)
        if forest is not None:
            findings.extend(check_mtb_forest(forest, t, label=name))

    store = getattr(strategy, "store", None)
    if store is not None:
        t_m: Optional[float] = None
        anchors: Optional[Dict[int, float]] = None
        if engine.algorithm == "tc":
            t_m = engine.config.t_m
            anchors = _tree_anchors(strategy)
        elif engine.algorithm == "mtb":
            t_m = engine.config.t_m
            anchors = _forest_anchors(
                getattr(strategy, "forest_a", None),
                getattr(strategy, "forest_b", None),
            )
        findings.extend(check_column_result_store(
            store, t_m=t_m, anchors=anchors,
            floor=getattr(engine, "start_time", None),
        ))
        ledger = getattr(engine, "ledger", None)
        if ledger is not None:
            findings.extend(check_delta_ledger(store, ledger))
    return findings
