"""Correctness checks on the answers the benchmark times.

Everything here runs outside the timed sections.  The oracle never
reads engine internals: it mirrors each object's motion from the
generated scenario and the update batches the benchmark emitted, and
re-joins a seeded sample by brute force.
"""

from __future__ import annotations

import hashlib
from itertools import chain
from typing import Dict, Iterable, List, Set, Tuple

import numpy as np

PairKey = Tuple[int, int]

#: Pairs whose overlap depth is within this band of zero are "touching":
#: the oracle accepts either answer for them.
TOUCH_MARGIN = 1e-6
#: Sample rows re-joined per brute-force block; keeps the oracle's
#: temporaries a few MiB so they never set the child's peak RSS.
_ORACLE_BLOCK = 16


def pair_digest(pairs: Iterable[PairKey]) -> str:
    """Digest of one ``result_at`` answer, independent of set order."""
    flat = np.fromiter(chain.from_iterable(pairs), dtype=np.int64).reshape(-1, 2)
    order = np.lexsort((flat[:, 1], flat[:, 0]))
    return hashlib.sha256(flat[order].tobytes()).hexdigest()[:16]


def chain_digest(digests: Iterable[str]) -> str:
    return hashlib.sha256("".join(digests).encode()).hexdigest()


def rows_digest(interval_rows: Dict[PairKey, Tuple[Tuple[float, float], ...]]) -> Tuple[str, int]:
    """sha256 over the sorted ``(a, b, lo, hi)`` rows, and the row count."""
    rows = sorted(
        (a, b, lo, hi) for (a, b), ivs in interval_rows.items() for lo, hi in ivs
    )
    keys = np.array([(a, b) for a, b, _, _ in rows], dtype=np.int64)
    ends = np.array([(lo, hi) for _, _, lo, hi in rows], dtype=np.float64)
    digest = hashlib.sha256(keys.tobytes() + ends.tobytes()).hexdigest()
    return digest, len(rows)


def math_fingerprint() -> str:
    """Digest of this host's ``cos``/``sin`` over fixed inputs.

    Workload generation draws velocities through them, and SIMD libm
    variants differ in the last bit between CPUs; a pinned digest is
    only comparable on a host with the fingerprint it was pinned on.
    """
    x = np.linspace(0.0, 2.0 * np.pi, 4096)
    return hashlib.sha256(np.cos(x).tobytes() + np.sin(x).tobytes()).hexdigest()[:16]


class MotionMirror:
    """The benchmark's own copy of every object's motion, plus the oracle."""

    def __init__(self, scenario, sample_size: int, seed: int):
        self.side = float(scenario.object_side)
        self._oids = {"a": scenario.oid_a, "b": scenario.oid_b}
        self._pos = {"a": scenario.pos_a.copy(), "b": scenario.pos_b.copy()}
        self._vel = {"a": scenario.vel_a.copy(), "b": scenario.vel_b.copy()}
        self._tref = {side: np.zeros(len(oids)) for side, oids in self._oids.items()}
        rng = np.random.default_rng(seed)
        n = len(scenario.oid_a)
        self.sample = np.sort(rng.choice(n, size=min(sample_size, n), replace=False))
        self._sample_oids = set(scenario.oid_a[self.sample].tolist())

    def apply(self, side: str, upd) -> None:
        """Record one emitted update batch (``side`` is ``"a"`` or ``"b"``)."""
        if not len(upd):
            return
        rows = np.searchsorted(self._oids[side], upd.oid)
        self._pos[side][:, rows] = upd.mlo
        self._vel[side][:, rows] = upd.vlo
        self._tref[side][rows] = upd.tref

    def _lo_at(self, side: str, t: float, rows=slice(None)) -> np.ndarray:
        dt = t - self._tref[side][rows]
        return self._pos[side][:, rows] + self._vel[side][:, rows] * dt

    def expected(self, t: float) -> Tuple[Set[PairKey], Set[PairKey]]:
        """``(must, may)`` pairs of the sampled A-objects at time ``t``.

        ``must`` overlap by more than the touching margin, ``may``
        includes the touching band.
        """
        lo_b = self._lo_at("b", t)
        must: Set[PairKey] = set()
        may: Set[PairKey] = set()
        oid_a, oid_b = self._oids["a"], self._oids["b"]
        for start in range(0, len(self.sample), _ORACLE_BLOCK):
            rows = self.sample[start : start + _ORACLE_BLOCK]
            lo_a = self._lo_at("a", t, rows)
            # Equal squares: overlap depth per axis is side - |lo_a - lo_b|.
            depth = self.side - np.abs(lo_a[:, :, None] - lo_b[:, None, :]).max(axis=0)
            for target, mask in ((must, depth > TOUCH_MARGIN), (may, depth >= -TOUCH_MARGIN)):
                ia, ib = np.nonzero(mask)
                target.update(zip(oid_a[rows[ia]].tolist(), oid_b[ib].tolist()))
        return must, may

    def check(self, t: float, pairs: Set[PairKey]) -> List[str]:
        """Problems with ``pairs`` as the answer at ``t`` (empty = agrees)."""
        must, may = self.expected(t)
        got = {pair for pair in pairs if pair[0] in self._sample_oids}
        problems = []
        missing = must - got
        extra = got - may
        if missing:
            problems.append(f"oracle: {len(missing)} missing, e.g. {sorted(missing)[0]}")
        if extra:
            problems.append(f"oracle: {len(extra)} spurious, e.g. {sorted(extra)[0]}")
        return problems


def fold_problems(ledger, interval_rows) -> List[str]:
    """The delta stream must replay to the store it describes."""
    from repro.deltas import fold_events

    problems = []
    if fold_events(ledger).rows() != interval_rows:
        problems.append("fold_events(ledger) does not reproduce store.interval_rows()")
    signed = sum(event.sign for event in ledger.events())
    live = sum(len(ivs) for ivs in interval_rows.values())
    if signed != live:
        problems.append(f"signed event sum {signed} != live rows {live}")
    return problems
