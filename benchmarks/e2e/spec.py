"""The benchmark's fixed vocabulary: workloads, sizes and metric names.

Pure data.  ``BENCHMARK.json`` is generated from these tables
(``run.py --write``) and the smoke test asserts the two agree, so a
metric or workload is renamed in exactly one place — and later issues
refer to the names below, so renaming them is an interface change.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

DEFAULT_SEED = 20080407
#: The initial placement is the same for every ``--seed``; the seed drives
#: the update stream, the read fan and the oracle sample.  The sweep join
#: picks its axis by the smaller summed speed, a coin flip on isotropic
#: inputs, and a stripe shard that gets the short axis tests twice the
#: candidates: seeding the placement too makes ``initial_join_s`` of
#: ``sparse-sharded`` 0.25 s or 0.42 s by seed (README, *Baseline*).
SCENARIO_SEED = DEFAULT_SEED
T_M = 60.0
MAX_SPEED = 2.0
#: Ticks 1..WARMUP are executed and checked but excluded from the
#: distributions: the first ledger flush after the initial join costs
#: over a second on the dense inputs.
WARMUP = 5
#: Seeded A-objects the brute-force oracle re-joins against all of B.
ORACLE_SAMPLE = 256
ORACLE_EVERY = 10
#: dense-readfan read bundle.
READ_HORIZONS = (0.0, 1.0, 5.0, 30.0)
POINT_LOOKUPS = 256
OID_WATCHES = 32
REGION_FRACTION = 0.10
SHARDS = 2
WORKERS = 2
#: What ``rounds.HostProbe`` takes on the reference host: this host in its
#: usual regime.  Timings are reported as that host would have read them.
PROBE_REF_MS = 8.0


@dataclass(frozen=True)
class Sizes:
    """Objects per side and timed ticks of one benchmark configuration."""

    n_sparse: int
    n_dense: int
    ticks: int

    def key(self, seed: int) -> str:
        """Identifies the inputs a pinned digest belongs to."""
        return f"sparse={self.n_sparse},dense={self.n_dense},ticks={self.ticks},seed={seed}"


FULL = Sizes(n_sparse=20_000, n_dense=8_000, ticks=100)
SMOKE = Sizes(n_sparse=2_000, n_dense=1_000, ticks=20)


@dataclass(frozen=True)
class Workload:
    """One named set of inputs plus the engine and read bundle it drives."""

    name: str
    why: str
    dense: bool
    object_size_pct: float
    algorithm: str
    deltas: bool
    sharded: bool
    #: ``"result"`` | ``"result+deltas"`` | ``"fan"``
    reads: str
    #: Workload over the same inputs whose answers must be bit-equal.
    reference: Optional[str]
    #: Layers whose wrapped calls this workload executes in the parent.
    layers: Tuple[str, ...]
    #: Seconds of timed steps in one full-size round on the baseline host.
    #: A single run turns ``--seconds`` into a whole number of rounds with
    #: it, so both sides of a comparison do the same work however fast
    #: either of them is.
    round_s: float

    def n(self, sizes: Sizes) -> int:
        return sizes.n_dense if self.dense else sizes.n_sparse


_SERIAL_LAYERS = ("workloads", "core.columnar", "core.columns", "geometry.kernels", "core.result")
_DELTA_LAYERS = _SERIAL_LAYERS + ("deltas.ledger",)

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "sparse-serial",
            "uniform n=20000/side, 0.1% objects, serial tc: sweep-bound (~360 candidates "
            "per hit), where pruning or kernel work must show",
            dense=False, object_size_pct=0.1, algorithm="tc", deltas=False,
            sharded=False, reads="result", reference=None, layers=_SERIAL_LAYERS, round_s=8.0,
        ),
        Workload(
            "sparse-sharded",
            "same inputs through 2 shards x 2 columnar workers: route, pickle, pipe, merge "
            "and checkpoint stalls; p50 follows the kernels, p90 the checkpoints",
            dense=False, object_size_pct=0.1, algorithm="tc", deltas=False,
            sharded=True, reads="result", reference="sparse-serial",
            layers=("workloads", "par.sharded", "par.supervisor", "par.worker"), round_s=23.0,
        ),
        Workload(
            "dense-write",
            "uniform n=8000/side, 0.5% objects, mtb with deltas on: store flush and ledger "
            "bound, ~3.8k delta events per tick; pruning candidates should move nothing here",
            dense=True, object_size_pct=0.5, algorithm="mtb", deltas=True,
            sharded=False, reads="result+deltas", reference=None, layers=_DELTA_LAYERS,
            round_s=9.0,
        ),
        Workload(
            "dense-readfan",
            "dense-write inputs with reads multiplied (4 horizons, 256 point lookups, 32 oid "
            "and 1 region watch): a store layout that slows the inverted index loses here",
            dense=True, object_size_pct=0.5, algorithm="mtb", deltas=True,
            sharded=False, reads="fan", reference="dense-write",
            layers=_DELTA_LAYERS + ("deltas.watch",), round_s=20.0,
        ),
    )
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: Relative worsening of the median that counts as a regression
    #: (end-to-end metrics only): at least three times the widest spread
    #: ten single runs showed on any workload, capped at the 25 % the
    #: contract allows (README, *Bounds*).
    bound: Optional[float] = None


#: ``failed_share`` (failed / attempted steps and checks, bound 0) is the
#: seventh end-to-end number; it travels as ``attempted`` / ``failed`` in
#: the result line because a metric that is 0 cannot carry a relative bound.
END_TO_END: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("initial_join_s", "s", "lower", 0.25),
    Metric("step_p50_ms", "ms", "lower", 0.25),
    Metric("step_p90_ms", "ms", "lower", 0.25),
    Metric("updates_per_s", "1/s", "higher", 0.25),
    Metric("peak_rss_mb", "MiB", "lower", 0.05),
)


def _layer(layer: str, *metrics: Tuple[str, str, str]) -> Tuple[Metric, ...]:
    return tuple(Metric(f"{layer}.{name}", unit, better) for name, unit, better in metrics)


PER_LAYER: Tuple[Metric, ...] = (
    _layer(
        "workloads",
        ("generate_ms_per_tick", "ms", "lower"),
        ("updates_per_tick", "count", "higher"),
    )
    + _layer(
        "core.columnar",
        ("update_ms_p50", "ms", "lower"),
        ("update_ms_p90", "ms", "lower"),
        ("read_ms_p50", "ms", "lower"),
        ("read_ms_p90", "ms", "lower"),
        ("self_ms_per_tick", "ms", "lower"),
        ("warmup_s", "s", "lower"),
    )
    + _layer(
        "core.columns",
        ("commit_ms_per_tick", "ms", "lower"),
        ("gather_ms_per_tick", "ms", "lower"),
        ("gather_calls_per_tick", "count", "lower"),
        ("rows_written_per_tick", "count", "lower"),
    )
    + _layer(
        "geometry.kernels",
        ("sweep_ms_per_tick", "ms", "lower"),
        ("sweep_calls_per_tick", "count", "lower"),
        ("candidates_per_tick", "count", "lower"),
        ("pairs_out_per_tick", "count", "lower"),
        ("hit_ratio", "ratio", "higher"),
        ("ns_per_candidate", "ns", "lower"),
        ("initial_candidates", "count", "lower"),
        ("initial_hit_ratio", "ratio", "higher"),
    )
    + _layer(
        "core.result",
        ("add_batch_ms_per_tick", "ms", "lower"),
        ("invalidate_ms_per_tick", "ms", "lower"),
        ("rows_killed_per_tick", "count", "lower"),
        ("flush_ms_per_tick", "ms", "lower"),
        ("flush_calls_per_tick", "count", "lower"),
        ("pairs_at_ms_p50", "ms", "lower"),
        ("point_lookup_us_p50", "us", "lower"),
        ("live_rows", "count", "lower"),
        ("store_mb", "MiB", "lower"),
    )
    + _layer(
        "deltas.ledger",
        ("events_at_ms_p50", "ms", "lower"),
        ("events_per_tick", "count", "lower"),
        ("us_per_event_p50", "us", "lower"),
        ("us_per_event_p90", "us", "lower"),
        ("advance_ms_per_tick", "ms", "lower"),
        ("total_events", "count", "lower"),
    )
    + _layer(
        "deltas.watch",
        ("oid_poll_us_p50", "us", "lower"),
        ("region_poll_ms_p50", "ms", "lower"),
        ("events_matched_per_tick", "count", "lower"),
    )
    + _layer(
        "par.sharded",
        ("apply_ms_per_tick", "ms", "lower"),
        ("route_merge_self_ms_per_tick", "ms", "lower"),
        ("result_merge_ms_p50", "ms", "lower"),
        ("ghost_fraction", "ratio", "lower"),
        ("shard_skew", "ratio", "lower"),
        ("halo_candidate_ratio", "ratio", "lower"),
        ("merged_store_mb", "MiB", "lower"),
    )
    + _layer(
        "par.supervisor",
        ("run_ms_per_tick", "ms", "lower"),
        ("run_calls_per_tick", "count", "lower"),
        ("bytes_out_per_tick", "B", "lower"),
        ("bytes_in_per_tick", "B", "lower"),
        ("wait_ms_per_tick", "ms", "lower"),
        ("checkpoints", "count", "lower"),
        ("checkpoint_tick_ms_p50", "ms", "lower"),
        ("plain_tick_ms_p50", "ms", "lower"),
        ("respawns", "count", "lower"),
    )
    + _layer(
        "par.worker",
        ("cpu_ms_per_tick_max", "ms", "lower"),
        ("cpu_ms_per_tick_sum", "ms", "lower"),
        ("parallel_efficiency", "ratio", "higher"),
    )
    + _layer("host", ("calib_ms", "ms", "lower"), ("probe_ms", "ms", "lower"))
    + _layer("trace", ("overhead_pct", "%", "lower"))
)

#: Workload-intent shares of step self time, printed as ``intent_ok``
#: warnings: later optimisations are expected to change them.
INTENT = {
    "sparse-serial": (("geometry.kernels",), 0.60),
    "dense-write": (("core.result", "deltas.ledger"), 0.50),
    "dense-readfan": (("read",), 0.50),
}
