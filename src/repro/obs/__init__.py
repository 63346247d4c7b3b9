"""Structured observability: phase-scoped trace spans over CostTracker.

``repro.obs`` generalizes the flat counters of :mod:`repro.metrics` into
a tree of named spans.  Attach an :class:`ObsRecorder` to a
:class:`~repro.metrics.CostTracker` and every page read/write, pair test
and node visit is *attributed* to the innermost open span — phases like
``engine.tick`` (tagged with the simulation timestamp), join runs like
``join.tc``, and hot call sites like ``tpr.search`` — while the
tracker's global totals stay untouched.  Span rollups are bit-exact
against those totals by construction.

A recording is a recorder attached to an engine's ``tracker``
(``ObsRecorder().attach(engine.tracker)``); it records from then on.
With none attached, the instrumentation reduces to one attribute test
per increment and per span.

Exports land as JSON; ``python -m repro.obs report <files>`` renders
phase, component and timeline tables from them.
"""

from .recorder import NULL_SPAN, ObsRecorder, Span, tracker_span
from .report import (
    component_rows,
    iter_recordings,
    load_recording,
    phase_rows,
    render_report,
    timeline_rows,
)

__all__ = [
    "ObsRecorder",
    "Span",
    "tracker_span",
    "NULL_SPAN",
    "load_recording",
    "iter_recordings",
    "phase_rows",
    "component_rows",
    "timeline_rows",
    "render_report",
]
