"""Unit tests for the span recorder: filing, rollup, timing, export."""

from __future__ import annotations

import json

from repro.metrics import CostTracker
from repro.obs import NULL_SPAN, ObsRecorder, tracker_span
from repro.obs.recorder import FORMAT


class TestSpanFiling:
    def test_counts_land_on_innermost_open_span(self):
        rec = ObsRecorder()
        rec.count("pair_tests", 1)  # no span open: files on the root
        with rec.span("outer"):
            rec.count("pair_tests", 2)
            with rec.span("inner"):
                rec.count("pair_tests", 4)
            rec.count("pair_tests", 8)
        (outer,) = rec.find("outer")
        (inner,) = rec.find("inner")
        assert rec.root.counts == {"pair_tests": 1}
        assert outer.counts == {"pair_tests": 10}
        assert inner.counts == {"pair_tests": 4}

    def test_rollup_is_sum_of_subtree(self):
        rec = ObsRecorder()
        with rec.span("a"):
            rec.count("page_reads", 1)
            with rec.span("b"):
                rec.count("page_reads", 2)
        with rec.span("c"):
            rec.count("page_writes", 5)
        assert rec.root_totals() == {"page_reads": 3, "page_writes": 5}
        (a,) = rec.find("a")
        assert a.total() == {"page_reads": 3}

    def test_distinct_spans_per_call(self):
        """Calls with different tags are different spans: the timeline."""
        rec = ObsRecorder()
        for t in (1.0, 2.0):
            with rec.span("engine.tick", t=t):
                pass
        ticks = rec.find("engine.tick")
        assert [s.tags["t"] for s in ticks] == [1.0, 2.0]
        assert all(s.calls == 1 for s in ticks)

    def test_aggregated_spans_accumulate(self):
        rec = ObsRecorder()
        with rec.span("phase"):
            for n in (1, 2, 3):
                with rec.span("tpr.search"):
                    rec.count("node_visits", n)
        (agg,) = rec.find("tpr.search")
        assert agg.calls == 3
        assert agg.counts == {"node_visits": 6}

    def test_aggregation_is_per_parent_and_tags(self):
        rec = ObsRecorder()
        with rec.span("p1"):
            with rec.span("s"):
                pass
            with rec.span("s", side="a"):
                pass
        with rec.span("p2"):
            with rec.span("s"):
                pass
        assert len(rec.find("s")) == 3

    def test_recursive_aggregated_span_nests_per_parent(self):
        # Aggregation is keyed per *parent*: re-entering the same call
        # site while it is open files the inner activation as a child,
        # so exclusive times and counts stay additive under recursion.
        rec = ObsRecorder()
        with rec.span("recursive") as outer:
            rec.count("pair_tests", 1)
            with rec.span("recursive") as inner:
                assert inner is not outer
                assert inner.parent is outer
                rec.count("pair_tests", 2)
        spans = rec.find("recursive")
        assert [s.calls for s in spans] == [1, 1]
        assert outer.counts == {"pair_tests": 1}
        assert outer.total() == {"pair_tests": 3}
        assert all(s._open == 0 for s in spans)
        assert inner.seconds <= outer.seconds <= rec.elapsed()

    def test_self_seconds_excludes_children(self):
        rec = ObsRecorder()
        with rec.span("parent"):
            with rec.span("child"):
                pass
        (parent,) = rec.find("parent")
        (child,) = rec.find("child")
        assert parent.self_seconds() <= parent.seconds
        assert abs(parent.self_seconds() - (parent.seconds - child.seconds)) < 1e-12


class TestTrackerIntegration:
    def test_attach_routes_all_four_counters(self):
        tracker = CostTracker()
        rec = ObsRecorder()
        rec.attach(tracker)
        with rec.span("phase"):
            tracker.count_read(2)
            tracker.count_write(3)
            tracker.count_pair_tests(5)
            tracker.count_node_visit(7)
        assert rec.root_totals() == {
            "page_reads": 2, "page_writes": 3,
            "pair_tests": 5, "node_visits": 7,
        }
        # The tracker's own totals are unchanged by attribution.
        assert (tracker.page_reads, tracker.page_writes,
                tracker.pair_tests, tracker.node_visits) == (2, 3, 5, 7)

    def test_detach_stops_filing(self):
        tracker = CostTracker()
        rec = ObsRecorder()
        rec.attach(tracker)
        tracker.count_read()
        rec.detach()
        tracker.count_read()
        assert tracker.obs is None
        assert rec.root_totals() == {"page_reads": 1}
        assert tracker.page_reads == 2

    def test_detach_leaves_a_tracker_another_recorder_took_over(self):
        tracker = CostTracker()
        first, second = ObsRecorder(), ObsRecorder()
        first.attach(tracker)
        second.attach(tracker)
        first.detach()
        assert tracker.obs is second
        tracker.count_read()
        assert second.root_totals() == {"page_reads": 1}
        assert first.root_totals() == {}
        second.detach()
        assert tracker.obs is None

    def test_tracker_span_is_noop_without_recorder(self):
        tracker = CostTracker()
        assert tracker_span(tracker, "anything") is NULL_SPAN
        with tracker_span(tracker, "anything"):
            tracker.count_read()
        assert tracker.page_reads == 1

    def test_tracker_span_opens_aggregated_span(self):
        tracker = CostTracker()
        rec = ObsRecorder()
        rec.attach(tracker)
        for _ in range(2):
            with tracker_span(tracker, "tpr.search"):
                tracker.count_pair_tests()
        (span,) = rec.find("tpr.search")
        assert span.calls == 2
        assert span.counts == {"pair_tests": 2}

    def test_timed_nesting_accumulates_once(self):
        tracker = CostTracker()
        with tracker.timed():
            with tracker.timed():
                pass
        first = tracker.cpu_seconds
        assert first >= 0.0
        with tracker.timed():
            pass
        assert tracker.cpu_seconds >= first


class TestExport:
    def _small_recording(self) -> ObsRecorder:
        rec = ObsRecorder("run", meta={"series": "TC"})
        tracker = CostTracker()
        rec.attach(tracker)
        with rec.span("engine.tick", t=1.0):
            with tracker_span(tracker, "tpr.search"):
                tracker.count_pair_tests(3)
                tracker.count_node_visit(2)
        return rec

    def test_to_dict_shape(self):
        data = self._small_recording().to_dict(meta={"x": 100})
        assert data["format"] == FORMAT
        assert data["meta"] == {"series": "TC", "x": 100}
        assert data["totals"] == {"pair_tests": 3, "node_visits": 2}
        names = [span["name"] for span in data["spans"]]
        assert names == ["run", "engine.tick", "tpr.search"]
        root, tick, search = data["spans"]
        assert root["parent"] is None
        assert tick["parent"] == root["id"]
        assert search["parent"] == tick["id"]
        assert tick["total"] == {"pair_tests": 3, "node_visits": 2}
        assert tick["self"] == {}
        # Root is still open at export time: elapsed seconds included.
        assert root["seconds"] > 0.0

    def test_json_roundtrip(self, tmp_path):
        rec = self._small_recording()
        path = rec.export_json(tmp_path / "run.json")
        data = json.loads(path.read_text())
        assert data["format"] == FORMAT
        assert data["totals"] == {"pair_tests": 3, "node_visits": 2}

    def test_export_leaves_recording_usable(self):
        rec = self._small_recording()
        rec.to_dict()
        with rec.span("more"):
            rec.count("pair_tests", 1)
        assert rec.root_totals()["pair_tests"] == 4
