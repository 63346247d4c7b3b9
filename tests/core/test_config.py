"""Tests for JoinConfig validation and derived values."""

import dataclasses
import math
import re
from pathlib import Path

import pytest

import repro
from repro.core import JoinConfig


class TestJoinConfig:
    def test_defaults_match_table_i(self):
        config = JoinConfig()
        assert config.t_m == 60.0
        assert config.node_capacity == 30
        assert config.buffer_pages == 50
        assert config.buckets_per_tm == 2

    def test_bucket_length(self):
        assert JoinConfig(t_m=60.0, buckets_per_tm=2).bucket_length == 30.0
        assert JoinConfig(t_m=60.0, buckets_per_tm=4).bucket_length == 15.0

    def test_frozen(self):
        config = JoinConfig()
        with pytest.raises(AttributeError):
            config.t_m = 5.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"checkpoint_interval": 0},
            {"t_m": 0},
            {"t_m": -5},
            {"buckets_per_tm": 0},
            {"max_retries": -1},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            JoinConfig(**kwargs)

    @pytest.mark.parametrize(
        "name", ["t_m", "shard_timeout", "shard_heartbeat"]
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_rejected(self, name, value):
        """NaN passes a ``<= 0`` check, and a NaN ``t_m`` silently empties
        the columnar join; an infinite one breaks the tree split."""
        with pytest.raises(ValueError, match=name):
            JoinConfig(**{name: value})

    def test_removed_knobs_are_gone(self, monkeypatch):
        """No option or environment variable selects a kernel backend,
        an update loop, the scalar pair tests or a recording any more: a
        recording is a recorder attached to an engine's tracker."""
        with pytest.raises(TypeError):
            JoinConfig(compile_kernels=True)
        with pytest.raises(TypeError):
            JoinConfig(obs=True)
        with pytest.raises(TypeError):
            JoinConfig(batch_updates=False)
        # Split so that grepping the tree for the retired flag finds
        # nothing that still uses it.
        with pytest.raises(TypeError):
            JoinConfig(**{"use_" + "kernels": True})
        # Fields nobody set: the space domain is the workload's, the
        # trees insert with horizon t_m on the storage's default pages.
        for name in ("space_size", "page_size", "horizon"):
            with pytest.raises(TypeError):
                JoinConfig(**{name: 1000.0})
        plain = dataclasses.asdict(JoinConfig())
        monkeypatch.setenv("REPRO_COMPILE", "1")
        monkeypatch.setenv("REPRO_OBS", "1")
        assert dataclasses.asdict(JoinConfig()) == plain

    def test_option_surface_is_pinned(self):
        """Every ``JoinConfig`` field and every ``REPRO_*`` name read
        under ``src/repro``: a new knob is an edit to this list."""
        assert {f.name for f in dataclasses.fields(JoinConfig)} == {
            "t_m", "node_capacity", "buffer_pages", "buckets_per_tm", "deltas",
            "shard_timeout", "shard_heartbeat", "checkpoint_interval",
            "max_retries", "faults",
        }
        root = Path(repro.__file__).parent
        named = set()
        for path in root.rglob("*.py"):
            named.update(re.findall(r"REPRO_[A-Z_]+", path.read_text()))
        assert named == {"REPRO_FAULTS"}
