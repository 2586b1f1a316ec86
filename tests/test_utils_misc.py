"""Tests for timer, serialization, and logging utilities."""

import json
import logging
import time

import numpy as np
import pytest

from repro.utils.logging import configure, get_logger
from repro.utils.serialization import save_json
from repro.utils.timer import Timer


class TestTimer:
    def test_section_accumulates(self):
        timer = Timer()
        with timer.section("work"):
            time.sleep(0.01)
        with timer.section("work"):
            time.sleep(0.01)
        assert timer.total("work") >= 0.02

    def test_start_stop(self):
        timer = Timer()
        timer.start("x")
        elapsed = timer.stop("x")
        assert elapsed >= 0.0

    def test_double_start_raises(self):
        timer = Timer()
        timer.start("x")
        with pytest.raises(RuntimeError):
            timer.start("x")

    def test_stop_without_start_raises(self):
        with pytest.raises(RuntimeError):
            Timer().stop("x")

    def test_unknown_total_is_zero(self):
        assert Timer().total("nothing") == 0.0

    def test_names_sorted(self):
        timer = Timer()
        for name in ("b", "a"):
            with timer.section(name):
                pass
        assert timer.names() == ["a", "b"]


class TestSerialization:
    def test_json_round_trip(self, tmp_path):
        record = {"a": 1, "b": [1.5, 2.5], "nested": {"x": "y"}}
        path = str(tmp_path / "out" / "r.json")
        save_json(path, record)
        with open(path, encoding="utf-8") as fh:
            assert json.load(fh) == record

    def test_json_converts_numpy(self, tmp_path):
        path = str(tmp_path / "r.json")
        save_json(path, {"arr": np.array([1.0, 2.0]), "scalar": np.float64(3.5)})
        with open(path, encoding="utf-8") as fh:
            loaded = json.load(fh)
        assert loaded == {"arr": [1.0, 2.0], "scalar": 3.5}

    def test_json_is_valid_json(self, tmp_path):
        path = str(tmp_path / "r.json")
        save_json(path, {"k": 1})
        with open(path) as fh:
            assert json.load(fh) == {"k": 1}


class TestLogging:
    def test_get_logger_namespaced(self):
        assert get_logger("fl").name == "repro.fl"
        assert get_logger("").name == "repro"
        assert get_logger("repro.x").name == "repro.x"

    def test_configure_idempotent(self):
        configure(logging.WARNING)
        configure(logging.WARNING)
        root = logging.getLogger("repro")
        stream_handlers = [
            h for h in root.handlers
            if isinstance(h, logging.StreamHandler)
            and not isinstance(h, logging.NullHandler)
        ]
        assert len(stream_handlers) == 1
