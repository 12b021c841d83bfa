"""Stopwatch regression tests."""

from __future__ import annotations

import pytest

from repro.obs import Stopwatch


class TestStopwatch:
    def test_start_stop_accumulates_laps(self):
        watch = Stopwatch()
        watch.start()
        watch.stop()
        watch.start()
        watch.stop()
        assert len(watch.laps) == 2
        assert watch.elapsed == pytest.approx(sum(watch.laps))
        assert watch.elapsed_ms == pytest.approx(watch.elapsed * 1000.0)

    def test_stop_without_start_raises(self):
        with pytest.raises(RuntimeError):
            Stopwatch().stop()

    def test_reset_clears_pending_start(self):
        # Regression: reset() while running must clear the pending
        # _started_at, so a later stop() cannot bill the pre-reset
        # interval to the fresh measurement.
        watch = Stopwatch()
        watch.start()
        watch.reset()
        assert not watch.running
        assert watch.elapsed == 0.0
        assert watch.laps == []
        with pytest.raises(RuntimeError):
            watch.stop()

    def test_context_manager_times_the_block(self):
        watch = Stopwatch()
        with watch:
            pass
        assert not watch.running
        assert len(watch.laps) == 1
        assert watch.elapsed >= 0.0
