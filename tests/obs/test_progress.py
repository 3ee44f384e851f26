"""Tests for the sweep progress line (presentation only)."""

import io
import time

from repro.obs.progress import (
    SweepProgress,
    _format_eta,
    progress_enabled_by_env,
)


class TestEnvToggle:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_PROGRESS", raising=False)
        assert not progress_enabled_by_env()

    def test_truthy_values(self, monkeypatch):
        for value in ("1", "true", "YES", " on "):
            monkeypatch.setenv("REPRO_PROGRESS", value)
            assert progress_enabled_by_env()

    def test_falsy_values(self, monkeypatch):
        for value in ("0", "false", "", "off"):
            monkeypatch.setenv("REPRO_PROGRESS", value)
            assert not progress_enabled_by_env()


class TestFormatEta:
    def test_bands(self):
        assert _format_eta(5) == "5s"
        assert _format_eta(75) == "1m15s"
        assert _format_eta(3700) == "1h01m"
        assert _format_eta(-1) == "?"


def _feed(progress, count=1, cached=False):
    """Resolve ``count`` tasks the way the sweep engine does."""
    for _ in range(count):
        progress.tally.add(cached)
        progress.render()


class TestSweepProgress:
    def _progress(self, total=10):
        stream = io.StringIO()
        progress = SweepProgress(total, stream=stream, min_interval_s=0.0)
        return progress, stream

    def test_line_shows_done_over_total(self):
        progress, stream = self._progress()
        progress.start()
        _feed(progress, 3)
        assert "sweep: 3/10" in stream.getvalue()

    def test_cached_tasks_count_as_done(self):
        progress, stream = self._progress()
        progress.start()
        _feed(progress, 4, cached=True)
        text = stream.getvalue()
        assert "sweep: 4/10" in text
        assert "4 cached" in text

    def test_eta_appears_once_executing(self):
        progress, stream = self._progress()
        progress.start()
        _feed(progress, 5)
        assert "eta" in stream.getvalue()

    def test_cached_only_progress_shows_no_eta(self):
        # ETA extrapolates from *executed* tasks; cache hits are
        # instant and would otherwise forecast zero.
        progress, stream = self._progress()
        progress.start()
        _feed(progress, 5, cached=True)
        assert "eta" not in stream.getvalue()

    def test_finish_terminates_line(self):
        progress, stream = self._progress(total=1)
        progress.start()
        _feed(progress)
        progress.finish()
        assert stream.getvalue().endswith("\n")

    def test_render_throttled_by_interval(self):
        stream = io.StringIO()
        progress = SweepProgress(100, stream=stream, min_interval_s=3600.0)
        progress.start()
        baseline = stream.getvalue()
        _feed(progress, 50)
        # All 50 renders inside the interval are suppressed.
        assert stream.getvalue() == baseline

    def test_start_opens_a_fresh_tally(self):
        progress, stream = self._progress(total=2)
        progress.start()
        _feed(progress, 2)
        progress.finish()
        progress.start()
        _feed(progress)
        assert stream.getvalue().rpartition("\r")[2].startswith("sweep: 1/2")


class TestUnknownTotal:
    """``total=None``: streaming ingestion from a live service."""

    def _progress(self):
        stream = io.StringIO()
        progress = SweepProgress(None, stream=stream, min_interval_s=0.0)
        return progress, stream

    def test_line_shows_question_mark_total(self):
        progress, stream = self._progress()
        progress.start()
        _feed(progress, 3)
        assert "sweep: 3/?" in stream.getvalue()

    def test_no_eta_is_ever_rendered(self):
        # With no total an ETA would be fabricated; the honest signal
        # is the observed completion rate.
        progress, stream = self._progress()
        progress.start()
        _feed(progress, 7)
        progress.finish()
        assert "eta" not in stream.getvalue()

    def test_rate_appears_once_measurable(self):
        progress, stream = self._progress()
        progress.start()
        _feed(progress)
        assert "/s" not in stream.getvalue()  # one resolution spans no time
        time.sleep(0.01)
        _feed(progress)
        assert "/s" in stream.getvalue()

    def test_cached_counts_still_shown(self):
        progress, stream = self._progress()
        progress.start()
        _feed(progress, 2, cached=True)
        _feed(progress, 1)
        text = stream.getvalue()
        assert "sweep: 3/?" in text
        assert "2 cached" in text

    def test_finish_terminates_line(self):
        progress, stream = self._progress()
        progress.start()
        _feed(progress)
        progress.finish()
        assert stream.getvalue().endswith("\n")


class TestRedrawThrottle:
    """Fully-cached sweeps must not flood stderr (>=100 ms floor)."""

    def test_default_interval_is_at_least_100ms(self):
        from repro.obs.progress import MIN_REDRAW_INTERVAL_S

        assert MIN_REDRAW_INTERVAL_S >= 0.1
        assert SweepProgress(10, stream=io.StringIO()).min_interval_s \
            >= 0.1

    def test_fully_cached_sweep_writes_bounded_output(self):
        # 5000 instant cache hits: without the throttle each would
        # redraw the line (hundreds of KB of stderr).  With the
        # default floor only start/finish (forced) plus at most a
        # couple of interval-expiry redraws can land.
        stream = io.StringIO()
        progress = SweepProgress(5000, stream=stream)
        progress.start()
        _feed(progress, 5000, cached=True)
        progress.finish()
        assert len(stream.getvalue()) < 1000
