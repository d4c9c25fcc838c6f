"""Telemetry: latency percentiles and counter rollups."""

import asyncio
import math
import random

import pytest

from repro.serve.session import Session
from repro.serve.stats import MEDIAN_REFRESH, LatencyWindow, Telemetry


def reference(samples, p):
    """Nearest rank on a full sort: what every cheaper read must equal."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


class TestLatencyWindow:
    def test_empty_window_reports_zero(self):
        window = LatencyWindow()
        assert window.p50 == 0.0
        assert window.p99 == 0.0
        assert window.count == 0

    def test_percentiles_on_known_data(self):
        window = LatencyWindow()
        for ms in range(1, 101):  # 1..100
            window.record(ms / 1000)
        assert window.p50 == pytest.approx(0.050)
        assert window.p95 == pytest.approx(0.095)
        assert window.p99 == pytest.approx(0.099)
        assert window.percentile(100) == pytest.approx(0.100)
        assert window.percentile(0) == pytest.approx(0.001)

    def test_single_sample_dominates_every_percentile(self):
        window = LatencyWindow()
        window.record(0.25)
        for p in (0, 50, 99, 100):
            assert window.percentile(p) == pytest.approx(0.25)

    def test_window_is_bounded_and_slides(self):
        window = LatencyWindow(capacity=4)
        for value in (10.0, 10.0, 10.0, 10.0, 1.0, 1.0, 1.0, 1.0):
            window.record(value)
        # The four old 10s samples have been evicted.
        assert window.percentile(100) == pytest.approx(1.0)
        assert window.count == 8  # lifetime count keeps the full history

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            LatencyWindow(capacity=0)
        window = LatencyWindow()
        window.record(0.1)
        with pytest.raises(ValueError):
            window.percentile(101)


class TestNearestRankSmallWindows:
    """Regression: ``round()`` half-to-even banker's rounding skewed the
    rank on small windows (p50 of five samples landed below the median).
    Nearest-rank is ``ceil(p/100 * n)``, 1-based."""

    @staticmethod
    def _window(*values):
        window = LatencyWindow()
        for value in values:
            window.record(value)
        return window

    def test_n1(self):
        window = self._window(0.7)
        for p in (0, 1, 50, 99, 100):
            assert window.percentile(p) == pytest.approx(0.7)

    def test_n2(self):
        window = self._window(0.1, 0.2)
        assert window.percentile(50) == pytest.approx(0.1)
        assert window.percentile(51) == pytest.approx(0.2)
        assert window.percentile(100) == pytest.approx(0.2)
        assert window.percentile(0) == pytest.approx(0.1)

    def test_n3(self):
        window = self._window(0.1, 0.2, 0.3)
        assert window.percentile(33) == pytest.approx(0.1)
        assert window.percentile(34) == pytest.approx(0.2)
        assert window.percentile(50) == pytest.approx(0.2)
        assert window.percentile(67) == pytest.approx(0.3)
        assert window.percentile(100) == pytest.approx(0.3)

    def test_n5_median_is_the_middle_sample(self):
        # The banker's-rounding bug: round(0.5 * 5) == 2 -> index 1,
        # reporting 0.2 as the median of five samples.
        window = self._window(0.1, 0.2, 0.3, 0.4, 0.5)
        assert window.percentile(50) == pytest.approx(0.3)
        assert window.percentile(20) == pytest.approx(0.1)
        assert window.percentile(21) == pytest.approx(0.2)
        assert window.percentile(80) == pytest.approx(0.4)
        assert window.percentile(81) == pytest.approx(0.5)

    def test_monotone_in_p(self):
        window = self._window(0.5, 0.1, 0.4, 0.2, 0.3, 0.9, 0.7)
        values = [window.percentile(p) for p in range(0, 101)]
        assert values == sorted(values)


class TestOneSortPerRead:
    """Reads that used to sort the window per percentile (or per
    rejection) must still equal the sorted reference."""

    @pytest.fixture
    def sorts(self, monkeypatch):
        calls = []
        percentiles = LatencyWindow.percentiles

        def counting(window, *ps):
            calls.append(ps)
            return percentiles(window, *ps)

        monkeypatch.setattr(LatencyWindow, "percentiles", counting)
        return calls

    def test_summary_is_one_sort_and_equals_the_reference(self, sorts):
        rng = random.Random(5)
        window = LatencyWindow(capacity=64)
        samples = [rng.random() for _ in range(200)]
        for value in samples:
            window.record(value)
        summary = window.summary()
        assert len(sorts) == 1
        recent = samples[-64:]
        assert summary == {
            "samples": 200,
            "p50": reference(recent, 50),
            "p95": reference(recent, 95),
            "p99": reference(recent, 99),
        }
        assert LatencyWindow().summary() == {"samples": 0, "p50": 0.0, "p95": 0.0, "p99": 0.0}

    def test_snapshot_sorts_each_window_once(self, sorts):
        telemetry = Telemetry()
        for value in (0.3, 0.1, 0.2):
            telemetry.latency.record(value)
            telemetry.queue_wait.record(value / 10)
        snapshot = telemetry.snapshot()
        assert len(sorts) == 2
        assert snapshot["latency"]["p50"] == 0.2
        assert snapshot["queue_wait"] == {"samples": 3, "p50": 0.02, "p95": 0.03, "p99": 0.03}

    def test_recent_p50_is_the_reference_at_every_refresh(self, sorts):
        rng = random.Random(9)
        window = LatencyWindow(capacity=256)
        assert window.recent_p50 == 0.0
        samples = []
        shown = None
        for n in range(1, 600):
            samples.append(rng.random())
            window.record(samples[-1])
            before = len(sorts)
            value = window.recent_p50
            if len(sorts) > before:  # a refresh: exact
                shown = reference(samples[-256:], 50)
            assert value == shown
        # Doubling while small, then every MEDIAN_REFRESH samples:
        # O(1) amortised however often it is read.
        assert len(sorts) <= 8 + 600 // MEDIAN_REFRESH
        for _ in range(1000):  # a storm of reads without new samples
            window.recent_p50
        assert len(sorts) <= 8 + 600 // MEDIAN_REFRESH

    def test_backpressure_hint_does_not_sort_per_rejection(self, sorts):
        async def main():
            session = Session("t", program="", max_pending=1)
            try:
                for _ in range(5):
                    assert (await session.submit({"op": "run"}))["ok"]
                baseline = len(sorts)
                session._waiters.append(None)  # a full queue, without a race
                hints = {
                    (await session.submit({"op": "run"}))["retry_after"]
                    for _ in range(500)
                }
                session._waiters.clear()
                # median latency x (queue depth + 1), from at most one sort.
                assert hints == {2 * session.telemetry.latency.recent_p50}
                assert len(sorts) - baseline <= 1
                assert session.telemetry.rejected == 500
            finally:
                await session.drain_and_close()

        asyncio.run(main())


class TestTelemetry:
    def test_snapshot_shape(self):
        telemetry = Telemetry()
        telemetry.requests = 3
        telemetry.wme_changes = 10
        telemetry.firings = 4
        telemetry.latency.record(0.01)
        snapshot = telemetry.snapshot()
        assert snapshot["requests"] == 3
        assert snapshot["wme_changes"] == 10
        assert snapshot["latency"]["samples"] == 1
        assert snapshot["uptime_seconds"] >= 0.0
        assert snapshot["wme_changes_per_second"] > 0.0

    def test_absorb_folds_counters(self):
        total, part = Telemetry(), Telemetry()
        part.requests = 2
        part.errors = 1
        part.rejected = 4
        part.wme_changes = 7
        part.firings = 3
        total.absorb(part)
        total.absorb(part)
        assert total.requests == 4
        assert total.errors == 2
        assert total.rejected == 8
        assert total.wme_changes == 14
        assert total.firings == 6

    def test_absorb_leaves_source_untouched(self):
        total, part = Telemetry(), Telemetry()
        part.requests = 2
        part.latency.record(0.5)
        total.absorb(part)
        assert part.requests == 2
        # Latency windows are per-source; the rollup does not merge them.
        assert total.latency.count == 0

    def test_absorbed_counters_round_trip_through_snapshot(self):
        total = Telemetry()
        for requests, firings in ((1, 2), (3, 4), (5, 6)):
            part = Telemetry()
            part.requests = requests
            part.firings = firings
            total.absorb(part)
        snapshot = total.snapshot()
        assert snapshot["requests"] == 9
        assert snapshot["firings"] == 12
        assert snapshot["errors"] == 0
        assert snapshot["latency"]["samples"] == 0
        assert snapshot["latency"]["p50"] == 0.0
