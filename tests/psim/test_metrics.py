"""Metric algebra."""

import pytest

from repro.psim import MachineConfig, simulate
from repro.psim.metrics import (
    SimulationResult,
    average_concurrency,
    average_speed,
    average_true_speedup,
)
from repro.trace import Trace


def _result(makespan=1000.0, busy=4000.0, executed=3000.0, serial=2000.0,
            dispatch=100.0, sync=50.0, wait=10.0, changes=10, firings=4):
    return SimulationResult(
        config=MachineConfig(processors=8, mips=2.0),
        trace_name="t",
        makespan=makespan,
        busy_time=busy,
        executed_work=executed,
        serial_cost=serial,
        dispatch_work=dispatch,
        sync_work=sync,
        queue_wait=wait,
        total_tasks=20,
        total_changes=changes,
        total_firings=firings,
    )


class TestHeadlineMetrics:
    def test_concurrency(self):
        assert _result().concurrency == pytest.approx(4.0)

    def test_true_speedup(self):
        assert _result().true_speedup == pytest.approx(2.0)

    def test_lost_factor_is_ratio(self):
        result = _result()
        assert result.lost_factor == pytest.approx(
            result.concurrency / result.true_speedup
        )

    def test_seconds_and_throughput(self):
        result = _result(makespan=2_000_000.0)  # one second at 2 MIPS
        assert result.seconds == pytest.approx(1.0)
        assert result.wme_changes_per_second == pytest.approx(10.0)
        assert result.firings_per_second == pytest.approx(4.0)

    def test_zero_makespan_guarded(self):
        result = _result(makespan=0.0)
        assert result.concurrency == 0.0
        assert result.true_speedup == 0.0

    def test_empty_trace_simulates_to_zero(self):
        """An empty trace predicts nothing; every ratio stays finite."""
        predicted = simulate(Trace(name="empty", firings=[]), MachineConfig())
        assert predicted.makespan == 0.0
        assert predicted.true_speedup == 0.0
        assert predicted.lost_factor == 0.0


class TestDecomposition:
    def test_work_inflation(self):
        assert _result().work_inflation == pytest.approx(1.5)

    def test_fractions(self):
        result = _result()
        assert result.scheduling_fraction == pytest.approx(110.0 / 4000.0)
        assert result.sync_fraction == pytest.approx(50.0 / 4000.0)

    def test_utilization(self):
        assert _result().utilization == pytest.approx(4000.0 / 8000.0)

    def test_summary_mentions_key_numbers(self):
        text = _result().summary()
        assert "concurrency 4.00" in text
        assert "true speed-up 2.00" in text


class TestAggregates:
    def test_averages(self):
        results = [_result(busy=2000.0), _result(busy=6000.0)]
        assert average_concurrency(results) == pytest.approx(4.0)
        assert average_true_speedup(results) == pytest.approx(2.0)
        assert average_speed(results) > 0

    def test_empty_aggregates(self):
        assert average_concurrency([]) == 0.0
        assert average_speed([]) == 0.0
        assert average_true_speedup([]) == 0.0
