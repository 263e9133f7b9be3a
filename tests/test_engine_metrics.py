"""Tests for the metrics collector."""

import pytest

from repro.engine.metrics import MetricsCollector
from repro.engine.stream import StreamTuple


def _pair(arrival_left, arrival_right):
    left = StreamTuple(relation="R", record={}, arrival_time=arrival_left)
    right = StreamTuple(relation="S", record={}, arrival_time=arrival_right)
    return left, right


class TestOutputsAndLatency:
    def test_latency_uses_newer_input(self):
        metrics = MetricsCollector()
        left, right = _pair(1.0, 5.0)
        metrics.record_output(left, right, output_time=7.0)
        assert metrics.output_count == 1
        assert list(metrics.latency_ledger) == [pytest.approx(2.0)]

    def test_latency_never_negative(self):
        metrics = MetricsCollector()
        left, right = _pair(10.0, 10.0)
        metrics.record_output(left, right, output_time=9.0)
        assert list(metrics.latency_ledger) == [0.0]

    def test_outputs_collected_only_when_requested(self):
        silent = MetricsCollector(collect_outputs=False)
        verbose = MetricsCollector(collect_outputs=True)
        left, right = _pair(0.0, 0.0)
        silent.record_output(left, right, 1.0)
        verbose.record_output(left, right, 1.0)
        assert silent.outputs == []
        assert verbose.outputs == [(left.tuple_id, right.tuple_id)]

    def test_average_latency_empty(self):
        assert MetricsCollector().average_latency() == 0.0


class TestThroughputAndSeries:
    def test_throughput(self):
        metrics = MetricsCollector()
        for index in range(10):
            metrics.record_input_processed(float(index))
        metrics.finish_time = 5.0
        assert metrics.throughput() == pytest.approx(2.0)
        assert metrics.output_throughput() == 0.0

    def test_throughput_zero_before_finish(self):
        metrics = MetricsCollector()
        metrics.record_input_processed(0.0)
        assert metrics.throughput() == 0.0

    def test_series_recording(self):
        metrics = MetricsCollector()
        metrics.record_ilf(10.0, 100.0)
        metrics.record_competitive_ratio(10, 1.2)
        metrics.record_cardinality_ratio(10, 0.5)
        assert metrics.ilf_series == [(10.0, 100.0)]
        assert metrics.max_competitive_ratio() == pytest.approx(1.2)
        assert metrics.competitive_series == [(10, 0.5)]

    def test_max_ratio_defaults_to_one(self):
        assert MetricsCollector().max_competitive_ratio() == 1.0


class TestMigrationEvents:
    def test_start_and_complete(self):
        metrics = MetricsCollector()
        metrics.start_migration(1, 5.0, (4, 4), (2, 8))
        metrics.complete_migration(1, 9.0)
        assert metrics.migration_count() == 1
        event = metrics.migrations[0]
        assert event.completed_at == 9.0
        assert event.old_mapping == (4, 4)
        assert event.new_mapping == (2, 8)

    def test_complete_unknown_epoch_is_noop(self):
        metrics = MetricsCollector()
        metrics.start_migration(1, 5.0, (4, 4), (2, 8))
        metrics.complete_migration(99, 9.0)
        assert metrics.migrations[0].completed_at is None
