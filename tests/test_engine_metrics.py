"""Tests for the metrics collector."""

import random
import tracemalloc

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


class TestProgressSeries:
    @pytest.mark.parametrize("count", [0, 1, 199, 201, 16384, 16385, 40000, 40001])
    @pytest.mark.parametrize("values", ["spread", "ties"])
    def test_points_are_the_sorted_series_order_statistics(self, count, values):
        """The sampled points equal those of a full sorted copy, across
        several sorted runs and windows and with long runs of equal times,
        on every call: the runs sorted in place by one call, and times
        recorded after it, read the same as a fresh series."""
        rng = random.Random(count)
        metrics = MetricsCollector()

        def record(times):
            for _ in range(times):
                metrics.record_input_processed(
                    rng.random() * 500.0 if values == "spread" else float(rng.randrange(3))
                )

        def expected():
            times = sorted(metrics.progress_times)
            step = max(1, len(times) // 200)
            return [((index + 1) / 1000, times[index]) for index in range(0, len(times), step)]

        record(count)
        oracle = expected()
        assert metrics.progress_fraction_series(1000) == oracle
        assert metrics.progress_fraction_series(1000) == oracle
        record(count // 3 + 1)
        assert metrics.progress_fraction_series(1000) == expected()

    @pytest.mark.parametrize("values", ["spread", "ties"])
    def test_series_takes_no_second_per_input_array(self, values):
        """Collecting the series holds at most about one run of the times as
        floats, well under a copy of the 8 B-per-input array, also when most
        times tie."""
        rng = random.Random(9)
        metrics = MetricsCollector()
        metrics.progress_times.extend(
            rng.random() * 500.0 if values == "spread" else float(rng.randrange(3))
            for _ in range(300_000)
        )
        tracemalloc.start()
        try:
            metrics.progress_fraction_series(300_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * len(metrics.progress_times) / 2
