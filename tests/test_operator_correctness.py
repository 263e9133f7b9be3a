"""End-to-end correctness of every operator inside the simulated cluster.

Definition 4.4: regardless of operator, partitioning, skew, arrival order and
migrations, the produced output must be exactly the join of the two input
streams — complete and without duplicates.
"""

import random

import pytest

from repro.api import RunConfig, build_operator
from repro.core.baselines import (
    StaticMidOperator,
    StaticOptOperator,
    SymmetricHashOperator,
)
from repro.core.operator import AdaptiveJoinOperator
from repro.data.queries import make_query
from repro.data.tpch import generate_dataset
from repro.engine.stream import fluctuating_order, interleave_streams, make_tuples
from repro.testing import reference_join


def _reference_count(query):
    return len(reference_join(query.left_records, query.right_records, query.predicate))


def _assert_correct(result, query):
    assert result.output_count == _reference_count(query)
    assert result.outputs is not None
    assert len(result.outputs) == len(set(result.outputs)), "duplicate outputs"


class TestOperatorOutputs:
    @pytest.mark.parametrize("operator_kind", ["Dynamic", "StaticMid", "StaticOpt", "SHJ"])
    def test_equi_join_under_skew(self, skewed_dataset, operator_kind):
        query = make_query("EQ5", skewed_dataset)
        operator = build_operator(operator_kind, query, RunConfig(machines=8, seed=3))
        result = operator.run(collect_outputs=True)
        _assert_correct(result, query)

    @pytest.mark.parametrize("operator_kind", ["Dynamic", "StaticMid", "StaticOpt"])
    def test_band_join(self, small_dataset, operator_kind):
        query = make_query("BNCI", small_dataset)
        operator = build_operator(operator_kind, query, RunConfig(machines=8, seed=3))
        result = operator.run(collect_outputs=True)
        _assert_correct(result, query)

    def test_theta_join(self, small_dataset):
        query = make_query("THETA_NEQ", small_dataset)
        operator = AdaptiveJoinOperator(query, config=RunConfig(machines=4, seed=1))
        result = operator.run(collect_outputs=True)
        _assert_correct(result, query)

    def test_shj_rejects_non_equi(self, small_dataset):
        query = make_query("BNCI", small_dataset)
        with pytest.raises(ValueError):
            SymmetricHashOperator(query, config=RunConfig(machines=8))

    def test_non_power_of_two_machines_rejected(self, eq5_query):
        with pytest.raises(ValueError):
            AdaptiveJoinOperator(eq5_query, config=RunConfig(machines=12))

    @pytest.mark.parametrize("pattern", ["uniform", "r_first", "s_first", "alternate"])
    def test_arrival_order_does_not_affect_output(self, small_dataset, pattern):
        query = make_query("EQ7", small_dataset)
        config = RunConfig(machines=8, seed=5, warmup_tuples=16, arrival_pattern=pattern)
        result = AdaptiveJoinOperator(query, config=config).run(collect_outputs=True)
        _assert_correct(result, query)

    def test_correct_under_fluctuating_arrivals_with_migrations(self, small_dataset):
        query = make_query("FLUCT_SYM", small_dataset)
        rng = random.Random(9)
        left = make_tuples(query.left_relation, query.left_records, rng)
        right = make_tuples(query.right_relation, query.right_records, rng)
        order = fluctuating_order(left, right, fluctuation_factor=4, warmup=32)
        operator = AdaptiveJoinOperator(query, config=RunConfig(machines=8, seed=9, warmup_tuples=32))
        result = operator.run(arrival_order=order, collect_outputs=True)
        _assert_correct(result, query)

    def test_blocking_actuation_is_also_correct(self, small_dataset):
        query = make_query("EQ5", small_dataset)
        operator = AdaptiveJoinOperator(query, config=RunConfig(
            machines=8, seed=2, blocking=True, batching="per_tuple", warmup_tuples=16
        ))
        result = operator.run(collect_outputs=True)
        _assert_correct(result, query)

    def test_row_major_layout_is_also_correct(self, small_dataset):
        query = make_query("EQ5", small_dataset)
        operator = AdaptiveJoinOperator(query, config=RunConfig(machines=8, seed=2, layout="row_major", warmup_tuples=16))
        result = operator.run(collect_outputs=True)
        _assert_correct(result, query)

    def test_correct_with_memory_pressure_and_spills(self, skewed_dataset):
        query = make_query("EQ5", skewed_dataset)
        operator = AdaptiveJoinOperator(query, config=RunConfig(machines=8, seed=2, memory_capacity=20.0))
        result = operator.run(collect_outputs=True)
        _assert_correct(result, query)
        assert result.spilled

    def test_unbounded_memory_never_spills(self, skewed_dataset):
        query = make_query("EQ5", skewed_dataset)
        operator = AdaptiveJoinOperator(query, config=RunConfig(machines=8, seed=2))
        assert not operator.run().spilled

    def test_spill_penalty_slows_the_run_but_keeps_its_outputs(self, skewed_dataset):
        """Spilled state costs time (the BerkeleyDB slowdown of §5), never
        results."""
        query = make_query("EQ5", skewed_dataset)
        rng = random.Random(2)
        order = interleave_streams(
            make_tuples(query.left_relation, query.left_records, rng),
            make_tuples(query.right_relation, query.right_records, rng),
            rng,
        )
        runs = {
            capacity: AdaptiveJoinOperator(
                query, config=RunConfig(machines=8, seed=2, memory_capacity=capacity)
            ).run(arrival_order=order, collect_outputs=True)
            for capacity in (None, 20.0)
        }
        assert runs[20.0].spilled and not runs[None].spilled
        assert sorted(runs[20.0].outputs) == sorted(runs[None].outputs)
        assert runs[20.0].execution_time > runs[None].execution_time

    def test_epsilon_variants_are_correct(self, small_dataset):
        query = make_query("EQ7", small_dataset)
        for epsilon in (0.25, 0.5, 1.0):
            operator = AdaptiveJoinOperator(query, config=RunConfig(machines=8, seed=4, epsilon=epsilon, warmup_tuples=16))
            result = operator.run(collect_outputs=True)
            _assert_correct(result, query)

    def test_determinism_same_seed_same_result(self, small_dataset):
        query = make_query("EQ5", small_dataset)
        results = [
            AdaptiveJoinOperator(query, config=RunConfig(machines=8, seed=13)).run(collect_outputs=True) for _ in range(2)
        ]
        assert results[0].output_count == results[1].output_count
        assert results[0].execution_time == pytest.approx(results[1].execution_time)
        assert results[0].migrations == results[1].migrations


class TestRunResultContents:
    def test_result_fields_are_populated(self, eq5_query):
        result = AdaptiveJoinOperator(eq5_query, config=RunConfig(machines=8, seed=1)).run()
        assert result.operator == "Dynamic"
        assert result.query == "EQ5"
        assert result.machines == 8
        assert result.execution_time > 0
        assert result.throughput > 0
        assert result.max_ilf > 0
        assert result.total_storage > 0
        assert result.final_mapping.machines == 8
        assert 0 < result.progress_series[-1][0] <= 1.0
        row = result.summary_row()
        assert row["operator"] == "Dynamic" and row["machines"] == 8

    def test_static_operators_never_migrate(self, eq5_query):
        for cls in (StaticMidOperator, StaticOptOperator):
            result = cls(eq5_query, config=RunConfig(machines=8, seed=1)).run()
            assert result.migrations == 0
            assert result.migration_volume == 0.0
