"""Behavioural tests of the adaptive operator: skew resilience, adaptation,
competitive ratio, migration costs and the performance shapes of §5."""

import random
from collections import defaultdict

import pytest

from repro.api import RunConfig
from repro.core.baselines import StaticMidOperator, StaticOptOperator, SymmetricHashOperator
from repro.core.decision import competitive_ratio_bound
from repro.core.mapping import Mapping
from repro.core.operator import AdaptiveJoinOperator, theoretical_optimal_mapping
from repro.data.queries import make_query
from repro.data.tpch import generate_dataset
from repro.engine.stream import fluctuating_order, make_tuples
from repro.engine.task import Context, MessageKind


@pytest.fixture(scope="module")
def midsize_dataset():
    return generate_dataset(scale=0.4, skew="Z4", seed=21)


class TestAdaptation:
    def test_dynamic_converges_to_the_optimal_mapping(self, midsize_dataset):
        query = make_query("EQ5", midsize_dataset)
        result = AdaptiveJoinOperator(query, config=RunConfig(machines=16, seed=2)).run()
        assert result.migrations >= 1
        assert result.final_mapping == theoretical_optimal_mapping(query, 16)

    def test_static_mid_keeps_square_mapping(self, midsize_dataset):
        query = make_query("EQ5", midsize_dataset)
        result = StaticMidOperator(query, config=RunConfig(machines=16, seed=2)).run()
        assert result.final_mapping == Mapping(4, 4)

    def test_dynamic_ilf_close_to_static_opt_and_below_static_mid(self, midsize_dataset):
        query = make_query("EQ5", midsize_dataset)
        dynamic = AdaptiveJoinOperator(query, config=RunConfig(machines=16, seed=2)).run()
        static_mid = StaticMidOperator(query, config=RunConfig(machines=16, seed=2)).run()
        static_opt = StaticOptOperator(query, config=RunConfig(machines=16, seed=2)).run()
        assert dynamic.max_ilf < static_mid.max_ilf
        assert dynamic.max_ilf < 2.5 * static_opt.max_ilf
        assert dynamic.total_storage < static_mid.total_storage

    def test_dynamic_execution_time_between_opt_and_mid(self, midsize_dataset):
        query = make_query("EQ5", midsize_dataset)
        dynamic = AdaptiveJoinOperator(query, config=RunConfig(machines=16, seed=2)).run()
        static_mid = StaticMidOperator(query, config=RunConfig(machines=16, seed=2)).run()
        static_opt = StaticOptOperator(query, config=RunConfig(machines=16, seed=2)).run()
        assert static_opt.execution_time <= dynamic.execution_time <= static_mid.execution_time
        # the paper reports up to ~4x gap between Dynamic and StaticMid
        assert static_mid.execution_time / dynamic.execution_time > 1.2

    def test_migration_volume_is_small_relative_to_routing(self, midsize_dataset):
        """Amortised adaptivity cost: state relocation traffic is a small
        fraction of the regular routing traffic (Lemma 4.5)."""
        query = make_query("EQ5", midsize_dataset)
        result = AdaptiveJoinOperator(query, config=RunConfig(machines=16, seed=2)).run()
        assert result.migration_volume < result.routing_volume

    def test_locality_aware_migration_moves_less_than_naive(self, midsize_dataset):
        query = make_query("EQ5", midsize_dataset)
        smart = AdaptiveJoinOperator(query, config=RunConfig(machines=16, seed=2, layout="dyadic")).run()
        naive = AdaptiveJoinOperator(query, config=RunConfig(machines=16, seed=2, layout="row_major")).run()
        if smart.migrations and naive.migrations:
            assert smart.migration_volume <= naive.migration_volume


class TestControlFanOut:
    def test_a_mapping_change_sends_one_message_object_per_sender(
        self, monkeypatch, midsize_dataset
    ):
        """The controller sends one MAPPING_CHANGE object to every
        reshuffler, and each reshuffler one EPOCH_SIGNAL object to every
        joiner, not one message (and meta dict) per destination."""
        sent = defaultdict(list)
        send = Context.send

        def recording_send(ctx, destination, message, *args, **kwargs):
            if message.kind in (MessageKind.MAPPING_CHANGE, MessageKind.EPOCH_SIGNAL):
                sent[message.kind, message.sender, message.meta["epoch"]].append(message)
            send(ctx, destination, message, *args, **kwargs)

        monkeypatch.setattr(Context, "send", recording_send)
        query = make_query("EQ5", midsize_dataset)
        result = AdaptiveJoinOperator(query, config=RunConfig(machines=16, seed=2)).run()
        assert result.migrations >= 1
        kinds = {kind for kind, _sender, _epoch in sent}
        assert kinds == {MessageKind.MAPPING_CHANGE, MessageKind.EPOCH_SIGNAL}
        for messages in sent.values():
            assert len(messages) == 16 and all(m is messages[0] for m in messages)


class TestSkewResilience:
    def test_shj_degrades_under_skew_dynamic_does_not(self):
        """Table 2's shape: as skew grows, SHJ's imbalance (max ILF) explodes
        while Dynamic's stays flat."""
        def run(skew, operator_class):
            dataset = generate_dataset(scale=0.4, skew=skew, seed=5)
            query = make_query("EQ5", dataset)
            return operator_class(query, config=RunConfig(machines=16, seed=5)).run()

        shj_uniform = run("Z0", SymmetricHashOperator)
        shj_skewed = run("Z4", SymmetricHashOperator)
        dyn_uniform = run("Z0", AdaptiveJoinOperator)
        dyn_skewed = run("Z4", AdaptiveJoinOperator)

        assert shj_skewed.max_ilf > 2.0 * shj_uniform.max_ilf
        assert dyn_skewed.max_ilf < 1.5 * dyn_uniform.max_ilf
        assert shj_skewed.execution_time > dyn_skewed.execution_time

    def test_shj_wins_without_skew(self):
        """Without skew SHJ avoids replication and beats the grid operator —
        the trade-off the paper acknowledges in §5.1."""
        dataset = generate_dataset(scale=0.4, skew="Z0", seed=5)
        query = make_query("EQ5", dataset)
        shj = SymmetricHashOperator(query, config=RunConfig(machines=16, seed=5)).run()
        dynamic = AdaptiveJoinOperator(query, config=RunConfig(machines=16, seed=5)).run()
        assert shj.total_storage <= dynamic.total_storage


class TestCompetitiveRatio:
    def test_ratio_stays_bounded_under_fluctuations(self):
        dataset = generate_dataset(scale=0.4, skew="Z0", seed=17)
        query = make_query("FLUCT_SYM", dataset)
        rng = random.Random(17)
        left = make_tuples(query.left_relation, query.left_records, rng)
        right = make_tuples(query.right_relation, query.right_records, rng)
        warmup = 64
        order = fluctuating_order(left, right, fluctuation_factor=4, warmup=warmup)
        operator = AdaptiveJoinOperator(
            query, config=RunConfig(machines=16, seed=17, warmup_tuples=float(warmup))
        )
        result = operator.run(arrival_order=order)
        post_init = [ratio for processed, ratio in result.ratio_series if processed > 4 * warmup]
        assert post_init, "expected ratio samples after adaptivity initiation"
        bound = competitive_ratio_bound(1.0)
        # Allow slack for the sampled (1/J-scaled) statistics and the short
        # propagation window right after each decision (Theorem 4.6 assumes the
        # blocking-free migration finishes before Δ reaches the committed
        # cardinalities, which the simulator approximates but does not enforce).
        assert max(post_init) <= 2.0 * bound
        # and the ratio is within the theoretical bound most of the time
        within = sum(1 for ratio in post_init if ratio <= bound + 0.05)
        assert within / len(post_init) > 0.55

    def test_blocking_actuation_is_not_faster(self, midsize_dataset):
        query = make_query("EQ5", midsize_dataset)
        non_blocking = AdaptiveJoinOperator(query, config=RunConfig(machines=16, seed=2)).run()
        blocking = AdaptiveJoinOperator(query, config=RunConfig(machines=16, seed=2, blocking=True, batching="per_tuple")).run()
        assert non_blocking.execution_time <= blocking.execution_time * 1.1
