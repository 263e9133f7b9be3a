"""Tests for the migration-decision algorithm (Alg. 2) and its guarantees."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.decision import (
    MigrationController,
    amortized_cost_bound,
    competitive_ratio_bound,
)
from repro.core.mapping import Mapping, optimal_mapping


class TestBounds:
    def test_published_constants(self):
        assert competitive_ratio_bound(1.0) == pytest.approx(1.25)
        assert amortized_cost_bound(1.0) == pytest.approx(8.0)

    def test_epsilon_tradeoff_monotonicity(self):
        ratios = [competitive_ratio_bound(eps) for eps in (0.1, 0.5, 1.0)]
        costs = [amortized_cost_bound(eps) for eps in (0.1, 0.5, 1.0)]
        assert ratios == sorted(ratios)           # smaller ε -> better ratio
        assert costs == sorted(costs, reverse=True)  # smaller ε -> more traffic

    def test_invalid_epsilon(self):
        for bad in (0.0, -1.0, 1.5):
            with pytest.raises(ValueError):
                competitive_ratio_bound(bad)
            with pytest.raises(ValueError):
                amortized_cost_bound(bad)
        with pytest.raises(ValueError):
            MigrationController(machines=16, epsilon=0.0)


class TestThreshold:
    def test_no_decision_before_warmup(self):
        controller = MigrationController(machines=16, warmup_tuples=100)
        controller.observe(True, 16)
        assert controller.check(Mapping(4, 4)) is None

    def test_decision_when_delta_reaches_committed(self):
        controller = MigrationController(machines=16)
        # establish committed state
        controller.observe(True, 100)
        controller.observe(False, 100)
        first = controller.check(Mapping(4, 4))
        assert first is not None
        # deltas reset
        assert controller.delta_r == 0 and controller.delta_s == 0
        # less than |S| new tuples -> no new decision
        controller.observe(False, 50)
        assert controller.check(Mapping(4, 4)) is None
        # reaching |S| triggers it
        controller.observe(False, 50)
        assert controller.check(Mapping(4, 4)) is not None

    def test_epsilon_lowers_the_threshold(self):
        eager = MigrationController(machines=16, epsilon=0.25)
        eager.observe(True, 100)
        eager.observe(False, 100)
        eager.check(Mapping(4, 4))
        eager.observe(False, 30)     # 30 >= 0.25 * 100
        assert eager.check(Mapping(4, 4)) is not None

    def test_migrate_flag_only_when_mapping_changes(self):
        controller = MigrationController(machines=16)
        controller.observe(True, 500)
        controller.observe(False, 500)
        decision = controller.check(Mapping(4, 4))
        assert decision is not None and not decision.migrate   # (4,4) is optimal
        controller.observe(False, 4000)
        decision = controller.check(Mapping(4, 4))
        assert decision is not None and decision.migrate
        assert decision.new_mapping == optimal_mapping(16, 500, 4500)
        assert controller.migrations_triggered == 1


class TestScaledObservation:
    """Algorithm 1: a reshuffler sees a 1/J random sample of the input and
    scales every arrival by J, so its controller estimates global totals."""

    def test_scaled_increments_estimate_totals(self):
        controller = MigrationController(machines=16)
        for _ in range(10):
            controller.observe(True, 16)
        for _ in range(40):
            controller.observe(False, 16)
        assert controller.total_r == 160
        assert controller.total_s == 640
        assert controller.total == 800

    def test_exact_mode_counts_one_per_tuple(self):
        controller = MigrationController(machines=16)
        controller.observe(True)
        controller.observe(False)
        controller.observe(False)
        assert (controller.total_r, controller.total_s) == (1, 2)

    def test_scaled_estimate_is_close_for_random_routing(self):
        """Every one of J controllers fed a random 1/J share of the input,
        scaled by J, estimates both cardinalities within a few percent."""
        rng = random.Random(0)
        machines = 16
        controllers = [MigrationController(machines=machines) for _ in range(machines)]
        total_r, total_s = 8000, 24000
        for is_left, total in ((True, total_r), (False, total_s)):
            for _ in range(total):
                controllers[rng.randrange(machines)].observe(is_left, machines)
        for controller in controllers:
            assert controller.total_r == pytest.approx(total_r, rel=0.15)
            assert controller.total_s == pytest.approx(total_s, rel=0.15)

    def test_check_commits_the_totals(self):
        """A decision moves the deltas into the committed counts without
        changing the estimated totals."""
        controller = MigrationController(machines=16)
        controller.observe(True, 48)
        controller.observe(False, 80)
        decision = controller.check(Mapping(4, 4))
        assert (decision.committed_r, decision.committed_s) == (48, 80)
        assert (controller.total_r, controller.total_s) == (48, 80)
        assert (controller.delta_r, controller.delta_s) == (0, 0)
        assert controller.decisions == 1


class TestCompetitiveRatioInvariant:
    @given(
        st.sampled_from([4, 16, 64]),
        st.lists(st.tuples(st.booleans(), st.integers(1, 400)), min_size=1, max_size=200),
    )
    @settings(max_examples=120, deadline=None)
    def test_ilf_stays_within_bound_when_checked_every_tuple(self, machines, arrivals):
        """Algorithm 2 invariant (Lemma 4.3): if the controller is consulted on
        every arrival, the ILF of the mapping it maintains never exceeds
        1.25 × ILF* (checked whenever both relations are non-empty and their
        ratio is within a factor J)."""
        controller = MigrationController(machines=machines, warmup_tuples=0)
        mapping = optimal_mapping(machines, 1, 1)
        bound = competitive_ratio_bound(1.0)
        for is_left, count in arrivals:
            for _ in range(count):
                controller.observe(is_left, 1)
                decision = controller.check(mapping)
                if decision is not None and decision.migrate:
                    mapping = decision.new_mapping
                total_r, total_s = controller.total_r, controller.total_s
                if total_r == 0 or total_s == 0:
                    continue
                ratio = total_r / total_s
                if not (1.0 / machines <= ratio <= machines):
                    continue
                assert controller.competitive_ratio(mapping) <= bound + 1e-9

    def test_ratio_helpers(self):
        controller = MigrationController(machines=16)
        controller.observe(True, 100)
        controller.observe(False, 100)
        assert controller.current_ilf(Mapping(4, 4)) == pytest.approx(50.0)
        assert controller.optimal_ilf() == pytest.approx(50.0)
        assert controller.competitive_ratio(Mapping(4, 4)) == pytest.approx(1.0)
        assert controller.competitive_ratio(Mapping(1, 16)) > 1.0


class TestLemma42:
    @given(st.integers(1, 2000), st.integers(1, 2000))
    @settings(max_examples=200)
    def test_optimum_moves_at_most_one_step_per_doubling(self, r_count, s_count):
        """Lemma 4.2: after receiving at most |R| new R tuples and |S| new S
        tuples, the optimal mapping is the old one or one dyadic step away."""
        machines = 64
        ratio = r_count / s_count
        if not (1.0 / machines <= ratio <= machines):
            return
        old = optimal_mapping(machines, r_count, s_count)
        for delta_r in (0, r_count):
            for delta_s in (0, s_count):
                new = optimal_mapping(machines, r_count + delta_r, s_count + delta_s)
                allowed = {old} | set(old.neighbours())
                assert new in allowed
