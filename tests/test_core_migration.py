"""Tests for interval arithmetic and the locality-aware migration planner."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mapping import GridPlacement, Mapping, power_of_two_mappings
from repro.core.migration import (
    assignments_for,
    interval_difference,
    interval_intersection,
    interval_length,
    plan_migration,
    plan_naive_migration,
    point_in,
    subtract_many,
)


class TestIntervalArithmetic:
    def test_intersection(self):
        assert interval_intersection((0.0, 0.5), (0.25, 1.0)) == (0.25, 0.5)
        assert interval_intersection((0.0, 0.5), (0.5, 1.0)) is None

    def test_difference(self):
        assert interval_difference((0.0, 1.0), (0.25, 0.5)) == [(0.0, 0.25), (0.5, 1.0)]
        assert interval_difference((0.0, 1.0), (0.0, 1.0)) == []
        assert interval_difference((0.0, 0.5), (0.5, 1.0)) == [(0.0, 0.5)]

    def test_subtract_many_and_length(self):
        remaining = subtract_many((0.0, 1.0), [(0.0, 0.25), (0.5, 0.75)])
        assert remaining == [(0.25, 0.5), (0.75, 1.0)]
        assert interval_length(remaining) == pytest.approx(0.5)

    def test_point_in(self):
        assert point_in(0.0, (0.0, 0.5))
        assert not point_in(0.5, (0.0, 0.5))


def _coverage_is_exact(plan):
    """Every receiver's needed state is covered exactly once by keep + transfers."""
    for machine_id, new_assignment in plan.new_assignments.items():
        old_assignment = plan.old_assignments.get(machine_id)
        for side in ("R", "S"):
            needed = new_assignment.interval(side)
            pieces = []
            if old_assignment is not None:
                overlap = interval_intersection(old_assignment.interval(side), needed)
                if overlap:
                    pieces.append(overlap)
            pieces.extend(
                t.interval for t in plan.transfers if t.receiver == machine_id and t.side == side
            )
            total = interval_length(pieces)
            if abs(total - interval_length([needed])) > 1e-9:
                return False
            # no overlaps among pieces
            pieces.sort()
            for (a_low, a_high), (b_low, b_high) in zip(pieces, pieces[1:]):
                if b_low < a_high - 1e-12:
                    return False
    return True


class TestLocalityAwarePlan:
    def test_one_step_migration_matches_lemma_4_4(self):
        """(n, m) -> (n/2, 2m): S is a pure discard, R moves exactly |R|/n per
        machine, and the exchange happens between pairs sharing the old column."""
        old = GridPlacement(mapping=Mapping(8, 2))
        new = GridPlacement(mapping=Mapping(4, 4))
        plan = plan_migration(old, new)
        assert _coverage_is_exact(plan)
        assert all(t.side == "R" for t in plan.transfers)
        # every machine fetches exactly one interval of length 1/8 = |R|/n
        for machine_id in range(16):
            incoming = [t for t in plan.transfers if t.receiver == machine_id]
            assert len(incoming) == 1
            low, high = incoming[0].interval
            assert high - low == pytest.approx(1.0 / 8.0)
            # pairwise exchange: the sender also receives from this machine
            sender = incoming[0].sender
            assert any(t.receiver == sender and t.sender == machine_id for t in plan.transfers)
        # total migrated volume = |R| (each machine ships |R|/n, J machines, n rows)
        volume = plan.expected_transfer_volume(r_count=800, s_count=1600)
        assert volume == pytest.approx(16 * 800 / 8)

    def test_symmetric_direction_moves_s(self):
        old = GridPlacement(mapping=Mapping(4, 4))
        new = GridPlacement(mapping=Mapping(8, 2))
        plan = plan_migration(old, new)
        assert _coverage_is_exact(plan)
        assert all(t.side == "S" for t in plan.transfers)

    def test_multi_step_jump_is_still_exactly_covered(self):
        old = GridPlacement(mapping=Mapping(8, 8))
        new = GridPlacement(mapping=Mapping(1, 64))
        plan = plan_migration(old, new)
        assert _coverage_is_exact(plan)

    @given(st.sampled_from([4, 16, 64]), st.data())
    @settings(max_examples=60, deadline=None)
    def test_any_mapping_transition_covers_state_exactly_once(self, machines, data):
        mappings = power_of_two_mappings(machines)
        old_mapping = data.draw(st.sampled_from(mappings))
        new_mapping = data.draw(st.sampled_from(mappings))
        plan = plan_migration(
            GridPlacement(mapping=old_mapping), GridPlacement(mapping=new_mapping)
        )
        assert _coverage_is_exact(plan)

    @pytest.mark.parametrize(
        "old, new",
        [
            ((2, 2), (1, 4)),
            ((16, 1), (8, 2)),
            ((8, 8), (4, 16)),
            ((1, 4), (2, 2)),
            ((4, 16), (8, 8)),
        ],
        ids=lambda shape: f"{shape[0]}x{shape[1]}",
    )
    def test_one_step_is_a_pairwise_exchange_at_any_scale(self, old, new):
        """Lemma 4.4 in both directions at J = 4, 16 and 64: every machine
        fetches one interval of the side whose share grows, of length 1/n (R)
        or 1/m (S), from the one machine it sends its own interval to."""
        old_mapping, new_mapping = Mapping(*old), Mapping(*new)
        plan = plan_migration(
            GridPlacement(mapping=old_mapping), GridPlacement(mapping=new_mapping)
        )
        assert _coverage_is_exact(plan)
        if new_mapping.n < old_mapping.n:
            side, parts = "R", old_mapping.n
        else:
            side, parts = "S", old_mapping.m
        assert {t.side for t in plan.transfers} == {side}
        for machine_id in range(old_mapping.machines):
            incoming = [t for t in plan.transfers if t.receiver == machine_id]
            assert len(incoming) == 1
            low, high = incoming[0].interval
            assert high - low == pytest.approx(1.0 / parts)
            assert plan.receivers_from(machine_id) == {incoming[0].sender}
        count = 800 if side == "R" else 1600
        volume = plan.expected_transfer_volume(r_count=800, s_count=1600)
        assert volume == pytest.approx(old_mapping.machines * count / parts)

    def test_custom_machine_ids_stay_within_the_placement(self):
        ids = tuple(range(100, 116))
        old = GridPlacement(mapping=Mapping(8, 2), machine_ids=ids)
        new = GridPlacement(mapping=Mapping(2, 8), machine_ids=ids)
        plan = plan_migration(old, new)
        assert _coverage_is_exact(plan)
        assert set(plan.old_assignments) == set(plan.new_assignments) == set(ids)
        assert {t.sender for t in plan.transfers} | {t.receiver for t in plan.transfers} <= set(ids)
        for machine_id in ids:
            for sender in plan.senders_to(machine_id):
                assert machine_id in plan.receivers_from(sender)

    def test_no_op_migration_has_no_transfers(self):
        placement = GridPlacement(mapping=Mapping(4, 4))
        plan = plan_migration(placement, placement)
        assert plan.transfers == []

    def test_per_tuple_helpers(self):
        old = GridPlacement(mapping=Mapping(8, 2))
        new = GridPlacement(mapping=Mapping(4, 4))
        plan = plan_migration(old, new)
        machine = 0
        r_interval_new = new.r_interval(machine)
        inside = (r_interval_new[0] + r_interval_new[1]) / 2
        assert plan.keeps(machine, "R", inside)
        # a salt outside the new S interval must not be kept
        s_new = new.s_interval(machine)
        outside = (s_new[1] + 1.0) / 2 if s_new[1] < 1.0 else s_new[0] - 1e-6
        assert not plan.keeps(machine, "S", outside)
        senders = plan.senders_to(machine)
        assert senders and all(isinstance(s, int) for s in senders)
        for sender in senders:
            assert machine in plan.receivers_from(sender)

    def test_destinations_for_covers_transfer_salts(self):
        old = GridPlacement(mapping=Mapping(8, 2))
        new = GridPlacement(mapping=Mapping(4, 4))
        plan = plan_migration(old, new)
        transfer = plan.transfers[0]
        salt = (transfer.interval[0] + transfer.interval[1]) / 2
        assert transfer.receiver in plan.destinations_for(transfer.sender, "R", salt)


class TestNaivePlan:
    def test_naive_plan_is_correct_but_moves_more(self):
        old = GridPlacement(mapping=Mapping(8, 2))
        new = GridPlacement(mapping=Mapping(4, 4))
        smart = plan_migration(old, new)
        naive = plan_naive_migration(old, new)
        assert _coverage_is_exact(naive)
        smart_volume = smart.expected_transfer_volume(800, 1600)
        naive_volume = naive.expected_transfer_volume(800, 1600)
        assert naive_volume > smart_volume

    def test_assignments_for(self):
        placement = GridPlacement(mapping=Mapping(2, 2))
        assignments = assignments_for(placement)
        assert set(assignments) == {0, 1, 2, 3}
        assert assignments[0].interval("R") == placement.r_interval(0)
        with pytest.raises(ValueError):
            assignments[0].interval("X")
