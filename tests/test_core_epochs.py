"""Unit tests for the eventually-consistent epoch protocol (Algorithm 3).

These tests drive :class:`EpochJoinerState` machines directly (no simulator)
through controlled migration scenarios and verify Definition 4.4: after the
migration completes, the union of all joiners' outputs is exactly the join of
everything received, with no duplicates, and every joiner's state is
consistent with the new mapping.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.epochs import EpochJoinerState, JoinerPhase, ProtocolError
from repro.core.mapping import GridPlacement, Mapping
from repro.core.migration import plan_migration
from repro.engine.stream import StreamTuple
from repro.joins.local import make_local_joiner
from repro.joins.predicates import BandPredicate, EquiPredicate
from repro.testing import reference_probe


def _make_cluster(mapping: Mapping, num_reshufflers: int | None = None):
    placement = GridPlacement(mapping=mapping)
    joiners = {}
    for machine_id in range(mapping.machines):
        store = make_local_joiner(EquiPredicate("k", "k"), "R", "S")
        joiners[machine_id] = EpochJoinerState(
            machine_id=machine_id,
            store=store,
            num_reshufflers=num_reshufflers or mapping.machines,
            left_relation="R",
        )
    return placement, joiners


def _route(placement: GridPlacement, item: StreamTuple):
    if item.relation == "R":
        row = item.partition(placement.mapping.n)
        return placement.machines_for_row(row)
    col = item.partition(placement.mapping.m)
    return placement.machines_for_col(col)


def _deliver_data(joiners, outputs, destinations, item):
    for machine_id in destinations:
        actions = joiners[machine_id].handle_data(item)
        outputs.extend((l.tuple_id, r.tuple_id) for l, r in actions.matches)
        _forward_migrations(joiners, outputs, actions.migrate_to)


def _forward_migrations(joiners, outputs, migrations):
    for destination, migrated in migrations:
        actions = joiners[destination].handle_migrated(migrated)
        outputs.extend((l.tuple_id, r.tuple_id) for l, r in actions.matches)


def _make_tuples(rng, relation, count, distinct_keys=6):
    return [
        StreamTuple(relation=relation, record={"k": rng.randrange(distinct_keys)}, salt=rng.random())
        for _ in range(count)
    ]


def _expected_pairs(r_tuples, s_tuples):
    return {
        (r.tuple_id, s.tuple_id)
        for r in r_tuples
        for s in s_tuples
        if r.record["k"] == s.record["k"]
    }


class TestNormalOperation:
    def test_joins_without_any_migration(self):
        rng = random.Random(0)
        mapping = Mapping(2, 2)
        placement, joiners = _make_cluster(mapping)
        r_tuples = _make_tuples(rng, "R", 30)
        s_tuples = _make_tuples(rng, "S", 30)
        outputs = []
        order = r_tuples + s_tuples
        rng.shuffle(order)
        for item in order:
            _deliver_data(joiners, outputs, _route(placement, item), item)
        assert set(outputs) == _expected_pairs(r_tuples, s_tuples)
        assert len(outputs) == len(set(outputs))

    def test_stale_epoch_tuple_raises(self):
        mapping = Mapping(2, 2)
        _, joiners = _make_cluster(mapping)
        stale = StreamTuple(relation="R", record={"k": 1}, salt=0.3, epoch=-1)
        with pytest.raises(ProtocolError):
            joiners[0].handle_data(stale)


class TestMigrationScenario:
    def _run_with_migration(self, seed, old_mapping, new_mapping, pre=40, during=40, post=40):
        """Full scenario: tuples before, during and after a migration."""
        rng = random.Random(seed)
        old_placement = GridPlacement(mapping=old_mapping)
        new_placement = GridPlacement(mapping=new_mapping)
        plan = plan_migration(old_placement, new_placement)
        placement, joiners = _make_cluster(old_mapping)
        num_reshufflers = old_mapping.machines
        outputs = []
        all_r, all_s = [], []

        def data(relation, count, placement_used, epoch):
            tuples = _make_tuples(rng, relation, count)
            for item in tuples:
                item.epoch = epoch
                (all_r if relation == "R" else all_s).append(item)
                _deliver_data(joiners, outputs, _route(placement_used, item), item)
            return tuples

        # Phase 1: normal operation under the old mapping (τ).
        data("R", pre, old_placement, epoch=0)
        data("S", pre, old_placement, epoch=0)

        # Phase 2: the migration starts.  Reshufflers signal one at a time;
        # in between, joiners receive a mix of old-epoch (Δ) and new-epoch
        # (Δ') tuples, the latter routed by the new mapping.
        reshufflers = [f"reshuffler-{i}" for i in range(num_reshufflers)]
        for index, reshuffler in enumerate(reshufflers):
            for machine_id, joiner in joiners.items():
                migrations, replayed = joiner.handle_signal(1, plan, reshuffler)
                _forward_migrations(joiners, outputs, migrations)
                for _item, actions in replayed:
                    outputs.extend((l.tuple_id, r.tuple_id) for l, r in actions.matches)
                    _forward_migrations(joiners, outputs, actions.migrate_to)
            # interleave data between signals: reshufflers that signalled route
            # with the new epoch/mapping, the rest still use the old one.
            signalled_fraction = (index + 1) / num_reshufflers
            if during:
                chunk = max(1, during // num_reshufflers)
                if signalled_fraction < 1.0:
                    data("R", chunk, old_placement, epoch=0)
                    data("S", chunk, old_placement, epoch=0)
                data("R", chunk, new_placement, epoch=1)
                data("S", chunk, new_placement, epoch=1)

        # Phase 3: migration ends — every expected sender flags completion.
        for machine_id, joiner in joiners.items():
            for sender in plan.senders_to(machine_id):
                joiner.register_migration_end(sender)
            if joiner.migration_in_progress():
                assert joiner.can_finalize()
                joiner.finalize()
            assert joiner.phase is JoinerPhase.NORMAL
            assert joiner.current_epoch == 1

        # Phase 4: normal operation under the new mapping.
        data("R", post, new_placement, epoch=1)
        data("S", post, new_placement, epoch=1)

        return all_r, all_s, outputs, joiners, new_placement

    @pytest.mark.parametrize(
        "old_mapping,new_mapping",
        [
            (Mapping(4, 1), Mapping(2, 2)),
            (Mapping(2, 2), Mapping(4, 1)),
            (Mapping(2, 2), Mapping(1, 4)),
            (Mapping(4, 2), Mapping(2, 4)),
            (Mapping(8, 1), Mapping(2, 4)),  # multi-step jump
        ],
    )
    def test_output_is_correct_and_complete(self, old_mapping, new_mapping):
        all_r, all_s, outputs, _, _ = self._run_with_migration(7, old_mapping, new_mapping)
        assert set(outputs) == _expected_pairs(all_r, all_s)
        assert len(outputs) == len(set(outputs)), "duplicate join results emitted"

    def test_state_is_consistent_with_new_mapping_after_finalize(self):
        _, _, _, joiners, new_placement = self._run_with_migration(
            11, Mapping(4, 1), Mapping(2, 2), post=0
        )
        for machine_id, joiner in joiners.items():
            r_low, r_high = new_placement.r_interval(machine_id)
            s_low, s_high = new_placement.s_interval(machine_id)
            for item in joiner.store.stored("R"):
                assert r_low <= item.salt < r_high
            for item in joiner.store.stored("S"):
                assert s_low <= item.salt < s_high

    def test_finalize_before_completion_raises(self):
        mapping = Mapping(2, 2)
        placement, joiners = _make_cluster(mapping)
        new_placement = GridPlacement(mapping=Mapping(1, 4))
        plan = plan_migration(placement, new_placement)
        joiner = joiners[0]
        joiner.handle_signal(1, plan, "reshuffler-0")
        with pytest.raises(ProtocolError):
            joiner.finalize()

    def test_second_epoch_signal_for_other_epoch_raises(self):
        mapping = Mapping(2, 2)
        placement, joiners = _make_cluster(mapping)
        plan = plan_migration(placement, GridPlacement(mapping=Mapping(1, 4)))
        joiner = joiners[0]
        joiner.handle_signal(1, plan, "reshuffler-0")
        with pytest.raises(ProtocolError):
            joiner.handle_signal(2, plan, "reshuffler-1")

    def test_early_migration_tuples_are_buffered(self):
        """A µ tuple arriving before any signal must not be lost."""
        mapping = Mapping(2, 2)
        placement, joiners = _make_cluster(mapping, num_reshufflers=1)
        new_placement = GridPlacement(mapping=Mapping(1, 4))
        plan = plan_migration(placement, new_placement)
        joiner = joiners[0]
        early = StreamTuple(relation="R", record={"k": 1}, salt=0.1, epoch=0)
        actions = joiner.handle_migrated(early)
        assert not actions.stored            # buffered, not yet stored
        migrations, replayed = joiner.handle_signal(1, plan, "reshuffler-0")
        assert any(item.tuple_id == early.tuple_id for item, _ in replayed)
        assert joiner.stored_count() >= 1


# ---------------------------------------------------------------------------
# Δ' work: one union count, charged twice
# ---------------------------------------------------------------------------

_SPECS = st.lists(
    st.tuples(st.sampled_from("RS"), st.integers(0, 5), st.floats(0.0, 0.999)),
    max_size=14,
)
_PREDICATES = {
    "equi": EquiPredicate("k", "k"),
    "band": BandPredicate("k", "k", width=1),
}


#: Key spaces: ints, and thirds — inexact floats whose differences round
#: onto either side of the band edge.
_KEYS = {"int": lambda key: key, "thirds": lambda key: key / 3}


def _tagged(specs, epoch, keys):
    return [
        StreamTuple(
            relation=relation, record={"k": _KEYS[keys](key)}, salt=salt, epoch=epoch
        )
        for relation, key, salt in specs
    ]


def _migrating_joiner(kind, tau, delta, mu, delta_prime):
    """Machine 0 mid-migration (2,2) -> (4,1), one of two signals received,
    its four partitions filled from the given tuples."""
    plan = plan_migration(
        GridPlacement(mapping=Mapping(2, 2)), GridPlacement(mapping=Mapping(4, 1))
    )
    state = EpochJoinerState(
        machine_id=0,
        store=make_local_joiner(_PREDICATES[kind], "R", "S"),
        num_reshufflers=2,
        left_relation="R",
    )
    for item in tau:
        state.handle_data(item)
    state.handle_signal(1, plan, "reshuffler-0")
    for item in delta:
        state.handle_data(item)
    for item in mu:
        state.handle_migrated(item)
    for item in delta_prime:
        state.handle_data(item)
    assert state.phase is JoinerPhase.MIGRATING
    return state


def _two_probes(state, item):
    """Alg. 3's two Δ' probes as the protocol states them: µ ∪ Δ' with the
    other partitions' counts, then Keep(τ ∪ Δ) with the others' counts."""
    parts = state._parts
    keep, drop, new, mu = (parts[name] for name in ("old_keep", "old_drop", "new", "mu"))
    is_left, key = new.probe_plan(item)
    record = item.record
    new_matches, new_count = new.keyed_raw_probe(is_left, key, record)
    mu_matches, mu_count = mu.keyed_raw_probe(is_left, key, record)
    first = (
        keep.keyed_candidate_count(is_left, key)
        + drop.keyed_candidate_count(is_left, key)
        + new_count
        + mu_count
    )
    keep_matches, keep_count = keep.keyed_raw_probe(is_left, key, record)
    second = (
        keep_count
        + drop.keyed_candidate_count(is_left, key)
        + new.keyed_candidate_count(is_left, key)
        + mu.keyed_candidate_count(is_left, key)
    )
    partners = [t.tuple_id for t in (*new_matches, *mu_matches, *keep_matches)]
    return first, second, partners


def _partner_ids(matches):
    return [t.tuple_id for t in matches.partners] if matches else []


class TestDeltaPrimeUnionCount:
    @pytest.mark.parametrize("keys", sorted(_KEYS))
    @pytest.mark.parametrize("kind", sorted(_PREDICATES))
    @given(tau=_SPECS, delta=_SPECS, mu=_SPECS, delta_prime=_SPECS, batch=_SPECS)
    @settings(max_examples=40, deadline=None)
    def test_both_probes_count_the_union(
        self, kind, keys, tau, delta, mu, delta_prime, batch
    ):
        """Both Δ' probes inspect the same four partitions with nothing
        inserted in between, so they count the same union — the closed-form
        count of :func:`reference_probe` over everything stored: a member is
        charged twice that count (floored at one), its partners are Δ', µ,
        then Keep matches, and a whole batch equals the members one by one."""
        tau, delta, mu = (_tagged(specs, 0, keys) for specs in (tau, delta, mu))
        delta_prime, items = _tagged(delta_prime, 1, keys), _tagged(batch, 1, keys)
        one_by_one = _migrating_joiner(kind, tau, delta, mu, delta_prime)
        batched = _migrating_joiner(kind, tau, delta, mu, delta_prime)
        stored = [*tau, *delta, *mu, *delta_prime]
        expected = []
        for item in items:
            first, second, partners = _two_probes(one_by_one, item)
            assert first == second
            _, work = reference_probe(_PREDICATES[kind], stored, item, left_relation="R")
            assert max(first, 1) == work
            before = one_by_one.stored_count()
            ((matches, work),) = one_by_one.handle_data_batch([item])
            assert one_by_one.stored_count() == before + 1
            assert work == 2.0 * max(first, 1)
            assert _partner_ids(matches) == partners
            expected.append((work, partners))
            stored.append(item)
        if items:
            results = batched.handle_data_batch(items)
            assert [(work, _partner_ids(matches)) for matches, work in results] == expected
        assert batched.stored_count() == one_by_one.stored_count()
