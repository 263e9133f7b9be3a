"""Differential tests for the batch probe against the brute-force reference.

:func:`repro.testing.reference_probe` states what probing a tuple must
return: the stored opposite tuples satisfying ``predicate.matches``, and as
work the number of candidates its index inspects, floored at 1.
``LocalJoiner.probe_batch`` must produce, per member, exactly those matches
and that work across every predicate kind — including intra-batch self-join
pairs, for any batch partitioning — and the epoch state machine must charge
exactly the same probe work when probing tag-partitioned stores
mid-migration.
"""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.epochs import EpochJoinerState, JoinerPhase
from repro.core.mapping import GridPlacement, Mapping
from repro.core.migration import plan_migration
from repro.engine.stream import StreamTuple
from repro.joins.local import make_local_joiner
from repro.joins.predicates import (
    BandPredicate,
    EquiPredicate,
    NotEqualPredicate,
    ThetaPredicate,
)
from repro.testing import reference_join, reference_probe


def _predicate(name):
    if name == "equi":
        return EquiPredicate("k", "k")
    if name == "band":
        return BandPredicate("v", "v", width=2)
    if name == "theta":
        return ThetaPredicate(lambda l, r: l["v"] < r["v"], name="l.v < r.v")
    if name == "notequal":
        return NotEqualPredicate("k", "k")
    if name == "band-float":
        # Tenths are inexact floats: differences round onto either side of
        # the band edge.
        return BandPredicate("f", "f", width=0.3)
    # Multi-condition joins are theta predicates: a scan checks every
    # stored candidate against the whole condition.
    if name == "theta-equi-parity":
        return ThetaPredicate(
            lambda l, r: l["k"] == r["k"] and (l["v"] + r["v"]) % 2 == 0,
            name="l.k = r.k and l.v + r.v even",
        )
    if name == "theta-band":
        return ThetaPredicate(
            lambda l, r: abs(l["v"] - r["v"]) <= 3 and l["k"] != r["k"],
            name="|l.v - r.v| <= 3 and l.k != r.k",
        )
    if name == "theta-band-float":
        return ThetaPredicate(
            lambda l, r: abs(l["f"] - r["f"]) <= 0.3 and l["k"] != r["k"],
            name="|l.f - r.f| <= 0.3 and l.k != r.k",
        )
    raise ValueError(name)


PREDICATE_NAMES = [
    "equi",
    "band",
    "theta",
    "notequal",
    "band-float",
    "theta-equi-parity",
    "theta-band",
    "theta-band-float",
]


def _predicate_copy(predicate):
    return type(predicate)(
        **{
            name: getattr(predicate, name)
            for name in predicate.__dataclass_fields__
            if predicate.__dataclass_fields__[name].init
        }
    )


def _mixed_stream(rng, count, keys=5, values=12):
    return [
        StreamTuple(
            relation=rng.choice(("R", "S")),
            record={
                "k": rng.randrange(keys),
                "v": rng.randrange(values),
                "f": rng.randrange(values) / 10,
            },
        )
        for _ in range(count)
    ]


def _pair_ids(item, matches, left_relation="R"):
    if item.relation == left_relation:
        return {(item.tuple_id, m.tuple_id) for m in matches}
    return {(m.tuple_id, item.tuple_id) for m in matches}


def _ids(matches):
    return Counter(match.tuple_id for match in matches)


def _drive(joiner, items, batch_sizes, rng):
    """Feed ``items`` through probe_batch in randomly sized batches."""
    per_member = []
    pos = 0
    while pos < len(items):
        size = rng.choice(batch_sizes)
        batch = items[pos:pos + size]
        pos += size
        per_member.extend(zip(batch, joiner.probe_batch(batch)))
    return per_member


def _assert_reference(predicate, per_member):
    """Each member's ``(matches, work)`` is ``reference_probe`` over every
    tuple before it in the stream."""
    stored = []
    for item, (matches, work) in per_member:
        want_matches, want_work = reference_probe(
            predicate, stored, item, left_relation="R"
        )
        assert _ids(matches) == _ids(want_matches), f"tuple {item.tuple_id}"
        assert work == want_work, f"work diverged on tuple {item.tuple_id}"
        stored.append(item)


class TestProbeBatchDifferential:
    @pytest.mark.parametrize("name", PREDICATE_NAMES)
    def test_matches_and_work_equal_reference_probe(self, name):
        rng = random.Random(hash(name) % 65536)
        items = _mixed_stream(rng, 200)
        predicate = _predicate(name)
        joiner = make_local_joiner(predicate, "R", "S")
        _assert_reference(
            predicate, _drive(joiner, items, (1, 3, 7, 16), random.Random(11))
        )

    @pytest.mark.parametrize("name", PREDICATE_NAMES)
    def test_probe_batch_output_matches_reference_join(self, name):
        rng = random.Random(hash(name) % 1024 + 1)
        items = _mixed_stream(rng, 150)
        predicate = _predicate(name)
        joiner = make_local_joiner(predicate, "R", "S")
        produced = set()
        for item, (matches, _work) in _drive(joiner, items, (4, 8, 13), random.Random(2)):
            produced |= _pair_ids(item, matches)
        left = [t for t in items if t.relation == "R"]
        right = [t for t in items if t.relation == "S"]
        expected = {
            (left[li].tuple_id, right[ri].tuple_id)
            for li, ri in reference_join(
                [t.record for t in left], [t.record for t in right], predicate
            )
        }
        assert produced == expected

    def test_probe_batch_equals_probe_then_insert_on_one_joiner(self):
        """probe_batch on one joiner == probe+insert per member on a twin."""
        rng = random.Random(5)
        items = _mixed_stream(rng, 120)
        batched = make_local_joiner(EquiPredicate("k", "k"), "R", "S")
        sequential = make_local_joiner(EquiPredicate("k", "k"), "R", "S")
        for item, (matches, work) in _drive(batched, items, (6,), random.Random(1)):
            seq_matches, seq_work = sequential.probe(item)
            sequential.insert(item)
            assert _pair_ids(item, matches) == _pair_ids(item, seq_matches)
            assert work == seq_work

    def test_unknown_relation_rejected_in_batch(self):
        joiner = make_local_joiner(EquiPredicate("k", "k"), "R", "S")
        with pytest.raises(KeyError):
            joiner.probe_batch([StreamTuple(relation="T", record={"k": 1, "v": 0})])


class TestCandidateChecks:
    """A hash bucket and a band slice are the match set outright; only a
    theta scan checks its candidates against the predicate."""

    @staticmethod
    def _refuse_matches(predicate):
        def matches(left, right):
            raise AssertionError("an index probe called predicate.matches")

        checked = _predicate_copy(predicate)
        checked.matches = matches
        return checked

    @pytest.mark.parametrize("name", ["equi", "band", "band-float"])
    def test_index_probes_never_call_the_predicate(self, name):
        predicate = _predicate(name)
        joiner = make_local_joiner(self._refuse_matches(predicate), "R", "S")
        items = _mixed_stream(random.Random(23), 150)
        _assert_reference(
            predicate, _drive(joiner, items, (1, 5, 9), random.Random(4))
        )
        # The per-tuple probe-then-insert path too.
        twin = make_local_joiner(self._refuse_matches(predicate), "R", "S")
        per_tuple = []
        for item in items:
            per_tuple.append((item, twin.probe(item)))
            twin.insert(item)
        _assert_reference(predicate, per_tuple)

    def test_hash_probe_insert_takes_whole_buckets(self):
        """``SymmetricHashJoiner.probe_insert`` returns every tuple of the
        opposite buckets of itself and ``others``, unchecked, and charges
        their size plus the ``counted`` buckets' size."""
        predicate = _predicate("equi")
        refusing = self._refuse_matches(predicate)
        own, other, counted = (make_local_joiner(refusing, "R", "S") for _ in range(3))
        rng = random.Random(31)
        for item in _mixed_stream(rng, 90):
            (other if rng.random() < 0.5 else counted).insert(item)
        probed = list(other.stored("R")) + list(other.stored("S"))
        everything = probed + list(counted.stored("R")) + list(counted.stored("S"))
        for item in _mixed_stream(rng, 60):
            matches, work = own.probe_insert(item, (other,), (counted,))
            want_matches, _ = reference_probe(predicate, probed, item, left_relation="R")
            _, want_work = reference_probe(predicate, everything, item, left_relation="R")
            assert _ids(matches) == _ids(want_matches)
            assert work == want_work
            probed.append(item)
            everything.append(item)

    def test_theta_scan_checks_each_candidate_once(self):
        calls = []

        def condition(left, right):
            calls.append((left["v"], right["v"]))
            return left["v"] < right["v"]

        joiner = make_local_joiner(ThetaPredicate(condition), "R", "S")
        items = _mixed_stream(random.Random(8), 120)
        stored = {"R": 0, "S": 0}
        expected_calls = 0
        for item, _ in _drive(joiner, items, (1, 4, 11), random.Random(6)):
            expected_calls += stored["S" if item.relation == "R" else "R"]
            stored[item.relation] += 1
        assert len(calls) == expected_calls


def _stored_ids(joiner):
    return {relation: [t.tuple_id for t in joiner.stored(relation)] for relation in "RS"}


_RECORDS = st.lists(
    st.tuples(
        st.sampled_from("RS"), st.integers(0, 4), st.integers(0, 11), st.integers(0, 11)
    ),
    max_size=40,
)


class TestProbeInsertDifferential:
    """``probe_insert`` — one member's probe-then-store, the body every batch
    member and every lone drained member runs — against a one-member batch
    and against the brute-force reference."""

    @given(name=st.sampled_from(PREDICATE_NAMES), records=_RECORDS)
    @settings(max_examples=80, deadline=None)
    def test_equals_one_member_batch_and_reference(self, name, records):
        predicate = _predicate(name)
        single = make_local_joiner(predicate, "R", "S")
        batched = make_local_joiner(predicate, "R", "S")
        history = []
        for relation, k, v, tenths in records:
            item = StreamTuple(
                relation=relation, record={"k": k, "v": v, "f": tenths / 10}
            )
            matches, work = single.probe_insert(item)
            ((batch_matches, batch_work),) = batched.probe_batch([item])
            want_matches, want_work = reference_probe(
                predicate, history, item, left_relation="R"
            )
            assert _ids(matches) == _ids(batch_matches) == _ids(want_matches)
            assert work == batch_work == want_work
            history.append(item)
            assert _stored_ids(single) == _stored_ids(batched)
        assert single.total_count() == len(history)

    @given(
        name=st.sampled_from(PREDICATE_NAMES),
        records=_RECORDS,
        spread=st.lists(st.integers(0, 2), min_size=40, max_size=40),
    )
    @settings(max_examples=60, deadline=None)
    def test_spread_state_equals_union_reference(self, name, records, spread):
        """Stored state spread over this joiner, ``others`` and ``counted``
        (the epoch protocol's partitions): matches come from this joiner and
        ``others``, the work counts all three, and only this joiner stores
        the member — exactly a union store probed for the first two and
        counted for the third."""
        predicate = _predicate(name)
        own, other, counted = (make_local_joiner(predicate, "R", "S") for _ in range(3))
        probed, everything = [], []
        for (relation, k, v, tenths), where in zip(records, spread):
            item = StreamTuple(
                relation=relation, record={"k": k, "v": v, "f": tenths / 10}
            )
            if where:
                (other if where == 1 else counted).insert(item)
                everything.append(item)
                if where == 1:
                    probed.append(item)
                continue
            matches, work = own.probe_insert(item, (other,), (counted,))
            want_matches, _ = reference_probe(predicate, probed, item, left_relation="R")
            _, want_work = reference_probe(predicate, everything, item, left_relation="R")
            assert _ids(matches) == _ids(want_matches)
            assert work == want_work
            probed.append(item)
            everything.append(item)


def _batched(joiner, items, batch_size):
    results = []
    for pos in range(0, len(items), batch_size):
        results.extend(joiner.probe_batch(items[pos:pos + batch_size]))
    return list(zip(items, results))


class TestPropertyBased:
    @given(
        st.lists(
            st.tuples(st.booleans(), st.integers(0, 6), st.integers(0, 9)),
            min_size=0,
            max_size=60,
        ),
        st.integers(1, 9),
    )
    @settings(max_examples=60, deadline=None)
    def test_equi_batches_invariant(self, spec, batch_size):
        """Any batch partitioning yields the reference per-member results."""
        items = [
            StreamTuple(relation="R" if is_left else "S", record={"k": k, "v": v})
            for is_left, k, v in spec
        ]
        predicate = EquiPredicate("k", "k")
        joiner = make_local_joiner(predicate, "R", "S")
        _assert_reference(predicate, _batched(joiner, items, batch_size))

    @given(
        st.lists(
            st.tuples(st.booleans(), st.integers(-20, 20)), min_size=0, max_size=50
        ),
        st.integers(0, 5),
    )
    @settings(max_examples=60, deadline=None)
    def test_band_batches_invariant(self, spec, width):
        items = [
            StreamTuple(relation="R" if is_left else "S", record={"v": v, "k": 0})
            for is_left, v in spec
        ]
        predicate = BandPredicate("v", "v", width=width)
        joiner = make_local_joiner(predicate, "R", "S")
        _assert_reference(predicate, _batched(joiner, items, len(items) or 1))

    @given(
        st.lists(
            st.tuples(st.booleans(), st.integers(-50, 50)), min_size=0, max_size=50
        ),
        st.integers(0, 7),
        st.integers(1, 9),
    )
    @settings(max_examples=60, deadline=None)
    def test_band_slice_is_the_match_set(self, spec, width, batch_size):
        """The band slice is taken as the match set (no per-candidate
        validation); that must be indistinguishable from brute force — for
        any workload, width and batch partitioning."""
        items = [
            StreamTuple(relation="R" if is_left else "S", record={"v": v, "k": 0})
            for is_left, v in spec
        ]
        predicate = BandPredicate("v", "v", width=width)
        joiner = make_local_joiner(predicate, "R", "S")
        _assert_reference(predicate, _batched(joiner, items, batch_size))


def _shadow_candidate_count(stored_by_tag, item):
    """Candidates a union-store probe of ``item`` would inspect (reference)."""
    key = item.record["k"]
    count = 0
    for members in stored_by_tag.values():
        for member in members:
            if member.relation != item.relation and member.record["k"] == key:
                count += 1
    return count


class TestMidMigrationTagPartitions:
    """All four tag sets live: partitioned probes charge seed-exact work."""

    def _migrating_state(self):
        old_placement = GridPlacement(mapping=Mapping(2, 2))
        new_placement = GridPlacement(mapping=Mapping(1, 4))
        plan = plan_migration(old_placement, new_placement)
        predicate = EquiPredicate("k", "k")
        store = make_local_joiner(predicate, "R", "S")
        state = EpochJoinerState(
            machine_id=0, store=store, num_reshufflers=2, left_relation="R"
        )
        return state, plan, predicate

    def _populate_all_tag_sets(self, state, plan, rng):
        """Returns {tag: [tuples]} mirroring the state's partitions."""
        stored = {"tau": [], "delta": [], "delta_prime": [], "mu": []}
        # τ: normal-phase arrivals (epoch 0).
        for _ in range(12):
            item = StreamTuple(
                relation=rng.choice(("R", "S")),
                record={"k": rng.randrange(4), "v": 0},
                salt=rng.random(),
            )
            state.handle_data(item)
            stored["tau"].append(item)
        # First signal (1 of 2): τ is split into keep/drop partitions.
        state.handle_signal(1, plan, "reshuffler-0")
        assert state.phase is JoinerPhase.MIGRATING
        # Δ: old-epoch tuples during the migration.
        for _ in range(8):
            item = StreamTuple(
                relation=rng.choice(("R", "S")),
                record={"k": rng.randrange(4), "v": 1},
                salt=rng.random(),
                epoch=0,
            )
            state.handle_data(item)
            stored["delta"].append(item)
        # µ: relocations from other joiners.
        for _ in range(6):
            item = StreamTuple(
                relation=rng.choice(("R", "S")),
                record={"k": rng.randrange(4), "v": 2},
                salt=rng.random(),
                epoch=0,
            )
            state.handle_migrated(item)
            stored["mu"].append(item)
        # Δ': new-epoch tuples.
        for _ in range(8):
            item = StreamTuple(
                relation=rng.choice(("R", "S")),
                record={"k": rng.randrange(4), "v": 3},
                salt=rng.random(),
                epoch=1,
            )
            state.handle_data(item)
            stored["delta_prime"].append(item)
        return stored

    def test_probe_work_is_union_store_exact(self):
        """Each protocol probe charges max(candidates in the whole state, 1)
        per tuple-set join — identical to the unpartitioned union store."""
        rng = random.Random(17)
        state, plan, predicate = self._migrating_state()
        stored = self._populate_all_tag_sets(state, plan, rng)
        for tags_live in stored.values():
            assert tags_live, "scenario must exercise every tag set"

        # A Δ' probe joins twice: against µ ∪ Δ' and against Keep(τ ∪ Δ).
        probe = StreamTuple(
            relation="R", record={"k": 1, "v": 9}, salt=rng.random(), epoch=1
        )
        union_count = _shadow_candidate_count(stored, probe)
        actions = state.handle_data(probe)
        assert actions.probe_work == 2 * max(union_count, 1)
        stored["delta_prime"].append(probe)

        # A Δ probe joins against τ ∪ Δ, plus Δ' when the plan keeps it.
        probe = StreamTuple(
            relation="S", record={"k": 2, "v": 9}, salt=rng.random(), epoch=0
        )
        union_count = _shadow_candidate_count(stored, probe)
        keep = plan.keeps(0, "S", probe.salt)
        actions = state.handle_data(probe)
        expected_probes = 2 if keep else 1
        assert actions.probe_work == expected_probes * max(union_count, 1)

    def test_batch_falls_back_mid_migration(self):
        """handle_data_batch mid-migration equals per-tuple handle_data."""
        rng = random.Random(23)
        state_a, plan_a, _ = self._migrating_state()
        state_b, plan_b, _ = self._migrating_state()
        stored = self._populate_all_tag_sets(state_a, plan_a, rng)
        # Replay the exact same tuples into the twin state.
        state_b_events = stored["tau"]
        for item in state_b_events:
            state_b.handle_data(item)
        state_b.handle_signal(1, plan_b, "reshuffler-0")
        for item in stored["delta"]:
            state_b.handle_data(item)
        for item in stored["mu"]:
            state_b.handle_migrated(item)
        for item in stored["delta_prime"]:
            state_b.handle_data(item)

        batch = [
            StreamTuple(
                relation=rng.choice(("R", "S")),
                record={"k": rng.randrange(4), "v": 7},
                salt=0.3 + 0.05 * i,
                epoch=1,
            )
            for i in range(6)
        ]
        batched_actions = state_a.handle_data_batch(batch)
        singly_actions = [state_b.handle_data(item) for item in batch]
        assert state_a.stored_count() == state_b.stored_count()
        for (got_matches, got_work), want in zip(batched_actions, singly_actions):
            assert want.stored and not want.migrate_to
            assert got_work == want.probe_work
            got_pairs = {(l.tuple_id, r.tuple_id) for l, r in got_matches}
            want_pairs = {(l.tuple_id, r.tuple_id) for l, r in want.matches}
            assert got_pairs == want_pairs

    def test_finalize_merges_partitions_and_discards_drops(self):
        rng = random.Random(31)
        state, plan, _ = self._migrating_state()
        stored = self._populate_all_tag_sets(state, plan, rng)
        before = state.stored_count()
        # Close the migration: second signal + all expected end markers.
        state.handle_signal(1, plan, "reshuffler-1")
        assert state.phase is JoinerPhase.DRAINED
        for sender in plan.senders_to(0):
            state.register_migration_end(sender)
        result = state.finalize()
        assert state.phase is JoinerPhase.NORMAL
        assert state.current_epoch == 1
        # Conservation: merged survivors + discards == everything stored.
        assert state.stored_count() + len(result.discarded) == before
        # Discards are exactly the old tuples the plan does not keep.
        old = stored["tau"] + stored["delta"]
        expected_drop = {
            t.tuple_id
            for t in old
            if not plan.keeps(0, "R" if t.relation == "R" else "S", t.salt)
        }
        assert {t.tuple_id for t in result.discarded} == expected_drop
        # The merged store serves post-migration probes over all survivors.
        probe = StreamTuple(relation="R", record={"k": 3, "v": 9}, epoch=1, salt=0.9)
        survivors = {
            t.tuple_id
            for members in (
                [t for t in old if t.tuple_id not in expected_drop],
                stored["mu"],
                stored["delta_prime"],
            )
            for t in members
            if t.relation == "S" and t.record["k"] == 3
        }
        actions = state.handle_data(probe)
        assert {r.tuple_id for _l, r in actions.matches} == survivors
