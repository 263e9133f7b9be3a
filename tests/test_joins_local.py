"""Tests for the local non-blocking join algorithms (SHJ / band / nested loop)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.stream import StreamTuple
from repro.joins.local import (
    NestedLoopJoiner,
    SortedBandJoiner,
    SymmetricHashJoiner,
    make_local_joiner,
)
from repro.joins.predicates import (
    BandPredicate,
    EquiPredicate,
    ThetaPredicate,
)
from repro.testing import reference_join


def _stream(relation, records):
    return [StreamTuple(relation=relation, record=record) for record in records]


def _run_symmetric(joiner, left_tuples, right_tuples, rng):
    """Feed both streams in random order; return the set of matched id pairs."""
    matched = set()
    order = left_tuples + right_tuples
    rng.shuffle(order)
    for item in order:
        matches, _ = joiner.probe(item)
        for other in matches:
            if item.relation == joiner.left_relation:
                matched.add((item.tuple_id, other.tuple_id))
            else:
                matched.add((other.tuple_id, item.tuple_id))
        joiner.insert(item)
    return matched


def _reference_pairs(left_tuples, right_tuples, predicate):
    expected = set()
    for left in left_tuples:
        for right in right_tuples:
            if predicate.matches(left.record, right.record):
                expected.add((left.tuple_id, right.tuple_id))
    return expected


class TestSymmetricHashJoiner:
    def test_produces_exactly_the_join(self, rng):
        predicate = EquiPredicate("k", "k")
        left = _stream("R", [{"k": i % 5} for i in range(30)])
        right = _stream("S", [{"k": i % 7} for i in range(40)])
        joiner = SymmetricHashJoiner(predicate, "R", "S")
        matched = _run_symmetric(joiner, left, right, rng)
        assert matched == _reference_pairs(left, right, predicate)

    def test_requires_equi_predicate(self):
        with pytest.raises(ValueError):
            SymmetricHashJoiner(BandPredicate("k", "k", 1), "R", "S")

    def test_counts_and_removal(self):
        predicate = EquiPredicate("k", "k")
        joiner = SymmetricHashJoiner(predicate, "R", "S")
        item = StreamTuple(relation="R", record={"k": 1})
        joiner.insert(item)
        assert joiner.count("R") == 1
        assert joiner.remove(item)
        assert joiner.count("R") == 0

    def test_unknown_relation_rejected(self):
        joiner = SymmetricHashJoiner(EquiPredicate("k", "k"), "R", "S")
        with pytest.raises(KeyError):
            joiner.insert(StreamTuple(relation="T", record={"k": 1}))

    def test_stored_size_tracks_inserts_and_removals(self):
        predicate = EquiPredicate("k", "k")
        joiner = SymmetricHashJoiner(predicate, "R", "S")
        items = [
            StreamTuple(relation=rel, record={"k": i}, size=1.5)
            for i, rel in enumerate(("R", "S", "R"))
        ]
        for item in items:
            joiner.insert(item)
        assert joiner.stored_size() == pytest.approx(4.5)
        joiner.remove(items[0])
        assert joiner.stored_size() == pytest.approx(3.0)


class TestSortedBandJoiner:
    def test_band_join_matches_reference(self, rng):
        predicate = BandPredicate("v", "v", width=2)
        left = _stream("R", [{"v": rng.randint(0, 30)} for _ in range(25)])
        right = _stream("S", [{"v": rng.randint(0, 30)} for _ in range(25)])
        joiner = SortedBandJoiner(predicate, "R", "S")
        matched = _run_symmetric(joiner, left, right, rng)
        assert matched == _reference_pairs(left, right, predicate)

    def test_requires_band_predicate(self):
        with pytest.raises(ValueError):
            SortedBandJoiner(EquiPredicate("k", "k"), "R", "S")


class TestNestedLoopJoiner:
    def test_theta_join_matches_reference(self, rng):
        predicate = ThetaPredicate(lambda l, r: l["v"] < r["v"], name="l.v < r.v")
        left = _stream("R", [{"v": rng.randint(0, 10)} for _ in range(15)])
        right = _stream("S", [{"v": rng.randint(0, 10)} for _ in range(15)])
        joiner = NestedLoopJoiner(predicate, "R", "S")
        matched = _run_symmetric(joiner, left, right, rng)
        assert matched == _reference_pairs(left, right, predicate)

    def test_probe_work_counts_candidates(self):
        predicate = ThetaPredicate(lambda l, r: True)
        joiner = NestedLoopJoiner(predicate, "R", "S")
        for record in [{"v": i} for i in range(6)]:
            joiner.insert(StreamTuple(relation="S", record=record))
        _, work = joiner.probe(StreamTuple(relation="R", record={"v": 0}))
        assert work == 6


class TestFactory:
    def test_dispatch(self):
        assert isinstance(make_local_joiner(EquiPredicate("a", "b"), "R", "S"), SymmetricHashJoiner)
        assert isinstance(make_local_joiner(BandPredicate("a", "b", 1), "R", "S"), SortedBandJoiner)
        assert isinstance(
            make_local_joiner(ThetaPredicate(lambda l, r: True), "R", "S"), NestedLoopJoiner
        )


_PREDICATES = {
    "equi": EquiPredicate("v", "v"),
    "band": BandPredicate("v", "v", width=2),
    "theta": ThetaPredicate(lambda l, r: l["v"] < r["v"], name="l.v < r.v"),
}


class TestRemoval:
    @pytest.mark.parametrize("name", sorted(_PREDICATES))
    def test_removed_tuples_never_match_again(self, name, rng):
        """Tuples a migration moves away leave the local join: later probes
        produce exactly the join with the tuples still stored."""
        predicate = _PREDICATES[name]
        joiner = make_local_joiner(predicate, "R", "S")
        stored = _stream("S", [{"v": rng.randint(0, 12)} for _ in range(30)])
        for item in stored:
            joiner.insert(item)
        removed = stored[::3]
        for item in removed:
            assert joiner.remove(item)
            assert not joiner.remove(item)
        kept = [item for item in stored if item not in removed]
        assert joiner.count("S") == len(kept)
        probes = _stream("R", [{"v": rng.randint(0, 12)} for _ in range(20)])
        matched = set()
        for item in probes:
            matches, _ = joiner.probe(item)
            matched.update((item.tuple_id, other.tuple_id) for other in matches)
        assert matched == _reference_pairs(probes, kept, predicate)


class TestPropertyBased:
    @given(
        st.lists(st.integers(0, 8), min_size=0, max_size=30),
        st.lists(st.integers(0, 8), min_size=0, max_size=30),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_equi_join_invariant_under_arrival_order(self, left_keys, right_keys, shuffler):
        """The symmetric join output is independent of arrival order."""
        predicate = EquiPredicate("k", "k")
        left = _stream("R", [{"k": key} for key in left_keys])
        right = _stream("S", [{"k": key} for key in right_keys])
        joiner = make_local_joiner(predicate, "R", "S")
        rng = random.Random(shuffler.randint(0, 10_000))
        matched = _run_symmetric(joiner, left, right, rng)
        assert matched == _reference_pairs(left, right, predicate)
        expected_count = len(
            reference_join([t.record for t in left], [t.record for t in right], predicate)
        )
        assert len(matched) == expected_count
