"""Tests for join predicates and the brute-force references of repro.testing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.joins.predicates import (
    BandPredicate,
    EquiPredicate,
    NotEqualPredicate,
    ThetaPredicate,
)
from repro.engine.stream import StreamTuple
from repro.testing import reference_join, reference_probe


class TestEquiPredicate:
    def test_matches(self):
        predicate = EquiPredicate("a", "b")
        assert predicate.matches({"a": 3}, {"b": 3})
        assert not predicate.matches({"a": 3}, {"b": 4})
        assert predicate.kind == "equi"

    def test_keys(self):
        predicate = EquiPredicate("a", "b")
        assert predicate.left_key({"a": 9}) == 9
        assert predicate.right_key({"b": 8}) == 8

    def test_describe(self):
        assert "a = b" == EquiPredicate("a", "b").describe()


class TestBandPredicate:
    def test_matches_within_width(self):
        predicate = BandPredicate("x", "y", width=2)
        assert predicate.matches({"x": 5}, {"y": 7})
        assert predicate.matches({"x": 5}, {"y": 3})
        assert not predicate.matches({"x": 5}, {"y": 8})
        assert predicate.kind == "band"

    @given(st.integers(-50, 50), st.integers(-50, 50), st.integers(0, 10))
    @settings(max_examples=100)
    def test_symmetry(self, x, y, width):
        predicate = BandPredicate("x", "y", width=width)
        flipped = BandPredicate("x", "y", width=width)
        assert predicate.matches({"x": x}, {"y": y}) == flipped.matches({"x": y}, {"y": x})


class TestThetaPredicates:
    def test_theta_callable(self):
        predicate = ThetaPredicate(lambda l, r: l["a"] < r["b"], name="a < b")
        assert predicate.matches({"a": 1}, {"b": 2})
        assert not predicate.matches({"a": 2}, {"b": 2})
        assert predicate.describe() == "a < b"
        assert predicate.kind == "theta"

    def test_not_equal(self):
        predicate = NotEqualPredicate("a", "a")
        assert predicate.matches({"a": 1}, {"a": 2})
        assert not predicate.matches({"a": 1}, {"a": 1})


class TestReferenceJoin:
    def test_counts_matching_pairs(self):
        left = [{"k": 1}, {"k": 2}]
        right = [{"k": 2}, {"k": 2}, {"k": 3}]
        matches = reference_join(left, right, EquiPredicate("k", "k"))
        assert matches == [(1, 0), (1, 1)]

    def test_cross_product_upper_bound(self):
        left = [{"k": i} for i in range(4)]
        right = [{"k": i} for i in range(5)]
        always = ThetaPredicate(lambda l, r: True)
        assert len(reference_join(left, right, always)) == 20


class TestReferenceProbe:
    """The closed-form probe oracle: matches by ``predicate.matches``, work
    by the candidates the index inspects, floored at 1."""

    def _stored(self):
        return [
            StreamTuple(relation=relation, record={"k": k, "v": v})
            for relation, k, v in (
                ("S", 1, 0), ("S", 1, 1), ("S", 2, 0), ("S", 4, 1), ("R", 1, 0),
            )
        ]

    def test_work_counts_the_index_candidates(self):
        item = StreamTuple(relation="R", record={"k": 1, "v": 0})
        band = BandPredicate("k", "k", width=1)
        matches, work = reference_probe(band, self._stored(), item, left_relation="R")
        assert [m.record for m in matches] == [
            {"k": 1, "v": 0}, {"k": 1, "v": 1}, {"k": 2, "v": 0},
        ]
        assert work == 3.0  # the band holds three S tuples; the R tuple is no partner
        _, work = reference_probe(
            EquiPredicate("k", "k"), self._stored(), item, left_relation="R"
        )
        assert work == 2.0
        _, work = reference_probe(
            ThetaPredicate(lambda l, r: False), self._stored(), item, left_relation="R"
        )
        assert work == 4.0

    def test_orients_pairs_and_floors_work(self):
        item = StreamTuple(relation="S", record={"k": 9, "v": 0})
        later = ThetaPredicate(lambda l, r: l["k"] < r["k"])
        matches, _ = reference_probe(later, self._stored(), item, left_relation="R")
        assert [m.record for m in matches] == [{"k": 1, "v": 0}]
        _, work = reference_probe(
            EquiPredicate("k", "k"), self._stored(), item, left_relation="R"
        )
        assert work == 1.0
