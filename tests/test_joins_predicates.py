"""Tests for join predicates and the brute-force references of repro.testing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.joins.predicates import (
    BandPredicate,
    CompositePredicate,
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


class TestThetaAndComposite:
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

    def test_composite_inherits_kind_and_filters(self):
        predicate = CompositePredicate(
            primary=EquiPredicate("k", "k"),
            residuals=[lambda l, r: l["v"] > 10],
        )
        assert predicate.kind == "equi"
        assert predicate.matches({"k": 1, "v": 11}, {"k": 1})
        assert not predicate.matches({"k": 1, "v": 5}, {"k": 1})
        assert not predicate.matches({"k": 1, "v": 11}, {"k": 2})
        assert predicate.left_key({"k": 4, "v": 0}) == 4

    def test_composite_describe(self):
        predicate = CompositePredicate(EquiPredicate("k", "k"), [lambda l, r: True])
        assert "residual" in predicate.describe()
        named = CompositePredicate(EquiPredicate("k", "k"), name="custom")
        assert named.describe() == "custom"


class TestExactKeyContract:
    def test_equi_is_exact_key_with_no_residual(self):
        predicate = EquiPredicate("a", "b")
        assert predicate.exact_key
        assert not predicate.has_residual
        assert predicate.residual_check() is None
        assert predicate.residual_matches({"a": 1}, {"b": 99})

    def test_band_and_theta_are_not_exact_key(self):
        assert not BandPredicate("x", "y", width=1).exact_key
        assert not ThetaPredicate(lambda l, r: True).exact_key
        assert not NotEqualPredicate("a", "a").exact_key

    def test_composite_exact_key_runs_residuals_only(self):
        predicate = CompositePredicate(
            EquiPredicate("k", "k"), residuals=[lambda l, r: l["v"] > 10]
        )
        assert predicate.exact_key
        assert predicate.has_residual
        check = predicate.residual_check()
        # The residual check skips the (index-guaranteed) key equality.
        assert check({"k": 1, "v": 11}, {"k": 999})
        assert not check({"k": 1, "v": 5}, {"k": 1})

    def test_composite_without_residuals_is_exact_hit(self):
        predicate = CompositePredicate(EquiPredicate("k", "k"))
        assert predicate.exact_key
        assert not predicate.has_residual
        assert predicate.residual_check() is None

    def test_composite_multiple_residuals_combined(self):
        predicate = CompositePredicate(
            EquiPredicate("k", "k"),
            residuals=[lambda l, r: l["v"] > 0, lambda l, r: r["w"] < 5],
        )
        check = predicate.residual_check()
        assert check({"k": 1, "v": 1}, {"k": 1, "w": 0})
        assert not check({"k": 1, "v": 0}, {"k": 1, "w": 0})
        assert not check({"k": 1, "v": 1}, {"k": 1, "w": 9})


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
    by the primary condition, floored at 1."""

    def _stored(self):
        return [
            StreamTuple(relation=relation, record={"k": k, "v": v})
            for relation, k, v in (
                ("S", 1, 0), ("S", 1, 1), ("S", 2, 0), ("S", 4, 1), ("R", 1, 0),
            )
        ]

    def test_work_counts_the_primary_condition(self):
        item = StreamTuple(relation="R", record={"k": 1, "v": 0})
        composite = CompositePredicate(
            BandPredicate("k", "k", width=1), residuals=[lambda l, r: l["v"] == r["v"]]
        )
        matches, work = reference_probe(composite, self._stored(), item, left_relation="R")
        assert [m.record for m in matches] == [{"k": 1, "v": 0}, {"k": 2, "v": 0}]
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
