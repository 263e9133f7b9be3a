"""Join predicates.

The join-matrix model (§3.1) represents *any* join condition: a matrix cell
``M(i, j)`` is true iff tuples ``r_i`` and ``s_j`` satisfy the predicate.  The
operator itself is content-insensitive and never inspects predicates for
routing; predicates only matter to the *local* join algorithm running inside
each joiner, which can exploit their structure (hash probes for equi-joins,
range probes for band joins, scans for general theta conditions).

A predicate therefore exposes three things:

* ``matches(left, right)`` — the truth value of the condition,
* ``kind`` — ``"equi"``, ``"band"`` or ``"theta"``, advertising which index
  type can serve it,
* key extractors for the indexed kinds,
* ``exact_key`` / ``residual_matches`` — whether an exact-key hash probe
  already decides the primary condition, and the residual part (if any) that
  still has to run per candidate pair once the index decided the primary.
  The local joiner uses this to skip re-validating equality for hash
  candidates (the bucket key *is* the predicate) and the band condition for
  band slices (the ordered index cuts them by the predicate's own
  expression), while still applying composite residual filters.

The brute-force evaluation of a predicate over every pair lives in
:mod:`repro.testing` (``reference_join``, ``reference_probe``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

Record = dict[str, Any]


class JoinPredicate:
    """Base class for join predicates over record pairs."""

    #: one of "equi", "band", "theta"
    kind: str = "theta"

    @property
    def exact_key(self) -> bool:
        """Whether an exact-key hash probe fully decides the primary condition.

        When True, every candidate returned from the matching hash bucket is
        guaranteed to satisfy the primary predicate (key equality *is* bucket
        membership), so only :meth:`residual_matches` needs to run per pair.
        """
        return False

    @property
    def has_residual(self) -> bool:
        """Whether :meth:`residual_matches` is non-trivial for this predicate."""
        return True

    def residual_matches(self, left: Record, right: Record) -> bool:
        """The part of the condition an index-decided probe does *not* guarantee.

        Defaults to the full condition; predicates whose primary condition an
        index can decide (equi buckets, exact band windows) override it with
        their residual-only check (or a constant True).
        """
        return self.matches(left, right)

    def residual_check(self) -> Callable[[Record, Record], bool] | None:
        """The leanest per-candidate check for exact-key index candidates.

        Returns ``None`` when bucket membership alone decides the predicate
        (no per-pair work at all), otherwise a callable evaluating just the
        residual part.  Resolved once per joiner at construction, not per
        probe.
        """
        if not self.has_residual:
            return None
        return self.residual_matches

    def matches(self, left: Record, right: Record) -> bool:
        """Whether the pair ``(left, right)`` satisfies the join condition."""
        raise NotImplementedError

    def left_key(self, left: Record) -> Any:
        """Key extracted from a left-relation record (indexed kinds only)."""
        raise NotImplementedError

    def right_key(self, right: Record) -> Any:
        """Key extracted from a right-relation record (indexed kinds only)."""
        raise NotImplementedError

    def describe(self) -> str:
        """Human-readable description used in reports."""
        return type(self).__name__


@dataclass
class EquiPredicate(JoinPredicate):
    """Equality predicate ``left[left_attr] == right[right_attr]``."""

    left_attr: str
    right_attr: str
    kind: str = field(default="equi", init=False)

    @property
    def exact_key(self) -> bool:
        return True

    @property
    def has_residual(self) -> bool:
        return False

    def residual_matches(self, left: Record, right: Record) -> bool:
        return True

    def matches(self, left: Record, right: Record) -> bool:
        return left[self.left_attr] == right[self.right_attr]

    def left_key(self, left: Record) -> Any:
        return left[self.left_attr]

    def right_key(self, right: Record) -> Any:
        return right[self.right_attr]

    def describe(self) -> str:
        return f"{self.left_attr} = {self.right_attr}"


@dataclass
class BandPredicate(JoinPredicate):
    """Band predicate ``|left[left_attr] - right[right_attr]| <= width``.

    An ordered index decides the condition for int and float keys alike: it
    cuts the match set out of its sorted key list by evaluating this very
    expression at the slice edges
    (:meth:`~repro.joins.index.OrderedIndex.band_bounds`), so a band probe
    needs no residual.
    """

    left_attr: str
    right_attr: str
    width: float = 1.0
    kind: str = field(default="band", init=False)

    @property
    def has_residual(self) -> bool:
        return False

    def residual_matches(self, left: Record, right: Record) -> bool:
        return True

    def matches(self, left: Record, right: Record) -> bool:
        return abs(left[self.left_attr] - right[self.right_attr]) <= self.width

    def left_key(self, left: Record) -> Any:
        return left[self.left_attr]

    def right_key(self, right: Record) -> Any:
        return right[self.right_attr]

    def describe(self) -> str:
        return f"|{self.left_attr} - {self.right_attr}| <= {self.width}"


@dataclass
class ThetaPredicate(JoinPredicate):
    """Arbitrary theta predicate given by a callable ``(left, right) -> bool``."""

    condition: Callable[[Record, Record], bool]
    name: str = "theta"
    kind: str = field(default="theta", init=False)

    def matches(self, left: Record, right: Record) -> bool:
        return bool(self.condition(left, right))

    def describe(self) -> str:
        return self.name


@dataclass
class NotEqualPredicate(JoinPredicate):
    """The inequality predicate used in the paper's Fig. 1a example."""

    left_attr: str
    right_attr: str
    kind: str = field(default="theta", init=False)

    def matches(self, left: Record, right: Record) -> bool:
        return left[self.left_attr] != right[self.right_attr]

    def describe(self) -> str:
        return f"{self.left_attr} != {self.right_attr}"


@dataclass
class CompositePredicate(JoinPredicate):
    """Conjunction of a *primary* (indexable) predicate and residual conditions.

    The evaluation queries of §5 combine an equi or band condition with extra
    per-pair filters (e.g. ``L1.shipmode = 'TRUCK' AND L2.shipmode != 'TRUCK'``).
    The primary predicate drives index selection; the residual conditions are
    applied to every candidate pair the index produces.
    """

    primary: JoinPredicate
    residuals: Sequence[Callable[[Record, Record], bool]] = ()
    name: str | None = None

    def __post_init__(self) -> None:
        self.kind = self.primary.kind

    @property
    def exact_key(self) -> bool:
        return self.primary.exact_key

    @property
    def has_residual(self) -> bool:
        return bool(self.residuals) or self.primary.has_residual

    def residual_matches(self, left: Record, right: Record) -> bool:
        if self.primary.has_residual and not self.primary.residual_matches(left, right):
            return False
        for residual in self.residuals:
            if not residual(left, right):
                return False
        return True

    def residual_check(self) -> Callable[[Record, Record], bool] | None:
        if self.primary.has_residual:
            return self.residual_matches
        residuals = tuple(self.residuals)
        if not residuals:
            return None
        if len(residuals) == 1:
            return residuals[0]

        def check(left: Record, right: Record) -> bool:
            for residual in residuals:
                if not residual(left, right):
                    return False
            return True

        return check

    def matches(self, left: Record, right: Record) -> bool:
        if not self.primary.matches(left, right):
            return False
        for residual in self.residuals:
            if not residual(left, right):
                return False
        return True

    def left_key(self, left: Record) -> Any:
        return self.primary.left_key(left)

    def right_key(self, right: Record) -> Any:
        return self.primary.right_key(right)

    def describe(self) -> str:
        if self.name:
            return self.name
        extra = f" AND {len(self.residuals)} residual(s)" if self.residuals else ""
        return self.primary.describe() + extra

