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
* key extractors for the indexed kinds.

A record is any :class:`~collections.abc.Mapping` of attribute names to
values: a dict, or a read-only row of :func:`repro.data.rows.row_type`,
which every generated query holds.  A key extractor reads a dict by key and
any other record by the attribute of that name (a row's fields are its
slots), falling back to the key when there is no such attribute: one C call
either way, so the extraction every probe and insert makes enters no Python
frame beyond the extractor's own.

An index decides an indexed kind outright — a hash bucket holds exactly the
equal keys, an ordered slice exactly the band — so the local joiner calls
``matches`` per candidate only on theta scans.  Every filter of a query runs
when the query is built (:mod:`repro.data.queries`), never per pair.

The brute-force evaluation of a predicate over every pair lives in
:mod:`repro.testing` (``reference_join``, ``reference_probe``).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Any, Callable

Record = Mapping[str, Any]


class JoinPredicate:
    """Base class for join predicates over record pairs."""

    #: one of "equi", "band", "theta"
    kind: str = "theta"

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


class _AttributeKeys(JoinPredicate):
    """Key extractors of an indexed predicate on ``left_attr`` and ``right_attr``.

    A dict is read by key; a row (or any record with an attribute of that
    name) by attribute, and any other record by key.
    """

    left_attr: str
    right_attr: str

    def left_key(self, left: Record) -> Any:
        if left.__class__ is dict:
            return left[self.left_attr]
        try:
            return getattr(left, self.left_attr)
        except AttributeError:
            return left[self.left_attr]

    def right_key(self, right: Record) -> Any:
        if right.__class__ is dict:
            return right[self.right_attr]
        try:
            return getattr(right, self.right_attr)
        except AttributeError:
            return right[self.right_attr]


@dataclass
class EquiPredicate(_AttributeKeys):
    """Equality predicate ``left[left_attr] == right[right_attr]``."""

    left_attr: str
    right_attr: str
    kind: str = field(default="equi", init=False)

    def matches(self, left: Record, right: Record) -> bool:
        return left[self.left_attr] == right[self.right_attr]

    def describe(self) -> str:
        return f"{self.left_attr} = {self.right_attr}"


@dataclass
class BandPredicate(_AttributeKeys):
    """Band predicate ``|left[left_attr] - right[right_attr]| <= width``.

    An ordered index decides the condition for int and float keys alike: it
    cuts the match set out of its sorted key list by evaluating this very
    expression at the slice edges
    (:meth:`~repro.joins.index.OrderedIndex.band_bounds`), so a band probe
    needs no per-pair check.
    """

    left_attr: str
    right_attr: str
    width: float = 1.0
    kind: str = field(default="band", init=False)

    def matches(self, left: Record, right: Record) -> bool:
        return abs(left[self.left_attr] - right[self.right_attr]) <= self.width

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
