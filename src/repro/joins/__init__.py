"""Local non-blocking join algorithms and join predicates.

Each joiner task of the parallel operator runs a *local* non-blocking join on
its assigned data partition (§3.2): when a tuple arrives it is stored for
later use and immediately joined against the stored tuples of the opposite
relation.  The paper notes that any flavour of local online join (symmetric
hash join, XJoin, RPJ, PMJ, ripple join, ...) can be plugged in; this package
provides three such flavours built on top of a common index layer:

* :class:`SymmetricHashJoiner` — hash indexes on the join key (equi-joins),
* :class:`SortedBandJoiner` — ordered indexes with range probes (band joins),
* :class:`NestedLoopJoiner` — full scans (arbitrary theta predicates).

Predicates (:mod:`repro.joins.predicates`) describe the join condition and
advertise which index kind can serve them.
"""

from repro.joins.index import HashIndex, OrderedIndex, ScanIndex, make_index
from repro.joins.local import (
    LocalJoiner,
    NestedLoopJoiner,
    SortedBandJoiner,
    SymmetricHashJoiner,
    make_local_joiner,
)
from repro.joins.predicates import (
    BandPredicate,
    EquiPredicate,
    JoinPredicate,
    ThetaPredicate,
)

__all__ = [
    "BandPredicate",
    "EquiPredicate",
    "HashIndex",
    "JoinPredicate",
    "LocalJoiner",
    "NestedLoopJoiner",
    "OrderedIndex",
    "ScanIndex",
    "SortedBandJoiner",
    "SymmetricHashJoiner",
    "ThetaPredicate",
    "make_index",
    "make_local_joiner",
]
