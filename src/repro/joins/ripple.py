"""Block ripple join with running aggregate estimation.

Ripple joins (Haas & Hellerstein) generalise nested-loop and hash joins to an
online setting that produces early results and running estimates of aggregate
answers with confidence intervals.  The paper cites them as one of the local
non-blocking algorithms a joiner may adopt; this module provides a block
ripple join usable both as a local joiner flavour and standalone for online
aggregation examples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.engine.stream import StreamTuple
from repro.joins.local import LocalJoiner
from repro.joins.predicates import JoinPredicate


@dataclass
class RunningEstimate:
    """A running estimate of the total join cardinality.

    Attributes:
        estimate: scaled estimate of ``|R ⋈ S|`` over the full relations.
        half_width: half-width of the (approximate) 95% confidence interval.
        sampled_left: number of left tuples seen so far.
        sampled_right: number of right tuples seen so far.
        matches: number of matches among sampled tuples.
    """

    estimate: float
    half_width: float
    sampled_left: int
    sampled_right: int
    matches: int

    @property
    def low(self) -> float:
        return max(0.0, self.estimate - self.half_width)

    @property
    def high(self) -> float:
        return self.estimate + self.half_width


class RippleJoiner(LocalJoiner):
    """Block ripple join: alternates block intake between relations.

    In addition to producing join results exactly like any other local
    joiner, it maintains enough statistics to report a running estimate of the
    total join size, scaled to full-relation cardinalities provided by the
    caller (online aggregation, §2 "Online Join Algorithms").
    """

    def __init__(
        self,
        predicate: JoinPredicate,
        left_relation: str,
        right_relation: str,
        block_size: int = 16,
    ) -> None:
        super().__init__(predicate, left_relation, right_relation)
        self.block_size = block_size
        self._matches_seen = 0
        self._pairs_examined = 0

    def probe(self, item: StreamTuple, restrict=None):
        matches, work = super().probe(item, restrict)
        opposite_count = self.count(self.opposite(item.relation))
        self._matches_seen += len(matches)
        self._pairs_examined += opposite_count
        return matches, work

    def probe_batch(self, items):
        # Route through probe() per member so the selectivity sample
        # (_matches_seen/_pairs_examined) keeps accumulating; the base
        # class's batch paths probe the indexes directly and would
        # silently skip the running-estimate counters.
        results = []
        for item in items:
            results.append(self.probe(item))
            self.insert(item)
        return results

    def fresh(self) -> "RippleJoiner":
        return type(self)(
            self.predicate,
            self.left_relation,
            self.right_relation,
            block_size=self.block_size,
        )

    def running_estimate(
        self, total_left: int, total_right: int
    ) -> RunningEstimate:
        """Estimate the full-join cardinality from the sample seen so far.

        Args:
            total_left: (known or estimated) total cardinality of the left
                relation.
            total_right: total cardinality of the right relation.
        """
        sampled_left = self.count(self.left_relation)
        sampled_right = self.count(self.right_relation)
        examined = max(self._pairs_examined, 1)
        selectivity = self._matches_seen / examined
        estimate = selectivity * total_left * total_right
        # Binomial-style approximate confidence half width on the selectivity,
        # scaled to the full cross-product size.
        variance = selectivity * (1.0 - selectivity) / examined
        half_width = 1.96 * math.sqrt(max(variance, 0.0)) * total_left * total_right
        return RunningEstimate(
            estimate=estimate,
            half_width=half_width,
            sampled_left=sampled_left,
            sampled_right=sampled_right,
            matches=self._matches_seen,
        )
