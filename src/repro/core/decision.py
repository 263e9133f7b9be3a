"""The migration-decision algorithm (§4.2.1, Algorithm 2) and its ε variant.

The controller tracks the committed cardinalities ``|R|, |S|`` as of the last
migration decision and the deltas ``|ΔR|, |ΔS|`` received since.  Whenever a
delta reaches ``ε`` times its committed counterpart, the controller recomputes
the optimal ``(n, m)``-mapping for the new totals, commits the deltas and —
if the optimum changed — triggers a migration.

Theorem 4.1 (ε = 1): the resulting ILF is at most 1.25× the optimal ILF at
any point in time, and the amortised communication cost per input tuple
(including migrations) is O(1).  Theorem 4.2 generalises the ratio to
``(3 + 2ε) / (3 + ε)`` and the amortised cost to ``8/ε``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.mapping import Mapping, optimal_mapping


def competitive_ratio_bound(epsilon: float = 1.0) -> float:
    """ILF competitive-ratio bound of the ε-parameterised algorithm (Thm 4.2)."""
    if not 0 < epsilon <= 1:
        raise ValueError("epsilon must be in (0, 1]")
    return (3.0 + 2.0 * epsilon) / (3.0 + epsilon)


def amortized_cost_bound(epsilon: float = 1.0) -> float:
    """Amortised per-tuple communication bound of the ε algorithm (Thm 4.2)."""
    if not 0 < epsilon <= 1:
        raise ValueError("epsilon must be in (0, 1]")
    return 8.0 / epsilon


@dataclass
class MigrationDecision:
    """Outcome of one controller check."""

    migrate: bool
    new_mapping: Mapping
    old_mapping: Mapping
    committed_r: float
    committed_s: float


@dataclass
class MigrationController:
    """Algorithm 2 bookkeeping (with the ε generalisation of Theorem 4.2).

    Args:
        machines: number of joiners J (must be a power of two: the
            candidate mappings are its power-of-two factorisations).
        epsilon: adaptation aggressiveness; 1.0 reproduces Algorithm 2.
        r_size: size units of one left-relation tuple.
        s_size: size units of one right-relation tuple.
        warmup_tuples: number of (scaled) tuples to observe before the first
            migration may be considered — the paper's "initiate adaptivity"
            threshold used in §5.4.
        min_improvement: relative ILF improvement a new mapping must offer
            before a migration is actually triggered.  Algorithm 2 migrates on
            any strict improvement; with the 1/J-sampled statistics of Alg. 1 a
            near-tie can flip back and forth on noise alone, so a small margin
            avoids thrashing without affecting the competitive analysis (a
            mapping within ``min_improvement`` of the optimum trivially keeps
            the ratio within the bound times ``1 + min_improvement``).
    """

    machines: int
    epsilon: float = 1.0
    r_size: float = 1.0
    s_size: float = 1.0
    warmup_tuples: float = 0.0
    min_improvement: float = 0.0

    committed_r: float = 0.0
    committed_s: float = 0.0
    delta_r: float = 0.0
    delta_s: float = 0.0
    decisions: int = 0
    migrations_triggered: int = 0

    def __post_init__(self) -> None:
        if not 0 < self.epsilon <= 1:
            raise ValueError("epsilon must be in (0, 1]")

    # ------------------------------------------------------------ observation

    def observe(self, is_left: bool, increment: float = 1.0) -> None:
        """Account ``increment`` newly arrived (estimated global) tuples.

        A reshuffler that sees a 1/J random sample of the input passes
        ``increment=J`` (the scaled increment of Alg. 1); an exact/centralised
        counter passes 1.
        """
        if is_left:
            self.delta_r += increment
        else:
            self.delta_s += increment

    @property
    def total_r(self) -> float:
        """Current estimate of |R| (committed + delta)."""
        return self.committed_r + self.delta_r

    @property
    def total_s(self) -> float:
        """Current estimate of |S| (committed + delta)."""
        return self.committed_s + self.delta_s

    @property
    def total(self) -> float:
        """Total tuples observed."""
        return self.total_r + self.total_s

    # --------------------------------------------------------------- decision

    def threshold_reached(self) -> bool:
        """Whether ``|ΔR| ≥ ε|R|`` or ``|ΔS| ≥ ε|S|`` (Alg. 2 line 2)."""
        if self.total < self.warmup_tuples:
            return False
        trigger_r = self.delta_r >= self.epsilon * self.committed_r and self.delta_r > 0
        trigger_s = self.delta_s >= self.epsilon * self.committed_s and self.delta_s > 0
        return trigger_r or trigger_s

    def optimal_for_totals(self) -> Mapping:
        """Optimal mapping for the current totals (Alg. 2 line 3)."""
        return optimal_mapping(
            self.machines, max(self.total_r, 1.0), max(self.total_s, 1.0), self.r_size, self.s_size
        )

    def check(self, current_mapping: Mapping) -> MigrationDecision | None:
        """Run the migration decision (Alg. 2).

        Returns ``None`` when the threshold has not been reached.  When it has,
        the deltas are committed and a :class:`MigrationDecision` is returned;
        ``decision.migrate`` tells whether the optimal mapping actually changed.
        """
        if not self.threshold_reached():
            return None
        new_mapping = self.optimal_for_totals()
        current_ilf = self.current_ilf(current_mapping)
        optimal_ilf = self.current_ilf(new_mapping)
        self.committed_r = self.total_r
        self.committed_s = self.total_s
        self.delta_r = 0.0
        self.delta_s = 0.0
        self.decisions += 1
        migrate = (
            new_mapping != current_mapping
            and optimal_ilf < current_ilf * (1.0 - self.min_improvement)
        )
        if migrate:
            self.migrations_triggered += 1
        return MigrationDecision(
            migrate=migrate,
            new_mapping=new_mapping,
            old_mapping=current_mapping,
            committed_r=self.committed_r,
            committed_s=self.committed_s,
        )

    # -------------------------------------------------------------- reporting

    def current_ilf(self, mapping: Mapping) -> float:
        """ILF of ``mapping`` under the current totals."""
        return mapping.ilf(self.total_r, self.total_s, self.r_size, self.s_size)

    def optimal_ilf(self) -> float:
        """ILF of the instantaneous optimal mapping under the current totals."""
        return self.optimal_for_totals().ilf(
            self.total_r, self.total_s, self.r_size, self.s_size
        )

    def competitive_ratio(self, mapping: Mapping) -> float:
        """Observed ILF / ILF* ratio for ``mapping`` right now (Fig. 8c)."""
        optimal = self.optimal_ilf()
        if optimal <= 0:
            return 1.0
        return self.current_ilf(mapping) / optimal
