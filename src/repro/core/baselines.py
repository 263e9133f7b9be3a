"""The baseline operators of the evaluation (§5, "Operators").

* **StaticMid** — a static operator with the fixed ``(√J, √J)`` mapping: the
  best guess when nothing is known about the stream sizes.
* **StaticOpt** — a static operator with the optimal mapping, which requires
  oracle knowledge of the final stream sizes (unattainable online); Dynamic
  is expected to track it closely.
* **SHJ** — the parallel symmetric hash join: content-sensitive partitioning
  on the join key, applicable to equi-joins only, efficient without skew but
  crippled by skewed key distributions.

:data:`OPERATORS` names every operator kind; :func:`repro.api.build_operator`
looks kinds up there.
"""

from __future__ import annotations

from repro.api.config import RunConfig
from repro.core.mapping import Mapping
from repro.core.operator import (
    AdaptiveJoinOperator,
    GridJoinOperator,
    theoretical_optimal_mapping,
)
from repro.core.tasks import HashReshufflerTask, ReshufflerTask
from repro.data.queries import JoinQuery


class StaticMidOperator(GridJoinOperator):
    """Static operator with the fixed ``(√J, √J)`` mapping."""

    operator_name = "StaticMid"


class StaticOptOperator(GridJoinOperator):
    """Static operator with the omniscient optimal mapping (oracle baseline)."""

    operator_name = "StaticOpt"

    def _initial_mapping(self) -> Mapping:
        return theoretical_optimal_mapping(self.query, self.machines)


class SymmetricHashOperator(GridJoinOperator):
    """Parallel symmetric hash join (content-sensitive, equi-joins only)."""

    operator_name = "SHJ"

    def __init__(self, query: JoinQuery, config: RunConfig) -> None:
        if query.predicate.kind != "equi":
            raise ValueError(
                f"the SHJ operator supports only equi-join predicates; "
                f"{query.name} uses {query.predicate.describe()}"
            )
        super().__init__(query, config)

    def _reshuffler_class(self) -> type[ReshufflerTask]:
        return HashReshufflerTask


#: Operator kind → operator class.
OPERATORS: dict[str, type[GridJoinOperator]] = {
    operator.operator_name: operator
    for operator in (
        AdaptiveJoinOperator,
        StaticMidOperator,
        StaticOptOperator,
        SymmetricHashOperator,
    )
}
