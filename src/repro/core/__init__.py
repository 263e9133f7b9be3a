"""Core: the adaptive online theta-join operator and its building blocks.

The sub-modules map one-to-one onto the paper's sections:

* :mod:`repro.core.join_matrix` / :mod:`repro.core.mapping` — §3 (join-matrix
  model, grid-layout partitioning, input-load factor).
* :mod:`repro.core.decision` — §4.1 (decentralised statistics, Alg. 1) and
  §4.2.1 (migration decision, Alg. 2, Thm 4.1/4.2).
* :mod:`repro.core.migration` — §4.2.1 (locality-aware migration, Fig. 3).
* :mod:`repro.core.epochs` — §4.3.1 (eventually-consistent protocol, Alg. 3).
* :mod:`repro.core.operator` / :mod:`repro.core.baselines` — §5's Dynamic,
  StaticMid, StaticOpt and SHJ operators.

§4.2.2 (general J by power-of-two groups, elastic expansion; Figs. 4/5) is
not built: every operator runs a fixed fleet of a power-of-two J joiners.
"""

from repro.core.baselines import (
    StaticMidOperator,
    StaticOptOperator,
    SymmetricHashOperator,
)
from repro.core.decision import (
    MigrationController,
    amortized_cost_bound,
    competitive_ratio_bound,
)
from repro.core.epochs import EpochJoinerState, JoinerPhase, ProtocolError
from repro.core.join_matrix import JoinMatrix, OkcanSquareScheme, mapping_spectrum
from repro.core.mapping import (
    GridPlacement,
    Mapping,
    ilf_lower_bound,
    optimal_mapping,
    power_of_two_mappings,
    square_mapping,
)
from repro.core.migration import MigrationPlan, plan_migration, plan_naive_migration
from repro.core.operator import (
    AdaptiveJoinOperator,
    GridJoinOperator,
    theoretical_optimal_mapping,
)
from repro.core.results import RunResult

__all__ = [
    "AdaptiveJoinOperator",
    "EpochJoinerState",
    "GridJoinOperator",
    "GridPlacement",
    "JoinMatrix",
    "JoinerPhase",
    "Mapping",
    "MigrationController",
    "MigrationPlan",
    "OkcanSquareScheme",
    "ProtocolError",
    "RunResult",
    "StaticMidOperator",
    "StaticOptOperator",
    "SymmetricHashOperator",
    "amortized_cost_bound",
    "competitive_ratio_bound",
    "ilf_lower_bound",
    "mapping_spectrum",
    "optimal_mapping",
    "plan_migration",
    "plan_naive_migration",
    "power_of_two_mappings",
    "square_mapping",
    "theoretical_optimal_mapping",
]
