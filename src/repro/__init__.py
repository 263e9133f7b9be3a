"""repro — reproduction of "Scalable and Adaptive Online Joins" (VLDB 2014).

The package implements the paper's adaptive, skew-resilient online theta-join
dataflow operator together with every substrate its evaluation depends on:

* :mod:`repro.core`    — the operator (mapping schemes, controller, migration,
  epoch protocol) and the static/SHJ baselines,
* :mod:`repro.engine`  — a deterministic discrete-event simulation of a
  shared-nothing cluster (the Storm/Squall stand-in),
* :mod:`repro.joins`   — local non-blocking join algorithms and predicates,
* :mod:`repro.storage` — the durable checkpoint store of the fault plane,
* :mod:`repro.data`    — TPC-H-like generation with Zipf skew and the
  evaluation queries,
* :mod:`repro.bench`   — the paper scoreboard: one table of the claims of
  §3-§5, the sweeps that measure them, and the CLI that prints it,
* :mod:`repro.api`     — the public session API: typed
  :class:`~repro.api.RunConfig`, the :class:`~repro.api.JoinSession` facade
  (one query, one operator kind and one config; materialised and streaming
  ingestion) and :func:`~repro.api.build_operator`.

Quickstart::

    from repro import JoinSession, RunConfig, generate_dataset, make_query

    dataset = generate_dataset(scale=0.5, skew="Z4", seed=7)
    query = make_query("EQ5", dataset)
    session = JoinSession(query, config=RunConfig(machines=16, seed=7))
    result = session.run()                      # materialised
    print(result.summary_row())
    session.push(tuples)                        # ... or streaming StreamTuples
    final = session.finish()
"""

from repro.api import (
    JoinSession,
    RunConfig,
    StreamSnapshot,
    build_operator,
)
from repro.core import (
    AdaptiveJoinOperator,
    GridJoinOperator,
    JoinMatrix,
    Mapping,
    MigrationController,
    RunResult,
    StaticMidOperator,
    StaticOptOperator,
    SymmetricHashOperator,
    optimal_mapping,
    square_mapping,
)
from repro.data import JoinQuery, TpchDataset, generate_dataset, make_query
from repro.engine import CostModel, Simulator
from repro.joins import (
    BandPredicate,
    EquiPredicate,
    JoinPredicate,
    ThetaPredicate,
)

__version__ = "1.0.0"

__all__ = [
    "AdaptiveJoinOperator",
    "BandPredicate",
    "CostModel",
    "EquiPredicate",
    "GridJoinOperator",
    "JoinMatrix",
    "JoinPredicate",
    "JoinQuery",
    "JoinSession",
    "Mapping",
    "MigrationController",
    "RunConfig",
    "RunResult",
    "Simulator",
    "StaticMidOperator",
    "StaticOptOperator",
    "StreamSnapshot",
    "SymmetricHashOperator",
    "ThetaPredicate",
    "TpchDataset",
    "build_operator",
    "generate_dataset",
    "make_query",
    "optimal_mapping",
    "square_mapping",
    "__version__",
]
