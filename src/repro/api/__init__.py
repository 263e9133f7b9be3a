"""repro.api — the first-class session API of the reproduction.

One coherent front door over the operator stack:

* :class:`RunConfig` — frozen, validated configuration; the 13 knobs of a
  run.
* :class:`JoinSession` — the facade over one query, one operator kind and
  one config: materialised ``run()`` plus the incremental ``push()`` /
  ``finish()`` streaming mode with mid-run :class:`StreamSnapshot`
  observability.
* :func:`build_operator` — the one way to build an operator:
  ``build_operator(kind, query, config)``.

Quickstart::

    from repro.api import JoinSession, RunConfig

    session = JoinSession(query, config=RunConfig(machines=16, seed=7))
    result = session.run()                       # materialised

    session.push(tuples)                         # streaming (StreamTuples)
    final = session.finish()
"""

from repro.api.config import ARRIVAL_PATTERNS, BATCHING_PLANES, RunConfig
from repro.api.session import JoinSession, StreamSnapshot, build_operator
from repro.engine.faults import (
    FaultSpec,
    NetworkFaultSpec,
    OverlappingFaultError,
    crash_after_events,
    delay,
    drop,
    duplicate,
)

__all__ = [
    "ARRIVAL_PATTERNS",
    "BATCHING_PLANES",
    "FaultSpec",
    "JoinSession",
    "NetworkFaultSpec",
    "OverlappingFaultError",
    "RunConfig",
    "StreamSnapshot",
    "build_operator",
    "crash_after_events",
    "delay",
    "drop",
    "duplicate",
]
