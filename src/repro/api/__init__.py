"""repro.api — the first-class session API of the reproduction.

One coherent front door over the operator stack:

* :class:`RunConfig` — frozen, validated, serialisable configuration; the
  single source of truth for every operator/run knob.
* :class:`JoinSession` — the facade: materialised ``run()`` plus the
  incremental ``push()`` / ``finish()`` streaming mode with mid-run
  :class:`StreamSnapshot` observability.
* :func:`build_operator` — registry-backed operator construction.
* Registries — :func:`register_operator`, :func:`register_probe_engine`,
  :func:`register_predicate`, :func:`register_batch_controller` let new
  backends and scenarios plug in without touching core modules.

Quickstart::

    from repro.api import JoinSession, RunConfig

    session = JoinSession(config=RunConfig(machines=16, seed=7))
    result = session.run(query)                  # materialised

    session.push(left=chunk_a, right=chunk_b)    # streaming
    final = session.finish()
"""

from repro.api.config import ARRIVAL_PATTERNS, RunConfig
from repro.api.registry import (
    PredicateKind,
    Registry,
    batch_controllers,
    operators,
    predicate_kinds,
    probe_engines,
    register_batch_controller,
    register_operator,
    register_predicate,
    register_probe_engine,
)
from repro.api.session import JoinSession, StreamSnapshot, build_operator
from repro.engine.faults import (
    FaultSpec,
    NetworkFaultSpec,
    UnreachableLinkError,
    crash,
    crash_after_events,
    delay,
    drop,
    duplicate,
    partition,
)

__all__ = [
    "ARRIVAL_PATTERNS",
    "FaultSpec",
    "JoinSession",
    "NetworkFaultSpec",
    "PredicateKind",
    "Registry",
    "RunConfig",
    "StreamSnapshot",
    "UnreachableLinkError",
    "batch_controllers",
    "build_operator",
    "crash",
    "crash_after_events",
    "delay",
    "drop",
    "duplicate",
    "operators",
    "partition",
    "predicate_kinds",
    "probe_engines",
    "register_batch_controller",
    "register_operator",
    "register_predicate",
    "register_probe_engine",
]
