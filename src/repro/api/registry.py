"""Pluggable component registries of the public API.

Three registries replace the string-switches that used to be scattered
through the code base:

* **operators** — operator kind name → operator class (was the ``dict``
  switch inside :func:`repro.core.baselines.make_operator`),
* **probe_engines** — engine name → probe-engine strategy (was the hardcoded
  ``"vectorized" | "scalar"`` branch inside :mod:`repro.joins.local`),
* **predicate_kinds** — predicate ``kind`` → local-join algorithm (was the
  if/elif chain inside :func:`repro.joins.local.make_local_joiner`).

The registries live in this dependency-free leaf module so that any layer can
populate them at import time without cycles: :mod:`repro.joins.local`
registers the built-in probe engines and predicate kinds,
:mod:`repro.core.baselines` / :mod:`repro.core.operator` register the
built-in operators, and :mod:`repro.api` re-exports the ``register_*``
helpers for third-party extensions.  New backends and scenarios land by
registering — no core module needs touching.
"""

from __future__ import annotations

from typing import Any, Iterator


class Registry:
    """A named string → component mapping with helpful failure modes.

    Lookups of unknown names raise :class:`ValueError` listing the registered
    choices; duplicate registrations raise unless ``replace=True`` is passed
    (so a typo can never silently shadow a built-in).
    """

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._entries: dict[str, Any] = {}

    def register(self, name: str, value: Any, *, replace: bool = False) -> Any:
        """Register ``value`` under ``name``; returns ``value`` for chaining."""
        if not name or not isinstance(name, str):
            raise ValueError(f"{self.kind} names must be non-empty strings, got {name!r}")
        if not replace and name in self._entries:
            raise ValueError(
                f"{self.kind} {name!r} is already registered; "
                f"pass replace=True to override it"
            )
        self._entries[name] = value
        return value

    def unregister(self, name: str) -> None:
        """Remove ``name`` (KeyError-free; used by tests and plugins)."""
        self._entries.pop(name, None)

    def get(self, name: str) -> Any:
        """Look up ``name``, raising a choice-listing error when unknown."""
        try:
            return self._entries[name]
        except KeyError:
            raise ValueError(
                f"unknown {self.kind} {name!r}; registered choices: "
                f"{', '.join(sorted(self._entries)) or '(none)'}"
            ) from None

    def names(self) -> tuple[str, ...]:
        """The registered names, sorted."""
        return tuple(sorted(self._entries))

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._entries))

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Registry {self.kind}: {', '.join(self.names()) or '(empty)'}>"


#: Machine-to-cell layouts supported by the grid placement
#: (:class:`repro.core.mapping.GridPlacement`).  Defined in this leaf module
#: so both that class and :class:`repro.api.config.RunConfig` can validate
#: against one authority without an api ⇄ core import cycle.
LAYOUTS = ("dyadic", "row_major")

#: Operator kind → operator class (``Dynamic``, ``StaticMid``, ...).
operators = Registry("operator")

#: Probe-engine name → :class:`repro.joins.local.ProbeEngine` strategy.
probe_engines = Registry("probe engine")

#: Predicate ``kind`` → :class:`repro.api.registry.PredicateKind` spec.
predicate_kinds = Registry("predicate kind")

#: Batching plane name → :class:`repro.engine.batching.BatchController`
#: subclass (``RunConfig.batching`` values: ``"fixed"``, ``"adaptive"``, ...).
batch_controllers = Registry("batch controller")


class PredicateKind:
    """What the system needs to know about one predicate ``kind``.

    Attributes:
        name: the kind string predicates advertise (``"equi"``, ``"band"``, ...).
        joiner_factory: callable ``(predicate, left_relation, right_relation,
            engine) -> LocalJoiner`` building the local join algorithm serving
            this kind.
        predicate_class: optional canonical predicate class, for introspection
            and config-driven construction.
    """

    __slots__ = ("name", "joiner_factory", "predicate_class")

    def __init__(self, name: str, joiner_factory, predicate_class=None) -> None:
        self.name = name
        self.joiner_factory = joiner_factory
        self.predicate_class = predicate_class


def register_operator(name: str, operator_class, *, replace: bool = False):
    """Register an operator class under ``name`` for :func:`repro.api.build_operator`.

    The class must accept ``(query, config=RunConfig)`` construction (subclass
    :class:`repro.core.operator.GridJoinOperator` to inherit it).
    """
    return operators.register(name, operator_class, replace=replace)


def register_probe_engine(name: str, engine, *, replace: bool = False):
    """Register a probe-engine strategy (see :class:`repro.joins.local.ProbeEngine`)."""
    return probe_engines.register(name, engine, replace=replace)


def register_predicate(
    name: str, joiner_factory, predicate_class=None, *, replace: bool = False
) -> PredicateKind:
    """Register a predicate ``kind`` with the local-join algorithm serving it."""
    spec = PredicateKind(name, joiner_factory, predicate_class)
    return predicate_kinds.register(name, spec, replace=replace)


def register_batch_controller(name: str, controller_class, *, replace: bool = False):
    """Register a batching plane (see :class:`repro.engine.batching.BatchController`).

    The class is instantiated once per machine and per run with
    ``controller_class(batch_max=...)`` when it advertises ``drains=True``;
    non-draining planes (the built-in ``"fixed"``) are only validated against.
    """
    return batch_controllers.register(name, controller_class, replace=replace)
