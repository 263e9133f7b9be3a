"""The typed run configuration — single source of truth for every run knob.

Historically every entry point wired the operator up differently:
``GridJoinOperator.__init__`` took ~14 loose keyword arguments, the bench
layer's ``ExperimentConfig`` re-declared an overlapping subset with different
defaults, and benchmarks/examples hand-rolled the plumbing in between.
:class:`RunConfig` replaces all of that: one frozen, eagerly validated
dataclass holding every operator/run knob, shared verbatim by the operator
layer, the :class:`~repro.api.session.JoinSession` facade, the bench harness
and the CLI (``--config file.json``).

Validation happens at construction — an invalid ``probe_engine`` or
``layout`` fails immediately with the registered choices listed, instead of
deep inside ``LocalJoiner`` / ``GridPlacement`` construction mid-run.

``to_dict()`` / ``from_dict()`` round-trip exactly (pinned by tests), so a
config can be serialised into CI breadcrumbs and fed back through the CLI.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Any

# Importing the built-in engine/predicate/batching registrations; keeps
# validation meaningful even when repro.api.config is imported before the
# rest of repro.
import repro.engine.batching  # noqa: F401  (populates the batch-controller registry)
import repro.joins.local  # noqa: F401  (populates the probe-engine registry)
from repro.api.registry import LAYOUTS, batch_controllers, probe_engines
from repro.engine.faults import (
    FaultSpec,
    normalize_fault_schedule,
    normalize_network_faults,
)

#: Arrival interleavings understood by the stream layer
#: (see :func:`repro.engine.stream.interleave_streams`).
ARRIVAL_PATTERNS = ("uniform", "alternate", "r_first", "s_first")


@dataclass(frozen=True, slots=True)
class RunConfig:
    """Every knob of one operator run, validated eagerly, immutable.

    Field defaults are the *operator's* tuned defaults (e.g. ``batch_size=None``
    selects the batched data plane's ``DEFAULT_BATCH_SIZE``); layers that need
    different reference semantics (the paper-figure drivers pin
    ``batch_size=1``) say so explicitly instead of re-declaring defaults.

    Attributes:
        machines: number of joiners J (the operator requires a power of two).
        seed: seed controlling tuple salts, arrival interleaving and routing.
        epsilon: the ε of Theorem 4.2 (1.0 = Algorithm 2 as published).
        warmup_tuples: minimum estimated global tuple count before the first
            migration may be considered; ``None`` = ``4.0 * machines``.
        layout: machine-to-cell layout, ``"dyadic"`` or ``"row_major"``.
        blocking: model the blocking actuation protocol instead of Alg. 3.
        memory_capacity: per-machine storage budget; ``None`` = unbounded.
        sample_every: controller sampling period for ILF/ratio time series.
        batch_size: data-plane micro-batch size; ``None`` selects the tuned
            default (64), ``1`` the per-tuple reference plane.  Fixed plane
            only — the adaptive plane sizes its runs dynamically and rejects
            an explicit ``batch_size``.
        probe_engine: joiner probe engine; must name a registered engine.
        batching: batching plane; must name a registered batch controller.
            ``"fixed"`` (default) is the sender-side micro-batch plane sized
            by ``batch_size``; ``"adaptive"`` keeps the wire per-tuple and
            coalesces backlog at the receiver — bit-identical results and
            virtual times to ``batch_size=1`` (pinned by the conformance
            suite), with the event/wall-clock savings of batching.  The
            plane also picks the wire: ``"adaptive"`` runs on the merged
            wire (per-channel ``DeliveryRun`` heap events, settled in exact
            per-tuple order), the fixed plane on the unmerged reference wire.
        batch_max: largest run the adaptive controller may coalesce
            (``None`` = the controller's default, 64).  Rejected when
            ``batching="fixed"``.
        arrival_pattern: interleaving of the two input streams (pacing).
        inter_arrival: virtual-time gap between consecutive arrivals (pacing;
            0 = joiners fully utilised).
        fault_schedule: deterministic machine crashes to inject — a sequence
            of :class:`~repro.engine.faults.FaultSpec` entries (build them
            with :func:`~repro.engine.faults.crash` /
            :func:`~repro.engine.faults.crash_after_events`); plain dicts are
            accepted for the JSON round trip.  Empty (default) = no faults.
            Requires the non-blocking protocol (``blocking=False``).
        checkpoint_interval: journal deltas a task may accumulate before its
            next epoch-aligned durable snapshot; ``None`` (default) disables
            checkpointing unless a fault schedule is present, in which case
            recovery replays the full journal.  Fault-free runs with an
            interval set stay bit-identical to the reference plane (pinned by
            the conformance suite).
        ack_timeout: virtual time after a crash at which the coordinator
            detects the failure (the default restart instant) and the link
            layer first retries buffered traffic to the dead machine.
        max_retries: link-layer retry attempts (with doubling backoff) for
            traffic addressed to a crashed machine before the run fails with
            an unreachable-machine error.
        network_faults: deterministic wire-level faults to inject — a
            sequence of :class:`~repro.engine.faults.NetworkFaultSpec`
            entries (build them with :func:`~repro.engine.faults.drop` /
            :func:`~repro.engine.faults.duplicate` /
            :func:`~repro.engine.faults.delay` /
            :func:`~repro.engine.faults.partition`); plain dicts are accepted
            for the JSON round trip.  Empty (default) = the ideal wire, with
            every run bit-identical to a build without the wire plane.  A
            non-empty schedule installs the reliable-delivery sublayer
            (per-link sequence numbers, dedup, in-order release, retransmit
            timers) that masks the faults: the run's final output multiset is
            identical to the fault-free twin's.  Requires the non-blocking
            protocol (``blocking=False``); composes with ``fault_schedule``.
        retry_base: virtual-time backoff of the reliable wire's first
            retransmit of a lost frame; subsequent attempts double it.
        retry_max_attempts: retransmissions of one frame the reliable wire
            spends before declaring the link dead with
            :class:`~repro.engine.faults.UnreachableLinkError` (never a hang).
    """

    machines: int = 16
    seed: int = 0
    epsilon: float = 1.0
    warmup_tuples: float | None = None
    layout: str = "dyadic"
    blocking: bool = False
    memory_capacity: float | None = None
    sample_every: int = 200
    batch_size: int | None = None
    probe_engine: str = "vectorized"
    batching: str = "fixed"
    batch_max: int | None = None
    arrival_pattern: str = "uniform"
    inter_arrival: float = 0.0
    fault_schedule: tuple = ()
    checkpoint_interval: int | None = None
    ack_timeout: float = 5.0
    max_retries: int = 5
    network_faults: tuple = ()
    retry_base: float = 0.5
    retry_max_attempts: int = 10

    # ------------------------------------------------------------- validation

    def _check_types(self) -> None:
        expectations = (
            ("machines", self.machines, int, False),
            ("seed", self.seed, int, False),
            ("epsilon", self.epsilon, (int, float), False),
            ("warmup_tuples", self.warmup_tuples, (int, float), True),
            ("layout", self.layout, str, False),
            ("blocking", self.blocking, bool, False),
            ("memory_capacity", self.memory_capacity, (int, float), True),
            ("sample_every", self.sample_every, int, False),
            ("batch_size", self.batch_size, int, True),
            ("probe_engine", self.probe_engine, str, False),
            ("batching", self.batching, str, False),
            ("batch_max", self.batch_max, int, True),
            ("arrival_pattern", self.arrival_pattern, str, False),
            ("inter_arrival", self.inter_arrival, (int, float), False),
            ("checkpoint_interval", self.checkpoint_interval, int, True),
            ("ack_timeout", self.ack_timeout, (int, float), False),
            ("max_retries", self.max_retries, int, False),
            ("retry_base", self.retry_base, (int, float), False),
            ("retry_max_attempts", self.retry_max_attempts, int, False),
        )
        for name, value, types, optional in expectations:
            if optional and value is None:
                continue
            valid = isinstance(value, types)
            if valid and types is not bool and isinstance(value, bool):
                valid = False  # bool is an int subclass; numeric knobs reject it
            if not valid:
                expected = types.__name__ if isinstance(types, type) else "int | float"
                raise ValueError(
                    f"RunConfig.{name} must be {'None or ' if optional else ''}"
                    f"of type {expected}, got {value!r}"
                )

    def _check_fault_overlaps(self) -> None:
        """Reject statically-provable overlapping crash windows eagerly.

        A machine must be back up before its next crash fires.  For
        time-anchored faults the outage window is known at construction —
        ``[at_time, at_time + (restart_after or ack_timeout))`` — so two
        overlapping windows on one machine can be rejected here, listing the
        conflicting specs, instead of deep in the simulator mid-run.  Two
        event-anchored faults with the *same* anchor provably collide too
        (the first crash fires both).  Mixed or distinct event anchors depend
        on the run's virtual timeline and stay a runtime error.
        """
        by_machine: dict[int, list[FaultSpec]] = {}
        for fault in self.fault_schedule:
            by_machine.setdefault(fault.machine, []).append(fault)
        for faults in by_machine.values():
            anchors: dict[int, FaultSpec] = {}
            for fault in faults:
                if fault.after_events is None:
                    continue
                other = anchors.get(fault.after_events)
                if other is not None:
                    raise ValueError(
                        "overlapping fault_schedule entries: "
                        f"{other!r} and {fault!r} crash machine "
                        f"{fault.machine} at the same event anchor"
                    )
                anchors[fault.after_events] = fault
            timed = sorted(
                (fault for fault in faults if fault.at_time is not None),
                key=lambda fault: fault.at_time,
            )
            for earlier, later in zip(timed, timed[1:]):
                restart = earlier.at_time + (
                    earlier.restart_after
                    if earlier.restart_after is not None
                    else self.ack_timeout
                )
                if later.at_time < restart:
                    raise ValueError(
                        "overlapping fault_schedule entries: "
                        f"{earlier!r} (down until t={restart}) and "
                        f"{later!r} crash machine {later.machine} "
                        "while it is already down"
                    )

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "fault_schedule", normalize_fault_schedule(self.fault_schedule)
        )
        object.__setattr__(
            self, "network_faults", normalize_network_faults(self.network_faults)
        )
        self._check_types()
        if self.machines < 1:
            raise ValueError(f"machines must be >= 1, got {self.machines}")
        if self.epsilon <= 0:
            raise ValueError(f"epsilon must be > 0, got {self.epsilon}")
        if self.warmup_tuples is not None and self.warmup_tuples < 0:
            raise ValueError(f"warmup_tuples must be >= 0, got {self.warmup_tuples}")
        if self.layout not in LAYOUTS:
            raise ValueError(
                f"unknown layout {self.layout!r}; choices: {', '.join(LAYOUTS)}"
            )
        if self.memory_capacity is not None and self.memory_capacity <= 0:
            raise ValueError(
                f"memory_capacity must be positive or None, got {self.memory_capacity}"
            )
        if self.sample_every < 1:
            raise ValueError(f"sample_every must be >= 1, got {self.sample_every}")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1 or None, got {self.batch_size}")
        if self.probe_engine not in probe_engines:
            raise ValueError(
                f"unknown probe engine {self.probe_engine!r}; registered choices: "
                f"{', '.join(probe_engines.names())}"
            )
        if self.batching not in batch_controllers:
            raise ValueError(
                f"unknown batching {self.batching!r}; registered choices: "
                f"{', '.join(batch_controllers.names())}"
            )
        controller_class = batch_controllers.get(self.batching)
        if not getattr(controller_class, "drains", False):
            if self.batch_max is not None:
                raise ValueError(
                    f"batch_max is an adaptive-controller parameter; "
                    f"batching={self.batching!r} sizes batches statically via "
                    "batch_size"
                )
        else:
            if self.batch_size is not None:
                raise ValueError(
                    f"batch_size applies to the fixed plane only; "
                    f"batching={self.batching!r} sizes its runs dynamically "
                    "(cap them with batch_max instead)"
                )
            if self.batch_max is not None and self.batch_max < 1:
                raise ValueError(f"batch_max must be >= 1 or None, got {self.batch_max}")
            if self.blocking:
                raise ValueError(
                    "adaptive batching requires the non-blocking migration "
                    "protocol (blocking=False): the blocking protocol's "
                    "buffered-resume control messages charge CPU time, which "
                    "a coalesced run cannot reproduce per-tuple-exactly"
                )
        if self.arrival_pattern not in ARRIVAL_PATTERNS:
            raise ValueError(
                f"unknown arrival_pattern {self.arrival_pattern!r}; "
                f"choices: {', '.join(ARRIVAL_PATTERNS)}"
            )
        if self.inter_arrival < 0:
            raise ValueError(f"inter_arrival must be >= 0, got {self.inter_arrival}")
        for fault in self.fault_schedule:
            if not isinstance(fault, FaultSpec):  # normalize_fault_schedule guarantees
                raise ValueError(f"fault_schedule entry is not a FaultSpec: {fault!r}")
            if fault.machine >= self.machines:
                raise ValueError(
                    f"fault_schedule machine {fault.machine} out of range; "
                    f"choices: 0..{self.machines - 1} (machines={self.machines})"
                )
        self._check_fault_overlaps()
        for spec in self.network_faults:
            for machine in spec.machines():
                if machine >= self.machines:
                    raise ValueError(
                        f"network_faults machine {machine} out of range in "
                        f"{spec!r}; choices: 0..{self.machines - 1} "
                        f"(machines={self.machines})"
                    )
        if self.network_faults and self.blocking:
            raise ValueError(
                "network fault injection requires the non-blocking migration "
                "protocol (blocking=False), like fault_schedule"
            )
        if self.retry_base <= 0:
            raise ValueError(f"retry_base must be > 0, got {self.retry_base}")
        if self.retry_max_attempts < 1:
            raise ValueError(
                f"retry_max_attempts must be >= 1, got {self.retry_max_attempts}"
            )
        if self.fault_schedule and self.blocking:
            raise ValueError(
                "fault injection requires the non-blocking migration protocol "
                "(blocking=False): recovery is framed as an involuntary "
                "migration, which the blocking protocol's buffered-resume "
                "control flow does not model"
            )
        if self.checkpoint_interval is not None and self.checkpoint_interval < 1:
            raise ValueError(
                f"checkpoint_interval must be >= 1 or None, got {self.checkpoint_interval}"
            )
        if self.ack_timeout <= 0:
            raise ValueError(f"ack_timeout must be > 0, got {self.ack_timeout}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")

    # -------------------------------------------------------------- overrides

    def with_overrides(self, **overrides: Any) -> "RunConfig":
        """A copy with ``overrides`` applied (and re-validated).

        Unknown keys raise immediately with the accepted field names listed —
        a typo can never silently fall through to an untyped kwargs dict.
        """
        if not overrides:
            return self
        self._check_keys(overrides)
        return dataclasses.replace(self, **overrides)

    @classmethod
    def _check_keys(cls, mapping: dict[str, Any]) -> None:
        fields = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(mapping) - fields)
        if unknown:
            raise ValueError(
                f"unknown RunConfig field(s): {', '.join(unknown)}; "
                f"accepted: {', '.join(sorted(fields))}"
            )

    # ---------------------------------------------------------- serialisation

    def to_dict(self) -> dict[str, Any]:
        """A JSON-safe dict such that ``RunConfig.from_dict(c.to_dict()) == c``."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "RunConfig":
        """Rebuild a config from :meth:`to_dict` output (validates keys/values)."""
        if not isinstance(data, dict):
            raise ValueError(f"RunConfig.from_dict expects a dict, got {type(data).__name__}")
        cls._check_keys(data)
        return cls(**data)

    def to_json(self) -> str:
        """The config as a JSON object string (CI breadcrumbs, ``--config``)."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        """Parse a JSON object string produced by :meth:`to_json`."""
        return cls.from_dict(json.loads(text))

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        """Load a config from a JSON file (the CLI's ``--config file.json``)."""
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))
