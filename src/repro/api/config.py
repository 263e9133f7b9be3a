"""The typed run configuration: the 13 knobs of one run.

:class:`RunConfig` is one frozen, eagerly validated dataclass, shared
verbatim by the operator layer, the :class:`~repro.api.session.JoinSession`
facade and the paper scoreboard's sweeps (:mod:`repro.bench.claims`).  It is
built in code — ``RunConfig(...)``, or ``dataclasses.replace(config, ...)``
for a variant — and has no file form; a misspelt or retired knob fails by
name as the constructor's ``TypeError``.  Dataset knobs (scale, skew)
belong to the workload, not to the run.  Timing constants no run varies —
failure detection and the retransmit delay (:mod:`repro.engine.faults`),
the ILF sampling period (:mod:`repro.core.tasks`) — are module constants,
not fields.

Validation happens at construction — an invalid ``batching`` or ``layout``
fails immediately with the valid choices listed, instead of deep inside
operator / ``GridPlacement`` construction mid-run.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api.layouts import LAYOUTS
from repro.engine.faults import (
    FaultSpec,
    normalize_fault_schedule,
    normalize_network_faults,
)

#: Arrival interleavings understood by the stream layer
#: (see :func:`repro.engine.stream.interleave_streams`).
ARRIVAL_PATTERNS = ("uniform", "alternate", "r_first", "s_first")

#: Data planes (see :mod:`repro.engine.batching`): ``"adaptive"`` coalesces
#: backlog at the receiver, ``"per_tuple"`` handles every message on its own.
BATCHING_PLANES = ("adaptive", "per_tuple")


@dataclass(frozen=True, slots=True)
class RunConfig:
    """The knobs of one operator run, validated eagerly, immutable.

    Field defaults are the *operator's* tuned defaults; a layer that needs
    something else (the blocking ablation pins ``batching="per_tuple"``) says
    so explicitly instead of re-declaring defaults.

    Attributes:
        machines: number of joiners J (the operator requires a power of two).
        seed: seed controlling tuple salts, arrival interleaving and routing.
        epsilon: the ε of Theorem 4.2 (1.0 = Algorithm 2 as published).
        warmup_tuples: minimum estimated global tuple count before the first
            migration may be considered; ``None`` = ``4.0 * machines``.
        layout: machine-to-cell layout, ``"dyadic"`` or ``"row_major"``.
        blocking: model the blocking actuation protocol instead of Alg. 3.
        memory_capacity: per-machine storage budget; ``None`` = unbounded.
        batching: data plane, one of :data:`BATCHING_PLANES`.
            ``"adaptive"`` (default) keeps the wire per-tuple and coalesces
            backlog at the receiver, up to
            :data:`~repro.engine.batching.DEFAULT_BATCH_MAX` messages per
            handler invocation — bit-identical results and virtual times to
            ``"per_tuple"`` (pinned by the conformance suite), with the
            event/wall-clock savings of batching.  ``"per_tuple"`` handles
            every message on its own: the reference plane, and the only one
            the blocking protocol runs on.  Both planes run on the same wire
            (per-channel runs parked on the receiver from send, settled in
            exact per-delivery order; the heap holds only the ticks they
            wake).
        arrival_pattern: interleaving of the two input streams (pacing).
        inter_arrival: virtual-time gap between consecutive arrivals (pacing;
            0 = joiners fully utilised).
        fault_schedule: deterministic machine crashes to inject — a sequence
            of :class:`~repro.engine.faults.FaultSpec` entries, each anchored
            on a simulator event count (build them with
            :func:`~repro.engine.faults.crash_after_events`).  Each crashed
            machine restarts :data:`~repro.engine.faults.ACK_TIMEOUT` after
            its crash.  Empty (default) = no faults.  Requires the
            non-blocking protocol (``blocking=False``).
        checkpoint_interval: journal deltas a task may accumulate before its
            next epoch-aligned durable snapshot; ``None`` (default) disables
            checkpointing unless a fault schedule is present, in which case
            recovery replays the full journal.  Fault-free runs with an
            interval set stay bit-identical to the reference plane (pinned by
            the conformance suite).
        network_faults: deterministic wire-level faults to inject — a
            sequence of :class:`~repro.engine.faults.NetworkFaultSpec`
            entries (build them with :func:`~repro.engine.faults.drop` /
            :func:`~repro.engine.faults.duplicate` /
            :func:`~repro.engine.faults.delay`).  Empty (default) = the
            ideal wire, with every run bit-identical to a build without the
            wire plane.  A non-empty schedule installs the reliable-delivery
            sublayer (per-link sequence numbers, dedup, in-order release,
            one retransmit per dropped frame) that masks the faults: the
            run's final output multiset is identical to the fault-free
            twin's.  Requires the non-blocking protocol
            (``blocking=False``); composes with ``fault_schedule``.
    """

    machines: int = 16
    seed: int = 0
    epsilon: float = 1.0
    warmup_tuples: float | None = None
    layout: str = "dyadic"
    blocking: bool = False
    memory_capacity: float | None = None
    batching: str = "adaptive"
    arrival_pattern: str = "uniform"
    inter_arrival: float = 0.0
    fault_schedule: tuple = ()
    checkpoint_interval: int | None = None
    network_faults: tuple = ()

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
            ("batching", self.batching, str, False),
            ("arrival_pattern", self.arrival_pattern, str, False),
            ("inter_arrival", self.inter_arrival, (int, float), False),
            ("checkpoint_interval", self.checkpoint_interval, int, True),
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
        """Reject statically-provable overlapping crashes eagerly.

        A machine must be back up before its next crash fires.  Two crashes
        of one machine at the *same* event anchor provably collide (the
        first crash fires both), so they are rejected here, listing the
        conflicting specs, instead of deep in the simulator mid-run.
        Distinct anchors depend on the run's virtual timeline and stay a
        runtime :class:`~repro.engine.faults.OverlappingFaultError`.
        """
        anchors: dict[tuple[int, int], FaultSpec] = {}
        for fault in self.fault_schedule:
            anchor = (fault.machine, fault.after_events)
            other = anchors.get(anchor)
            if other is not None:
                raise ValueError(
                    "overlapping fault_schedule entries: "
                    f"{other!r} and {fault!r} crash machine "
                    f"{fault.machine} at the same event anchor"
                )
            anchors[anchor] = fault

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
        if self.batching not in BATCHING_PLANES:
            raise ValueError(
                f"unknown batching {self.batching!r}; "
                f"choices: {', '.join(BATCHING_PLANES)}"
            )
        if self.blocking and self.batching == "adaptive":
            raise ValueError(
                "adaptive batching requires the non-blocking migration "
                "protocol (blocking=False): the blocking protocol's "
                "buffered-resume control messages charge CPU time, which "
                "a coalesced run cannot reproduce per-tuple-exactly; use "
                'batching="per_tuple" with blocking=True'
            )
        if self.arrival_pattern not in ARRIVAL_PATTERNS:
            raise ValueError(
                f"unknown arrival_pattern {self.arrival_pattern!r}; "
                f"choices: {', '.join(ARRIVAL_PATTERNS)}"
            )
        if self.inter_arrival < 0:
            raise ValueError(f"inter_arrival must be >= 0, got {self.inter_arrival}")
        for fault in self.fault_schedule:
            if fault.machine >= self.machines:
                raise ValueError(
                    f"fault_schedule machine {fault.machine} out of range; "
                    f"choices: 0..{self.machines - 1} (machines={self.machines})"
                )
        self._check_fault_overlaps()
        for spec in self.network_faults:
            for machine in spec.link:
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
