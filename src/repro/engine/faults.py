"""Deterministic fault injection: crash specifications for the simulator.

A fault schedule is a tuple of :class:`FaultSpec` entries carried on
:class:`~repro.api.config.RunConfig`.  The simulator executes time-anchored
faults as ordinary heap events (in a dedicated rank band above machine
ticks, so equal-time ordering is plane-invariant) and event-anchored faults
by watching its own event counter — either way, the same schedule under the
same seed reproduces the same run bit for bit, which is what lets crash
scenarios live in the conformance suite like any other cell.

The crash model is **fail-stop at handler boundaries**: a crash lands
between simulator events, so every handler either ran to completion (its
state mutations are journaled, its sends are durably on the wire) or not at
all.  A crashed machine loses its in-memory epoch stores, and its ticks
are suspended until the restart: traffic addressed to it keeps arriving and
waits at the machine, never silently dropped, and the link layer gives up
with :class:`MachineUnreachableError` if the outage outlasts its retries
(see ``Simulator``).

The module also defines the **network fault plane**: :class:`NetworkFaultSpec`
entries carried on ``RunConfig.network_faults`` describe wire-level faults —
dropping, duplicating, or delaying the nth original send on a directed link,
or partitioning two machine groups for a virtual-time window.  They are
injected below the task layer by the reliable-delivery sublayer
(``ReliableWire`` in :mod:`repro.engine.network`), which masks them with
per-link sequence numbers, receiver-side dedup/in-order release, and sender
retransmit timers with exponential backoff.  Retry exhaustion surfaces as
:class:`UnreachableLinkError` naming the link and attempt count — never a
hang.  Like crash faults, the schedule is deterministic: the same specs under
the same seed reproduce the same run bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Virtual time after a crash at which the coordinator detects the failure:
#: the default restart instant, and the first link-layer retry of traffic
#: waiting for the dead machine.
ACK_TIMEOUT = 5.0

#: Link-layer retries of traffic due at a crashed machine (the first
#: ``ACK_TIMEOUT`` after the crash, each later wait twice the one before)
#: before the run fails with :class:`MachineUnreachableError`.
OUTAGE_RETRIES = 5

#: Virtual-time backoff of the reliable wire's first retransmit of a lost
#: frame; each later attempt doubles it.
RETRANSMIT_BASE = 0.5

#: Retransmissions of one frame before the reliable wire declares the link
#: dead with :class:`UnreachableLinkError` (never a hang).
RETRANSMIT_ATTEMPTS = 10


@dataclass(frozen=True)
class FaultSpec:
    """One injected machine crash.

    Exactly one of ``at_time`` (virtual-time anchor) and ``after_events``
    (simulator event-count anchor) must be set.

    Attributes:
        machine: id of the machine to crash.
        at_time: virtual time at which the crash fires (as a heap event).
        after_events: crash as soon as the simulator has processed this many
            handler events.
        restart_after: delay, in virtual time after the crash, before a blank
            replacement machine comes up and recovery starts.  ``None`` means
            the replacement appears when the coordinator detects the failure,
            i.e. after :data:`ACK_TIMEOUT`.
    """

    machine: int
    at_time: float | None = None
    after_events: int | None = None
    restart_after: float | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.machine, int) or isinstance(self.machine, bool):
            raise ValueError(f"fault machine must be an int, got {self.machine!r}")
        if self.machine < 0:
            raise ValueError(f"fault machine must be >= 0, got {self.machine}")
        anchors = (self.at_time is not None) + (self.after_events is not None)
        if anchors != 1:
            raise ValueError(
                "exactly one of at_time= and after_events= must be set "
                f"(got at_time={self.at_time!r}, after_events={self.after_events!r})"
            )
        if self.at_time is not None:
            if isinstance(self.at_time, bool) or not isinstance(self.at_time, (int, float)):
                raise ValueError(f"at_time must be a number, got {self.at_time!r}")
            if self.at_time < 0:
                raise ValueError(f"at_time must be >= 0, got {self.at_time}")
        if self.after_events is not None:
            if isinstance(self.after_events, bool) or not isinstance(self.after_events, int):
                raise ValueError(
                    f"after_events must be an int, got {self.after_events!r}"
                )
            if self.after_events < 1:
                raise ValueError(f"after_events must be >= 1, got {self.after_events}")
        if self.restart_after is not None:
            if isinstance(self.restart_after, bool) or not isinstance(
                self.restart_after, (int, float)
            ):
                raise ValueError(
                    f"restart_after must be a number, got {self.restart_after!r}"
                )
            if self.restart_after <= 0:
                raise ValueError(
                    f"restart_after must be > 0, got {self.restart_after}"
                )


def crash(
    machine: int, at_virtual_time: float, restart_after: float | None = None
) -> FaultSpec:
    """Crash ``machine`` at a virtual-time instant."""
    return FaultSpec(machine=machine, at_time=at_virtual_time, restart_after=restart_after)


def crash_after_events(
    machine: int, events: int, restart_after: float | None = None
) -> FaultSpec:
    """Crash ``machine`` as soon as ``events`` simulator events have run."""
    return FaultSpec(machine=machine, after_events=events, restart_after=restart_after)


class UnreachableLinkError(RuntimeError):
    """A link stayed lossy past the retransmit budget.

    Raised by the reliable-delivery sublayer when a frame has been
    retransmitted :data:`RETRANSMIT_ATTEMPTS` times without getting through
    (e.g. a partition window longer than the exponential-backoff budget).
    Surfacing a named error — instead of retrying forever — is what
    guarantees every faulty run terminates.

    Attributes:
        link: the ``(sender, receiver)`` machine pair that stayed dark.
        attempts: how many retransmit attempts were spent before giving up.
    """

    def __init__(self, link: tuple, attempts: int) -> None:
        self.link = link
        self.attempts = attempts
        super().__init__(
            f"link {link[0]}->{link[1]} unreachable after "
            f"{attempts} retransmit attempts"
        )


class OverlappingFaultError(RuntimeError):
    """A crash hit a machine that was still down from an earlier crash.

    The crash schedule may only fail a machine again after its restart;
    overlapping outages are a schedule error, never silently merged.

    Attributes:
        machine: the machine the second crash targeted.
        time: the virtual time of that crash.
    """

    def __init__(self, machine: int, time: float) -> None:
        self.machine = machine
        self.time = time
        super().__init__(
            f"machine {machine} crashed while already down at virtual time "
            f"{time} (overlapping faults in the schedule)"
        )


class MachineUnreachableError(RuntimeError):
    """Traffic waited for a crashed machine past the link-layer retry budget.

    Raised when a machine stays down through :data:`OUTAGE_RETRIES`
    exponentially backed-off retries while deliveries addressed to it are
    due, so a faulty run always terminates with a named error instead of
    hanging.

    Attributes:
        machine: the machine that never came back in time.
        retries: the retry budget that was exhausted.
    """

    def __init__(self, machine: int, retries: int) -> None:
        self.machine = machine
        self.retries = retries
        super().__init__(f"machine {machine} unreachable after {retries} retries")


_NETWORK_FAULT_KINDS = ("drop", "duplicate", "delay", "partition")


def _check_number(name: str, value, *, minimum=None, strict=False) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    if minimum is not None:
        if strict and value <= minimum:
            raise ValueError(f"{name} must be > {minimum}, got {value}")
        if not strict and value < minimum:
            raise ValueError(f"{name} must be >= {minimum}, got {value}")


def _check_machine_tuple(name: str, value) -> tuple:
    if not isinstance(value, tuple) or not value:
        raise ValueError(
            f"{name} must be a non-empty tuple of machine ids, got {value!r}"
        )
    for machine in value:
        if isinstance(machine, bool) or not isinstance(machine, int) or machine < 0:
            raise ValueError(
                f"{name} entries must be ints >= 0, got {machine!r}"
            )
    if len(set(value)) != len(value):
        raise ValueError(f"{name} contains duplicate machine ids: {value!r}")
    return value


@dataclass(frozen=True)
class NetworkFaultSpec:
    """One injected wire-level fault.

    Per-send faults (``drop``/``duplicate``/``delay``) target the ``nth``
    *original* send (1-based; retransmits and duplicates do not advance the
    count) on a directed ``link = (sender, receiver)`` machine pair.
    ``partition`` severs all traffic between two machine groups (both
    directions) for the virtual-time window ``[from_time, until_time)``.

    Attributes:
        kind: one of ``"drop"``, ``"duplicate"``, ``"delay"``, ``"partition"``.
        link: ``(sender_machine, receiver_machine)`` for per-send kinds.
        nth: 1-based index of the targeted original send on the link.
        by: virtual-time delay added to the frame's arrival (``delay`` only).
        machines_a: one side of the partition (``partition`` only).
        machines_b: the other side of the partition.
        from_time: virtual time at which the partition starts (inclusive).
        until_time: virtual time at which the partition heals (exclusive).
    """

    kind: str
    link: tuple | None = None
    nth: int | None = None
    by: float | None = None
    machines_a: tuple | None = None
    machines_b: tuple | None = None
    from_time: float | None = None
    until_time: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in _NETWORK_FAULT_KINDS:
            raise ValueError(
                f"network fault kind must be one of {_NETWORK_FAULT_KINDS}, "
                f"got {self.kind!r}"
            )
        if self.kind == "partition":
            for field in ("link", "nth", "by"):
                if getattr(self, field) is not None:
                    raise ValueError(
                        f"partition faults take machines_a/machines_b/"
                        f"from_time/until_time, not {field}="
                    )
            a = _check_machine_tuple("machines_a", self.machines_a)
            b = _check_machine_tuple("machines_b", self.machines_b)
            common = set(a) & set(b)
            if common:
                raise ValueError(
                    "partition sides must be disjoint; machines "
                    f"{sorted(common)} appear on both"
                )
            _check_number("from_time", self.from_time, minimum=0)
            _check_number("until_time", self.until_time)
            if not self.until_time > self.from_time:
                raise ValueError(
                    "partition window must be non-empty: from_time="
                    f"{self.from_time} until_time={self.until_time}"
                )
            return
        for field in ("machines_a", "machines_b", "from_time", "until_time"):
            if getattr(self, field) is not None:
                raise ValueError(
                    f"{self.kind} faults take link=/nth=, not {field}="
                )
        link = self.link
        if (
            not isinstance(link, tuple)
            or len(link) != 2
            or any(
                isinstance(m, bool) or not isinstance(m, int) or m < 0
                for m in link
            )
        ):
            raise ValueError(
                "link must be a (sender, receiver) tuple of machine ids, "
                f"got {link!r}"
            )
        if link[0] == link[1]:
            raise ValueError(f"link endpoints must differ, got {link!r}")
        if isinstance(self.nth, bool) or not isinstance(self.nth, int):
            raise ValueError(f"nth must be an int, got {self.nth!r}")
        if self.nth < 1:
            raise ValueError(f"nth must be >= 1, got {self.nth}")
        if self.kind == "delay":
            _check_number("by", self.by, minimum=0, strict=True)
        elif self.by is not None:
            raise ValueError(f"by= is only valid for delay faults, got {self.by!r}")

    def machines(self) -> tuple:
        """Every machine id the spec references (for config-range checks)."""
        if self.kind == "partition":
            return self.machines_a + self.machines_b
        return self.link


def drop(link, nth: int) -> NetworkFaultSpec:
    """Drop the ``nth`` original send on directed ``link = (sender, receiver)``."""
    return NetworkFaultSpec(kind="drop", link=tuple(link), nth=nth)


def duplicate(link, nth: int) -> NetworkFaultSpec:
    """Deliver the ``nth`` original send on ``link`` twice."""
    return NetworkFaultSpec(kind="duplicate", link=tuple(link), nth=nth)


def delay(link, nth: int, by: float) -> NetworkFaultSpec:
    """Delay the ``nth`` original send on ``link`` by ``by`` virtual time."""
    return NetworkFaultSpec(kind="delay", link=tuple(link), nth=nth, by=by)


def partition(machines_a, machines_b, from_time: float, until_time: float) -> NetworkFaultSpec:
    """Sever all traffic between two machine groups for ``[from_time, until_time)``."""
    return NetworkFaultSpec(
        kind="partition",
        machines_a=tuple(machines_a),
        machines_b=tuple(machines_b),
        from_time=from_time,
        until_time=until_time,
    )


def _spec_tuple(value, spec_type: type, name: str, helpers: str) -> tuple:
    """Coerce ``None``, one spec or a sequence of specs into a tuple of
    ``spec_type``; anything else raises with the helpers to use listed."""
    if value is None:
        return ()
    if isinstance(value, spec_type):
        return (value,)
    kind = spec_type.__name__
    if not isinstance(value, (tuple, list)):
        raise ValueError(
            f"{name} must be a sequence of {kind} entries "
            f"(build them with {helpers}), got {value!r}"
        )
    for entry in value:
        if not isinstance(entry, spec_type):
            raise ValueError(
                f"{name} entries must be {kind} objects "
                f"(build them with {helpers}), got {entry!r}"
            )
    return tuple(value)


def normalize_network_faults(faults) -> tuple[NetworkFaultSpec, ...]:
    """Coerce a network-fault value into a tuple of :class:`NetworkFaultSpec`."""
    return _spec_tuple(
        faults, NetworkFaultSpec, "network_faults", "drop()/duplicate()/delay()/partition()"
    )


def normalize_fault_schedule(schedule) -> tuple[FaultSpec, ...]:
    """Coerce a fault-schedule value into a tuple of :class:`FaultSpec`."""
    return _spec_tuple(
        schedule, FaultSpec, "fault_schedule", "crash()/crash_after_events()"
    )
