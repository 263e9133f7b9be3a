"""Deterministic fault injection: crash specifications for the simulator.

A fault schedule is a tuple of :class:`FaultSpec` entries carried on
:class:`~repro.api.config.RunConfig`.  Every crash is anchored on an event
count: the simulator watches its own ``events_processed`` counter and fails
the machine as soon as the count reaches the anchor, so the same schedule
under the same seed reproduces the same run bit for bit — which is what lets
crash scenarios live in the conformance suite like any other cell, and what
lets a streaming run (which runs the simulation dry on every push) take the
same schedule as a materialised one.

The crash model is **fail-stop at handler boundaries**: a crash lands
between simulator events, so every handler either ran to completion (its
state mutations are journaled, its sends are durably on the wire) or not at
all.  A crashed machine loses its in-memory epoch stores, and its ticks
are suspended until the coordinator detects the failure and brings up a
blank replacement, :data:`ACK_TIMEOUT` after the crash: traffic addressed
to it keeps arriving and waits at the machine, never silently dropped.
Every outage therefore ends, and a crash may only hit a machine that is up
(:class:`OverlappingFaultError` otherwise).

The module also defines the **network fault plane**: :class:`NetworkFaultSpec`
entries carried on ``RunConfig.network_faults`` describe wire-level faults —
dropping, duplicating, or delaying the nth original send on a directed link.
They are injected below the task layer by the reliable-delivery sublayer
(``ReliableWire`` in :mod:`repro.engine.network`), which masks them with
per-link sequence numbers, receiver-side dedup/in-order release, and one
sender retransmit of each lost frame, :data:`RETRANSMIT_BASE` after the
loss.  Only an original send can be dropped, so that retransmit always gets
through and a faulty run terminates by construction.  Like crash faults,
the schedule is deterministic: the same specs under the same seed reproduce
the same run bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Virtual time after a crash at which the coordinator detects the failure
#: and the blank replacement machine comes up.
ACK_TIMEOUT = 5.0

#: Virtual time after a frame is lost at which the reliable wire sends it
#: again.
RETRANSMIT_BASE = 0.5


@dataclass(frozen=True)
class FaultSpec:
    """One injected machine crash.

    Attributes:
        machine: id of the machine to crash.
        after_events: crash as soon as the simulator has processed this many
            handler events.

    The blank replacement machine comes up, and recovery starts,
    :data:`ACK_TIMEOUT` after the crash.
    """

    machine: int
    after_events: int

    def __post_init__(self) -> None:
        if not isinstance(self.machine, int) or isinstance(self.machine, bool):
            raise ValueError(f"fault machine must be an int, got {self.machine!r}")
        if self.machine < 0:
            raise ValueError(f"fault machine must be >= 0, got {self.machine}")
        if isinstance(self.after_events, bool) or not isinstance(self.after_events, int):
            raise ValueError(f"after_events must be an int, got {self.after_events!r}")
        if self.after_events < 1:
            raise ValueError(f"after_events must be >= 1, got {self.after_events}")


def crash_after_events(machine: int, events: int) -> FaultSpec:
    """Crash ``machine`` as soon as ``events`` simulator events have run."""
    return FaultSpec(machine=machine, after_events=events)


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


_NETWORK_FAULT_KINDS = ("drop", "duplicate", "delay")


@dataclass(frozen=True)
class NetworkFaultSpec:
    """One injected wire-level fault.

    Every kind targets the ``nth`` *original* send (1-based; retransmits and
    duplicates do not advance the count) on a directed
    ``link = (sender, receiver)`` machine pair.

    Attributes:
        kind: one of ``"drop"``, ``"duplicate"``, ``"delay"``.
        link: ``(sender_machine, receiver_machine)``.
        nth: 1-based index of the targeted original send on the link.
        by: virtual-time delay added to the frame's arrival (``delay`` only).
    """

    kind: str
    link: tuple | None = None
    nth: int | None = None
    by: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in _NETWORK_FAULT_KINDS:
            raise ValueError(
                f"network fault kind must be one of {_NETWORK_FAULT_KINDS}, "
                f"got {self.kind!r}"
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
            if isinstance(self.by, bool) or not isinstance(self.by, (int, float)):
                raise ValueError(f"by must be a number, got {self.by!r}")
            if self.by <= 0:
                raise ValueError(f"by must be > 0, got {self.by}")
        elif self.by is not None:
            raise ValueError(f"by= is only valid for delay faults, got {self.by!r}")


def drop(link, nth: int) -> NetworkFaultSpec:
    """Drop the ``nth`` original send on directed ``link = (sender, receiver)``."""
    return NetworkFaultSpec(kind="drop", link=tuple(link), nth=nth)


def duplicate(link, nth: int) -> NetworkFaultSpec:
    """Deliver the ``nth`` original send on ``link`` twice."""
    return NetworkFaultSpec(kind="duplicate", link=tuple(link), nth=nth)


def delay(link, nth: int, by: float) -> NetworkFaultSpec:
    """Delay the ``nth`` original send on ``link`` by ``by`` virtual time."""
    return NetworkFaultSpec(kind="delay", link=tuple(link), nth=nth, by=by)


def _spec_tuple(value, spec_type: type, name: str, helpers: str) -> tuple:
    """Coerce a list or tuple of specs into a tuple of ``spec_type``;
    anything else raises with the helpers to use listed."""
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
        faults, NetworkFaultSpec, "network_faults", "drop()/duplicate()/delay()"
    )


def normalize_fault_schedule(schedule) -> tuple[FaultSpec, ...]:
    """Coerce a fault-schedule value into a tuple of :class:`FaultSpec`."""
    return _spec_tuple(
        schedule, FaultSpec, "fault_schedule", "crash_after_events()"
    )
