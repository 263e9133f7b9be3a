"""Locality-aware state migration plans (§4.2.1 Fig. 3).

Every joiner's state is described by two *salt intervals*: the sub-range of
``[0, 1)`` of left-relation salts and of right-relation salts it must store
under a given mapping/placement.  A migration plan compares the old and the
new assignment of every machine and derives, per machine:

* the **kept** portion (old ∩ new) — stays put, no cost,
* the **discarded** portion (old \\ new) — dropped locally, no network cost,
* the **fetched** portion (new \\ old) — must be received from a designated
  sender that held it under the old assignment.

Under the dyadic grid placement a one-step mapping change ``(n, m) →
(n/2, 2m)`` makes the fetched portion of the non-exchanged relation empty and
the fetched portion of the exchanged relation exactly the partner machine's
holdings — reproducing the pairwise exchange of Fig. 3 and its ``2·|R|/n``
cost bound (Lemma 4.4).  The same machinery also covers the naive
full-repartitioning strategy used as an ablation baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.core.mapping import GridPlacement

Interval = tuple[float, float]


# --------------------------------------------------------------------------
# Interval arithmetic on half-open sub-intervals of [0, 1)
# --------------------------------------------------------------------------

def interval_length(intervals: Iterable[Interval]) -> float:
    """Total length of a collection of disjoint intervals."""
    return sum(max(0.0, high - low) for low, high in intervals)


def interval_intersection(a: Interval, b: Interval) -> Interval | None:
    """Intersection of two half-open intervals, or None when empty."""
    low = max(a[0], b[0])
    high = min(a[1], b[1])
    if high <= low:
        return None
    return (low, high)


def interval_difference(a: Interval, b: Interval) -> list[Interval]:
    """``a \\ b`` as a list of at most two disjoint intervals."""
    overlap = interval_intersection(a, b)
    if overlap is None:
        return [a] if a[1] > a[0] else []
    pieces = []
    if a[0] < overlap[0]:
        pieces.append((a[0], overlap[0]))
    if overlap[1] < a[1]:
        pieces.append((overlap[1], a[1]))
    return pieces


def subtract_many(base: Interval, removals: Sequence[Interval]) -> list[Interval]:
    """``base`` minus every interval in ``removals``."""
    remaining = [base] if base[1] > base[0] else []
    for removal in removals:
        next_remaining: list[Interval] = []
        for piece in remaining:
            next_remaining.extend(interval_difference(piece, removal))
        remaining = next_remaining
    return remaining


def point_in(value: float, interval: Interval) -> bool:
    """Whether ``value`` lies inside the half-open interval."""
    return interval[0] <= value < interval[1]


# --------------------------------------------------------------------------
# State assignments and transfer plans
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class StateAssignment:
    """The state one machine is responsible for under a given placement."""

    machine_id: int
    r_interval: Interval
    s_interval: Interval

    def interval(self, side: str) -> Interval:
        """Interval for relation side 'R' or 'S'."""
        if side == "R":
            return self.r_interval
        if side == "S":
            return self.s_interval
        raise ValueError(f"side must be 'R' or 'S', got {side!r}")


def assignments_for(placement: GridPlacement) -> dict[int, StateAssignment]:
    """State assignment of every machine used by ``placement``."""
    result = {}
    for machine_id, _cell in placement.cells():
        result[machine_id] = StateAssignment(
            machine_id=machine_id,
            r_interval=placement.r_interval(machine_id),
            s_interval=placement.s_interval(machine_id),
        )
    return result


@dataclass(frozen=True)
class TransferInstruction:
    """One sender → receiver state transfer of a salt interval of one relation side."""

    sender: int
    receiver: int
    side: str            # 'R' or 'S'
    interval: Interval

    def covers(self, salt: float) -> bool:
        """Whether a tuple with this salt belongs to the transfer."""
        return point_in(salt, self.interval)


@dataclass
class MigrationPlan:
    """Complete per-machine relocation plan between two placements.

    Attributes:
        old_assignments / new_assignments: machine → state responsibility
            before and after the migration (a machine absent from the old
            placement has no old assignment).
        transfers: every sender → receiver interval transfer.
    """

    old_assignments: dict[int, StateAssignment]
    new_assignments: dict[int, StateAssignment]
    transfers: list[TransferInstruction] = field(default_factory=list)
    # Lazily grouped transfers per (sender, side): destinations_for runs once
    # per stored tuple during a migration, so the full-list scan is too hot.
    _outgoing_by_side: dict = field(default_factory=dict, compare=False, repr=False)

    # ------------------------------------------------------------- structure

    def senders_to(self, machine_id: int) -> set[int]:
        """Machines expected to send state to ``machine_id``."""
        return {t.sender for t in self.transfers if t.receiver == machine_id}

    def receivers_from(self, machine_id: int) -> set[int]:
        """Machines ``machine_id`` is expected to send state to."""
        return {t.receiver for t in self.transfers if t.sender == machine_id}

    # ------------------------------------------------------- per-tuple logic

    def keeps(self, machine_id: int, side: str, salt: float) -> bool:
        """Whether a stored tuple stays on ``machine_id`` under the new placement."""
        assignment = self.new_assignments.get(machine_id)
        if assignment is None:
            return False
        return point_in(salt, assignment.interval(side))

    def destinations_for(self, machine_id: int, side: str, salt: float) -> list[int]:
        """Receivers to which ``machine_id`` must forward a stored tuple."""
        key = (machine_id, side)
        group = self._outgoing_by_side.get(key)
        if group is None:
            group = [t for t in self.transfers if t.sender == machine_id and t.side == side]
            self._outgoing_by_side[key] = group
        return [t.receiver for t in group if t.covers(salt)]

    # ------------------------------------------------------ volume estimates

    def expected_transfer_volume(
        self, r_count: float, s_count: float, r_size: float = 1.0, s_size: float = 1.0
    ) -> float:
        """Expected size units moved, given relation cardinalities.

        A transfer of an interval of length ``ℓ`` of relation R moves about
        ``ℓ·|R|`` tuples since salts are uniform.
        """
        volume = 0.0
        for transfer in self.transfers:
            length = transfer.interval[1] - transfer.interval[0]
            if transfer.side == "R":
                volume += length * r_count * r_size
            else:
                volume += length * s_count * s_size
        return volume


def _preferred_sender(
    holders: list[StateAssignment],
    receiver_old: StateAssignment | None,
    old_placements_cells: dict[int, tuple[int, int]],
    side: str,
) -> StateAssignment:
    """Pick the designated sender among old holders of a needed interval.

    Preference order implements the locality-aware exchange: (1) an old
    holder sharing the receiver's old column (for R transfers) or old row
    (for S transfers) — the pairwise partner of Fig. 3 — and (2) the lowest
    machine id as a deterministic fallback.
    """
    if receiver_old is not None and receiver_old.machine_id in old_placements_cells:
        receiver_cell = old_placements_cells[receiver_old.machine_id]
        for holder in holders:
            holder_cell = old_placements_cells.get(holder.machine_id)
            if holder_cell is None:
                continue
            if side == "R" and holder_cell[1] == receiver_cell[1]:
                return holder
            if side == "S" and holder_cell[0] == receiver_cell[0]:
                return holder
    return min(holders, key=lambda holder: holder.machine_id)


def plan_migration(
    old_placement: GridPlacement,
    new_placement: GridPlacement,
) -> MigrationPlan:
    """Build the locality-aware migration plan between two placements.

    Args:
        old_placement: placement in force before the migration.
        new_placement: target placement.

    Returns:
        A :class:`MigrationPlan` whose transfers cover, exactly once, every
        piece of state some machine needs but did not hold.
    """
    old_assignments = assignments_for(old_placement)
    new_assignments = assignments_for(new_placement)
    old_cells = {machine_id: cell for machine_id, cell in old_placement.cells()}

    transfers: list[TransferInstruction] = []
    for receiver_id, new_assignment in new_assignments.items():
        receiver_old = old_assignments.get(receiver_id)
        for side in ("R", "S"):
            needed = new_assignment.interval(side)
            already = [receiver_old.interval(side)] if receiver_old else []
            missing_pieces = subtract_many(needed, already)
            for piece in missing_pieces:
                transfers.extend(
                    _cover_piece(
                        piece,
                        side,
                        receiver_id,
                        receiver_old,
                        old_assignments,
                        old_cells,
                    )
                )
    return MigrationPlan(
        old_assignments=old_assignments,
        new_assignments=new_assignments,
        transfers=transfers,
    )


def _cover_piece(
    piece: Interval,
    side: str,
    receiver_id: int,
    receiver_old: StateAssignment | None,
    old_assignments: dict[int, StateAssignment],
    old_cells: dict[int, tuple[int, int]],
) -> list[TransferInstruction]:
    """Cover one missing interval piece with transfers from old holders."""
    remaining = [piece]
    instructions: list[TransferInstruction] = []
    while remaining:
        fragment = remaining.pop()
        holders = [
            assignment
            for assignment in old_assignments.values()
            if interval_intersection(assignment.interval(side), fragment) is not None
        ]
        if not holders:
            raise ValueError(
                f"no old holder covers {side} interval {fragment}; "
                "old and new placements are inconsistent"
            )
        sender = _preferred_sender(holders, receiver_old, old_cells, side)
        covered = interval_intersection(sender.interval(side), fragment)
        assert covered is not None
        instructions.append(
            TransferInstruction(
                sender=sender.machine_id, receiver=receiver_id, side=side, interval=covered
            )
        )
        remaining.extend(interval_difference(fragment, covered))
    return instructions


def plan_naive_migration(
    old_placement: GridPlacement, new_placement: GridPlacement
) -> MigrationPlan:
    """Naive, non-locality-aware repartitioning plan (ablation baseline).

    The paper's §4.2.1 contrasts the locality-aware mechanism with
    "repartitioning all previous states around the joiners according to the
    new scheme" without regard for what each machine already holds.  We model
    that by assigning the new mapping's cells to machines in plain row-major
    order (ignoring the dyadic structure) and planning transfers against that
    placement: overlaps between old and new holdings largely disappear, so
    most of the state crosses the network instead of only the exchanged half.
    The plan still covers every needed interval exactly once, so running it
    through the operator remains correct — only the traffic differs.
    """
    naive_new = GridPlacement(
        mapping=new_placement.mapping,
        machine_ids=new_placement.machine_ids,
        layout="row_major",
    )
    return plan_migration(old_placement, naive_new)
