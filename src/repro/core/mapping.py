"""(n, m)-mapping schemes, input-load factor and the grid placement.

Under the grid-layout partitioning scheme of §3.1/§3.4 the join matrix is
divided into ``n × m = J`` congruent rectangular regions: the left relation is
split into ``n`` partitions and the right one into ``m`` partitions, and the
machine at grid cell ``(i, j)`` stores partitions ``R_i`` and ``S_j`` and
evaluates ``R_i ⋈ S_j``.

The **input-load factor** (ILF) of a mapping is the per-machine input/storage
size ``size_R·|R|/n + size_S·|S|/m`` — the only performance metric that
depends on the chosen mapping (§3.3).  The optimal mapping minimises it.

:class:`GridPlacement` assigns physical machines to grid cells with a *dyadic*
layout: machine ``k``'s row is given by the high bits of ``k`` and its column
by the bit-reversed low bits.  This makes row indexes coarsen (``row >> 1``)
and column indexes refine (``2·col + bit``) when the mapping moves from
``(n, m)`` to ``(n/2, 2m)``, which is exactly the structure that the
locality-aware migration of §4.2.1 (Fig. 3) exploits: the non-exchanged
relation is a pure local discard and the exchanged relation moves only between
sibling pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator

# The accepted machine-to-cell layouts live in a dependency-free leaf so
# RunConfig validation and GridPlacement share one authority.
from repro.api.layouts import LAYOUTS


def is_power_of_two(value: int) -> bool:
    """True when ``value`` is a positive power of two."""
    return value >= 1 and (value & (value - 1)) == 0


def require_power_of_two(machines: int, what: str) -> None:
    """Raise ``ValueError`` unless ``machines`` is a power of two.

    The message names ``what`` requires it and the nearest valid sizes
    (J=12 -> "use 8 or 16"): the operator has no general-J decomposition.
    """
    if is_power_of_two(machines):
        return
    if machines < 1:
        nearest = "1"
    else:
        lower = 1 << (machines.bit_length() - 1)
        nearest = f"{lower} or {2 * lower}"
    raise ValueError(
        f"{what} requires a power-of-two number of joiners, "
        f"got J={machines}; use {nearest}"
    )


def bit_reverse(value: int, bits: int) -> int:
    """Reverse the lowest ``bits`` bits of ``value``."""
    result = 0
    for _ in range(bits):
        result = (result << 1) | (value & 1)
        value >>= 1
    return result


@dataclass(frozen=True, order=True)
class Mapping:
    """An ``(n, m)``-mapping scheme: ``n`` row partitions × ``m`` column partitions."""

    n: int
    m: int

    def __post_init__(self) -> None:
        if self.n < 1 or self.m < 1:
            raise ValueError("mapping dimensions must be positive")

    @property
    def machines(self) -> int:
        """Number of machines the mapping uses (``J = n·m``)."""
        return self.n * self.m

    def ilf(
        self,
        r_count: float,
        s_count: float,
        r_size: float = 1.0,
        s_size: float = 1.0,
    ) -> float:
        """Input-load factor of this mapping for the given cardinalities."""
        return r_size * r_count / self.n + s_size * s_count / self.m

    def region_area(self, r_count: float, s_count: float) -> float:
        """Join-matrix cells evaluated per machine (independent of n, m)."""
        return r_count * s_count / self.machines

    def neighbours(self) -> list["Mapping"]:
        """The two mappings reachable by a single dyadic step (Lemma 4.2)."""
        result = []
        if self.n % 2 == 0:
            result.append(Mapping(self.n // 2, self.m * 2))
        if self.m % 2 == 0:
            result.append(Mapping(self.n * 2, self.m // 2))
        return result

    def __str__(self) -> str:
        return f"({self.n},{self.m})"


def power_of_two_mappings(machines: int) -> list[Mapping]:
    """All ``(n, m)`` mappings with ``n·m = machines`` and both powers of two."""
    require_power_of_two(machines, "power_of_two_mappings")
    bits = machines.bit_length() - 1
    return [Mapping(1 << a, 1 << (bits - a)) for a in range(bits + 1)]


def square_mapping(machines: int) -> Mapping:
    """The ``(√J, √J)`` mapping used to initialise operators (StaticMid's scheme).

    For non-square powers of two the row count gets the extra factor of two,
    e.g. J=32 -> (8, 4)... rounded toward a balanced split: (4, 8).
    """
    require_power_of_two(machines, "square_mapping")
    bits = machines.bit_length() - 1
    n = 1 << (bits // 2)
    return Mapping(n, machines // n)


#: ``power_of_two_mappings(J)`` per J, for :func:`optimal_mapping`: the
#: controller asks for ILF* on every tuple it samples.
_CANDIDATES: dict[int, tuple[Mapping, ...]] = {}


def optimal_mapping(
    machines: int,
    r_count: float,
    s_count: float,
    r_size: float = 1.0,
    s_size: float = 1.0,
) -> Mapping:
    """The power-of-two mapping minimising the ILF for the given cardinalities.

    Ties are broken toward the more balanced (smaller ``|n - m|``) mapping so
    the choice is deterministic.
    """
    candidates = _CANDIDATES.get(machines)
    if candidates is None:
        candidates = _CANDIDATES[machines] = tuple(power_of_two_mappings(machines))
    return min(
        candidates,
        key=lambda mapping: (
            mapping.ilf(r_count, s_count, r_size, s_size),
            abs(mapping.n - mapping.m),
            mapping.n,
        ),
    )


def ilf_lower_bound(
    machines: int, r_count: float, s_count: float, r_size: float = 1.0, s_size: float = 1.0
) -> float:
    """Continuous lower bound ``2·√(size_R·|R|·size_S·|S|/J)`` on the semi-perimeter.

    This is the bound the competitive ratios of §3.4 and §4.2 are stated
    against; the actual optimal power-of-two mapping can be up to ~1.07× above
    it (Theorem 3.2).
    """
    if machines < 1:
        raise ValueError("machines must be positive")
    return 2.0 * math.sqrt(r_size * r_count * s_size * s_count / machines)


@dataclass(frozen=True)
class GridPlacement:
    """Assignment of machines to the cells of an ``(n, m)`` grid.

    Args:
        mapping: the grid shape.
        machine_ids: the physical machine ids used, in local-index order; by
            default machines ``0..J-1``.
        layout: ``"dyadic"`` (default) uses the bit-reversal layout that makes
            one-step migrations pairwise-local (Fig. 3); ``"row_major"`` is a
            naive layout used as the non-locality-aware ablation baseline.
    """

    mapping: Mapping
    machine_ids: tuple[int, ...] = ()
    layout: str = "dyadic"
    # Memoised per-row/per-column fan-out lists (placement is immutable).
    _row_fanout: dict = field(default_factory=dict, compare=False, repr=False)
    _col_fanout: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not is_power_of_two(self.mapping.n) or not is_power_of_two(self.mapping.m):
            raise ValueError("GridPlacement requires power-of-two mapping dimensions")
        if self.layout not in LAYOUTS:
            raise ValueError(f"layout must be one of {', '.join(map(repr, LAYOUTS))}")
        ids = self.machine_ids or tuple(range(self.mapping.machines))
        if len(ids) != self.mapping.machines:
            raise ValueError(
                f"placement needs exactly {self.mapping.machines} machines, got {len(ids)}"
            )
        object.__setattr__(self, "machine_ids", tuple(ids))

    # ----------------------------------------------------------- cell lookup

    @property
    def _col_bits(self) -> int:
        return self.mapping.m.bit_length() - 1

    def cell_of_local(self, local_index: int) -> tuple[int, int]:
        """Grid cell of the machine with local index ``local_index``."""
        if self.layout == "row_major":
            return local_index // self.mapping.m, local_index % self.mapping.m
        bits = self._col_bits
        row = local_index >> bits
        col = bit_reverse(local_index & (self.mapping.m - 1), bits)
        return row, col

    def local_at(self, row: int, col: int) -> int:
        """Local machine index assigned to cell ``(row, col)``."""
        if not (0 <= row < self.mapping.n and 0 <= col < self.mapping.m):
            raise IndexError(f"cell ({row}, {col}) outside {self.mapping}")
        if self.layout == "row_major":
            return row * self.mapping.m + col
        bits = self._col_bits
        return (row << bits) | bit_reverse(col, bits)

    def cell_of(self, machine_id: int) -> tuple[int, int]:
        """Grid cell of a physical machine id."""
        return self.cell_of_local(self.machine_ids.index(machine_id))

    def machine_at(self, row: int, col: int) -> int:
        """Physical machine id assigned to cell ``(row, col)``."""
        return self.machine_ids[self.local_at(row, col)]

    # ------------------------------------------------------------- fan-out

    def machines_for_row(self, row: int) -> tuple[int, ...]:
        """Machines storing left-relation partition ``row`` (one per column).

        Memoised: the reshufflers call this once per routed tuple.
        """
        cached = self._row_fanout.get(row)
        if cached is None:
            cached = tuple(self.machine_at(row, col) for col in range(self.mapping.m))
            self._row_fanout[row] = cached
        return cached

    def machines_for_col(self, col: int) -> tuple[int, ...]:
        """Machines storing right-relation partition ``col`` (one per row)."""
        cached = self._col_fanout.get(col)
        if cached is None:
            cached = tuple(self.machine_at(row, col) for row in range(self.mapping.n))
            self._col_fanout[col] = cached
        return cached

    def cells(self) -> Iterator[tuple[int, tuple[int, int]]]:
        """Iterate over ``(machine_id, (row, col))`` for every cell."""
        for local_index, machine_id in enumerate(self.machine_ids):
            yield machine_id, self.cell_of_local(local_index)

    # ----------------------------------------------------------- assignments

    def r_interval(self, machine_id: int) -> tuple[float, float]:
        """Salt interval of the left relation assigned to ``machine_id``."""
        row, _ = self.cell_of(machine_id)
        return row / self.mapping.n, (row + 1) / self.mapping.n

    def s_interval(self, machine_id: int) -> tuple[float, float]:
        """Salt interval of the right relation assigned to ``machine_id``."""
        _, col = self.cell_of(machine_id)
        return col / self.mapping.m, (col + 1) / self.mapping.m
