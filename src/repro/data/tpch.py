"""Scaled-down TPC-H-like data generation with Zipf skew.

The generator is deterministic given ``(scale, skew, seed)``.  Skew is applied
to the foreign-key attributes that drive the paper's equi-joins (``suppkey``
and ``orderkey`` references inside LINEITEM): under skewed settings a few
suppliers/orders receive most of the lineitems, which is precisely what breaks
content-sensitive (hash) partitioning in Table 2 while leaving the
content-insensitive operator unaffected.

Tables are built on demand, one column subset at a time.  All draws come from
one seeded RNG in a fixed order (SUPPLIER, then ORDERS, then LINEITEM, row by
row, column by column), so a table is replayed from the RNG state at its start
and a column nobody asked for is drawn but never stored: the values that are
built are bit-identical to those of a full generation.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from functools import partial
from operator import itemgetter
from typing import Callable, Iterator, Sequence

from repro.data import schema
from repro.data.skew import ZipfSampler, skew_parameter

Record = dict[str, object]

#: Tables whose rows draw from the dataset's RNG, in draw order.
_DRAW_ORDER = ("SUPPLIER", "ORDERS", "LINEITEM")

#: Columns computed from the row number alone, without a draw.
_DERIVED = {
    "SUPPLIER": ("suppkey", "name"),
    "ORDERS": ("orderkey",),
    "LINEITEM": ("linenumber",),
}

#: One column's value source: each call yields the next row's value.
_Draw = Callable[[], object]


@dataclass
class TpchDataset:
    """A generated dataset whose tables are built when they are read.

    Attributes:
        scale: scale factor used (1.0 ≈ the paper's 10 GB dataset, shrunk).
        skew: Zipf parameter used for foreign-key distributions.
        seed: seed of the one RNG every table draws from.
    """

    scale: float
    skew: float
    seed: int = 0
    _states: dict[str, tuple] = field(default_factory=dict, repr=False, compare=False)

    def table(self, name: str, columns: Sequence[str] | None = None) -> list[Record]:
        """Records of table ``name``, holding only ``columns`` (all by default).

        Every call generates the rows afresh; nothing is cached but the RNG
        state at the start of each table.

        Raises:
            KeyError: for an unknown table.
            ValueError: for no column, or one the table does not have.
        """
        columns = schema.COLUMNS[name] if columns is None else tuple(columns)
        return [dict(zip(columns, values)) for values in self.rows(name, columns)]

    def rows(self, name: str, columns: Sequence[str]) -> Iterator[tuple]:
        """Rows of table ``name`` as value tuples in ``columns`` order, lazily.

        Columns left out are drawn (so later values stay the same) but not
        built.

        Raises:
            KeyError: for an unknown table.
            ValueError: for no column, or one the table does not have.
        """
        unknown = set(columns) - set(schema.COLUMNS[name])
        if unknown:
            raise ValueError(f"table {name} has no column(s) {sorted(unknown)}")
        if not columns:
            raise ValueError(f"read at least one column of {name}")
        if name not in _DRAW_ORDER:
            return (tuple(row[c] for c in columns) for row in _static_rows(name))
        rng = random.Random()
        rng.setstate(self._start_state(name))
        draws = self._draws(name, rng, frozenset(columns))
        return _replay(draws, columns, self.cardinality(name))

    def cardinality(self, name: str) -> int:
        """Row count of table ``name``."""
        return schema.TABLE_SPECS[name].cardinality(self.scale)

    def _start_state(self, name: str) -> tuple:
        """RNG state just before table ``name``'s first draw."""
        if name not in self._states:
            position = _DRAW_ORDER.index(name)
            rng = random.Random(self.seed)
            if position:
                previous = _DRAW_ORDER[position - 1]
                rng.setstate(self._start_state(previous))
                draws = self._draws(previous, rng, frozenset()).values()
                for _ in range(self.cardinality(previous)):
                    for draw in draws:
                        draw()
            self._states[name] = rng.getstate()
        return self._states[name]

    def _draws(self, name: str, rng: random.Random, wanted: frozenset) -> dict[str, _Draw]:
        """Value sources of table ``name``'s columns, in its draw order.

        A Zipf or uniform column that is not ``wanted`` draws one bare
        ``random()``; any other draw runs unchanged, because how many raw
        draws it takes depends on the value.  A column derived from the row
        number draws nothing, so it is left out unless it is ``wanted``.
        """
        if name == "SUPPLIER":
            draws = {
                "suppkey": _row_numbers(),
                "name": map("Supplier#{:06d}".format, itertools.count(1)).__next__,
                "nationkey": partial(rng.randrange, len(schema.NATION_NAMES)),
                "acctbal": _uniform(rng, -999.99, 9999.99, "acctbal" in wanted),
            }
        elif name == "ORDERS":
            draws = {
                "orderkey": _row_numbers(),
                "custkey": partial(rng.randrange, 1, max(2, self.cardinality("ORDERS") // 10)),
                "orderstatus": partial(rng.choice, ("O", "F", "P")),
                "totalprice": _uniform(rng, 900.0, 500000.0, "totalprice" in wanted),
                "shippriority": partial(rng.choice, schema.ORDER_PRIORITIES),
            }
        else:
            draws = {
                "orderkey": self._zipf(rng, "ORDERS", "orderkey" in wanted),
                "suppkey": self._zipf(rng, "SUPPLIER", "suppkey" in wanted),
                "linenumber": _row_numbers(),
                "quantity": partial(rng.randint, 1, 50),
                "extendedprice": _uniform(rng, 900.0, 100000.0, "extendedprice" in wanted),
                "shipdate": partial(rng.randint, 1, schema.SHIP_DATE_RANGE),
                "shipmode": partial(rng.choice, schema.SHIP_MODES),
                "shipinstruct": partial(rng.choice, schema.SHIP_INSTRUCTIONS),
            }
        return {
            column: draw
            for column, draw in draws.items()
            if column in wanted or column not in _DERIVED[name]
        }

    def _zipf(self, rng: random.Random, referenced: str, wanted: bool) -> _Draw:
        """A foreign key into ``referenced``, Zipf-skewed over its rows."""
        if not wanted:
            return rng.random
        return ZipfSampler(self.cardinality(referenced), self.skew, rng).sample


def _uniform(rng: random.Random, low: float, high: float, wanted: bool) -> _Draw:
    """A uniform amount rounded to cents; one ``random()`` either way."""
    if not wanted:
        return rng.random
    return lambda: round(rng.uniform(low, high), 2)


def _row_numbers() -> _Draw:
    """1, 2, 3, ... on successive calls."""
    return itertools.count(1).__next__


def _replay(draws: dict[str, _Draw], columns: Sequence[str], count: int) -> Iterator[tuple]:
    """Run every draw of ``count`` rows; yield each row's ``columns`` values."""
    calls = list(draws.values())
    keep = [list(draws).index(column) for column in columns]
    if len(keep) == 1:
        (only,) = keep
        for _ in range(count):
            yield ([draw() for draw in calls][only],)
    else:
        pick = itemgetter(*keep)
        for _ in range(count):
            yield pick([draw() for draw in calls])


def _static_rows(name: str) -> list[Record]:
    """REGION and NATION: fixed tables that draw nothing."""
    if name == "REGION":
        return [
            {"regionkey": index, "name": region}
            for index, region in enumerate(schema.REGION_NAMES)
        ]
    if name == "NATION":
        return [
            {"nationkey": index, "name": nation, "regionkey": region}
            for index, (nation, region) in enumerate(schema.NATION_NAMES)
        ]
    raise KeyError(name)


def generate_dataset(
    scale: float = 1.0,
    skew: float | str = 0.0,
    seed: int = 0,
) -> TpchDataset:
    """A dataset of REGION, NATION, SUPPLIER, ORDERS and LINEITEM.

    No row is built here: :meth:`TpchDataset.table` and
    :meth:`TpchDataset.rows` generate a table, or only some of its columns,
    when it is read, and give the same values whatever else is read.

    Args:
        scale: scale factor; ``1.0`` generates roughly 6 000 LINEITEM rows
            (the paper's 10 GB dataset shrunk by ~4 orders of magnitude while
            preserving relative table sizes).
        skew: Zipf parameter or paper label ("Z0".."Z4") applied to the
            LINEITEM foreign keys.
        seed: PRNG seed; the generator is fully deterministic.
    """
    return TpchDataset(scale=scale, skew=skew_parameter(skew), seed=seed)
