"""Scaled-down TPC-H-like data generation with Zipf skew.

The generator is deterministic given ``(scale, skew, seed)``.  Skew is applied
to the foreign-key attributes that drive the paper's equi-joins (``suppkey``
and ``orderkey`` references inside LINEITEM): under skewed settings a few
suppliers/orders receive most of the lineitems, which is precisely what breaks
content-sensitive (hash) partitioning in Table 2 while leaving the
content-insensitive operator unaffected.

Tables are built on demand, one column subset at a time, under one draw
contract: every value comes from one seeded RNG in a fixed order (SUPPLIER,
then ORDERS, then LINEITEM, row by row, column by column), and each draw
consumes exactly the 32-bit words of the stdlib method it stands for
(``randrange``, ``randint`` and ``choice`` are ``Random._randbelow``'s
``getrandbits`` redraw loop inline; ``uniform`` and a Zipf key are one
``random()``).  A column nobody reads still makes its draw, so a table is
replayed from the RNG state at its start, bit-identical to a full generation
by the stdlib methods (``tests/test_data_generation.py`` checks it).
"""

from __future__ import annotations

import random
from bisect import bisect_left
from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterator, Sequence

from repro.data import schema
from repro.data.rows import RowPool
from repro.data.skew import ZipfSampler, skew_parameter

Record = Mapping[str, object]


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

    def table(
        self, name: str, columns: Sequence[str] | None = None, *, pool: RowPool | None = None
    ) -> list[Record]:
        """Records of table ``name``, holding only ``columns`` (all by default).

        Each record is a read-only row of ``row_type(columns)``
        (:mod:`repro.data.rows`), one row object per distinct value tuple:
        equal records are the same row.  Rows come from ``pool`` when given
        (a :class:`~repro.data.rows.RowPool` of these columns, so two tables
        can share rows), else from a pool of this call's own.  Every call
        generates the values afresh; nothing is cached but the RNG state at
        the start of each table.

        Raises:
            KeyError: for an unknown table.
            ValueError: for no column, one the table does not have, or a
                ``pool`` of other columns.
        """
        columns = schema.COLUMNS[name] if columns is None else tuple(columns)
        if pool is None:
            pool = RowPool(columns)
        elif pool.fields != columns:
            raise ValueError(f"a pool of {pool.fields} cannot build rows of {columns}")
        return list(map(pool.__getitem__, self._values(name, columns)))

    def rows(self, name: str, columns: Sequence[str]) -> Iterator[tuple]:
        """Rows of table ``name`` as value tuples in ``columns`` order, lazily.

        Columns left out are drawn (so later values stay the same), not built.

        Raises:
            KeyError: for an unknown table.
            ValueError: for no column, or one the table does not have.
        """
        values = self._values(name, columns)
        return zip(values) if len(columns) == 1 else values

    def _values(self, name: str, columns: Sequence[str]) -> Iterator:
        """:meth:`rows`, but a one-column read yields bare values, not
        1-tuples (the key a :class:`~repro.data.rows.RowPool` of one field
        takes)."""
        unknown = set(columns) - set(schema.COLUMNS[name])
        if unknown:
            raise ValueError(f"table {name} has no column(s) {sorted(unknown)}")
        if not columns:
            raise ValueError(f"read at least one column of {name}")
        if name not in _ROW_LOOPS:
            static = _static_rows(name)
            if len(columns) == 1:
                return (row[columns[0]] for row in static)
            return (tuple(row[c] for c in columns) for row in static)
        rng = random.Random()
        rng.setstate(self._start_state(name))
        drawn = _ROW_LOOPS[name](self, rng, frozenset(columns))
        keep = [schema.COLUMNS[name].index(column) for column in columns]
        return map(itemgetter(*keep), drawn)

    def cardinality(self, name: str) -> int:
        """Row count of table ``name``."""
        return schema.TABLE_SPECS[name].cardinality(self.scale)

    def _start_state(self, name: str) -> tuple:
        """RNG state just before table ``name``'s first draw."""
        if name not in self._states:
            rng, tables = random.Random(self.seed), list(_ROW_LOOPS)
            if name != tables[0]:
                previous = tables[tables.index(name) - 1]
                rng.setstate(self._start_state(previous))
                deque(_ROW_LOOPS[previous](self, rng, frozenset()), maxlen=0)
            self._states[name] = rng.getstate()
        return self._states[name]


def _supplier_rows(data: TpchDataset, rng: random.Random, wanted: frozenset) -> Iterator[tuple]:
    """``nationkey = randrange(25)``, ``acctbal = round(uniform(-999.99, 9999.99), 2)``."""
    random_, getrandbits = rng.random, rng.getrandbits
    nations = len(schema.NATION_NAMES)
    nation_bits = nations.bit_length()
    low, span, priced = -999.99, 9999.99 - -999.99, "acctbal" in wanted
    for suppkey in range(1, data.cardinality("SUPPLIER") + 1):
        nationkey = getrandbits(nation_bits)
        while nationkey >= nations:
            nationkey = getrandbits(nation_bits)
        acctbal = random_()
        if priced:
            acctbal = round(low + span * acctbal, 2)
        yield suppkey, f"Supplier#{suppkey:06d}", nationkey, acctbal


def _order_rows(data: TpchDataset, rng: random.Random, wanted: frozenset) -> Iterator[tuple]:
    """``custkey = randrange(1, max(2, |ORDERS| // 10))``, ``orderstatus = choice("OFP")``,
    ``totalprice = round(uniform(900, 500000), 2)``, ``shippriority = choice(...)``."""
    random_, getrandbits, count = rng.random, rng.getrandbits, data.cardinality("ORDERS")
    statuses, priorities = "OFP", schema.ORDER_PRIORITIES
    customers, n_statuses, n_priorities = max(2, count // 10) - 1, len(statuses), len(priorities)
    customer_bits, status_bits = customers.bit_length(), n_statuses.bit_length()
    priority_bits = n_priorities.bit_length()
    low, span, priced = 900.0, 500000.0 - 900.0, "totalprice" in wanted
    for orderkey in range(1, count + 1):
        custkey = getrandbits(customer_bits)
        while custkey >= customers:
            custkey = getrandbits(customer_bits)
        status = getrandbits(status_bits)
        while status >= n_statuses:
            status = getrandbits(status_bits)
        totalprice = random_()
        if priced:
            totalprice = round(low + span * totalprice, 2)
        priority = getrandbits(priority_bits)
        while priority >= n_priorities:
            priority = getrandbits(priority_bits)
        yield orderkey, custkey + 1, statuses[status], totalprice, priorities[priority]


def _lineitem_rows(data: TpchDataset, rng: random.Random, wanted: frozenset) -> Iterator[tuple]:
    """Zipf ``orderkey`` and ``suppkey``, ``quantity = randint(1, 50)``, ``extendedprice =
    round(uniform(900, 100000), 2)``, ``shipdate = randint(1, 60)``, two ``choice``s."""
    random_, getrandbits, rows = rng.random, rng.getrandbits, data.cardinality
    orders = "orderkey" in wanted and ZipfSampler(rows("ORDERS"), data.skew).cumulative
    suppliers = "suppkey" in wanted and ZipfSampler(rows("SUPPLIER"), data.skew).cumulative
    dates, modes, instructs = schema.SHIP_DATE_RANGE, schema.SHIP_MODES, schema.SHIP_INSTRUCTIONS
    quantity_bits, date_bits = (50).bit_length(), dates.bit_length()
    n_modes, n_instructs = len(modes), len(instructs)
    mode_bits, instruct_bits = n_modes.bit_length(), n_instructs.bit_length()
    low, span, priced = 900.0, 100000.0 - 900.0, "extendedprice" in wanted
    for linenumber in range(1, rows("LINEITEM") + 1):
        orderkey = random_()
        if orders:
            orderkey = bisect_left(orders, orderkey) + 1
        suppkey = random_()
        if suppliers:
            suppkey = bisect_left(suppliers, suppkey) + 1
        quantity = getrandbits(quantity_bits)
        while quantity >= 50:
            quantity = getrandbits(quantity_bits)
        extendedprice = random_()
        if priced:
            extendedprice = round(low + span * extendedprice, 2)
        shipdate = getrandbits(date_bits)
        while shipdate >= dates:
            shipdate = getrandbits(date_bits)
        mode = getrandbits(mode_bits)
        while mode >= n_modes:
            mode = getrandbits(mode_bits)
        instruct = getrandbits(instruct_bits)
        while instruct >= n_instructs:
            instruct = getrandbits(instruct_bits)
        yield (orderkey, suppkey, linenumber, quantity + 1, extendedprice, shipdate + 1,
               modes[mode], instructs[instruct])


#: The row loop of each table that draws from the dataset's RNG, in draw
#: order.  A loop yields every column in schema order; an unread Zipf or
#: uniform column keeps its raw ``random()`` in its place, never built.
_ROW_LOOPS = {"SUPPLIER": _supplier_rows, "ORDERS": _order_rows, "LINEITEM": _lineitem_rows}


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
