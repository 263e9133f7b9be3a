"""The evaluation queries of §5 (Table 1) plus supporting examples.

Each query is represented as a :class:`JoinQuery`: two materialised input
streams (the paper materialises all intermediate results before online
processing) and the join predicate between them.  Projections are pushed below
the join, as the paper's engine does: a record keeps only the attributes its
predicate reads, as a read-only row of one slotted type per projection
(:func:`repro.data.rows.row_type`), not a dict.  Each builder draws its rows
from one :class:`~repro.data.rows.RowPool`, so a query holds one row object
per distinct key value: equal records are the same row, on one side or on
both (a record is never written, so sharing it changes no result).  Filters
run while the input is built, on columns the builder reads from
:meth:`TpchDataset.rows` and then drops, and a table column no query reads is
never built.  The builders run with the cyclic collector paused
(:func:`~repro.engine.collector.paused_collector`): a row is tracked by the
collector where a dict of atomic values is not, and a query's rows make no
cycles for a collection to find.

* **EQ5** — the most expensive join of TPC-H Q5:
  ``(REGION ⋈ NATION ⋈ SUPPLIER) ⋈ LINEITEM`` on ``suppkey`` (equi-join).
* **EQ7** — the most expensive join of TPC-H Q7:
  ``(SUPPLIER ⋈ NATION) ⋈ LINEITEM`` on ``suppkey`` (equi-join).
* **BCI** — computation-intensive band self-join of LINEITEM on ``shipdate``
  (output about three orders of magnitude larger than the input).
* **BNCI** — non-computation-intensive band self-join of LINEITEM on
  ``orderkey`` (output about an order of magnitude smaller than the input).
* **FLUCT** — the Fluct-Join of §5.4: ``ORDERS ⋈ LINEITEM`` on ``orderkey``
  with ship-priority filters, used with fluctuating arrival rates.
* **THETA_NEQ** — the inequality join of Fig. 1a, exercising general theta
  predicates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.data.rows import RowPool
from repro.data.tpch import Record, TpchDataset
from repro.engine.collector import paused_collector
from repro.joins.predicates import (
    BandPredicate,
    EquiPredicate,
    JoinPredicate,
    NotEqualPredicate,
)


@dataclass
class JoinQuery:
    """A two-stream join workload.

    The records are read-only mappings that no run writes.  A
    :func:`make_query` input holds one row object per distinct value, so one
    object may appear many times, on one side or on both.

    Attributes:
        name: query identifier (EQ5, EQ7, BCI, BNCI, FLUCT, THETA_NEQ).
        left_relation: logical name of the left ("R") stream.
        right_relation: logical name of the right ("S") stream.
        left_records: materialised left input.
        right_records: materialised right input.
        predicate: the join condition between left and right records.
        left_tuple_size: storage size units of a left tuple.
        right_tuple_size: storage size units of a right tuple.
    """

    name: str
    left_relation: str
    right_relation: str
    left_records: list[Record]
    right_records: list[Record]
    predicate: JoinPredicate
    left_tuple_size: float = 1.0
    right_tuple_size: float = 1.0
    description: str = ""

    @property
    def cardinalities(self) -> tuple[int, int]:
        """(|R|, |S|) cardinalities of the materialised inputs."""
        return len(self.left_records), len(self.right_records)

    def summary(self) -> str:
        """One-line description used by the benchmark reports."""
        left, right = self.cardinalities
        return (
            f"{self.name}: {self.left_relation}({left}) ⋈ "
            f"{self.right_relation}({right}) on {self.predicate.describe()}"
        )


def _supplier_side_q5(
    dataset: TpchDataset, pool: RowPool, region_name: str = "ASIA"
) -> list[Record]:
    """(REGION ⋈ NATION ⋈ SUPPLIER) restricted to one region, as ``suppkey``s.

    At very small scale factors the preferred region may contain no suppliers
    at all; in that case the most populated region is used instead so the
    query's left stream is never empty.
    """
    region_of = dict(dataset.rows("NATION", ("nationkey", "regionkey")))
    suppliers = list(dataset.rows("SUPPLIER", ("suppkey", "nationkey")))

    def side_for(region_keys: set) -> list[Record]:
        return [
            pool[suppkey]
            for suppkey, nationkey in suppliers
            if region_of[nationkey] in region_keys
        ]

    regions = list(dataset.rows("REGION", ("regionkey", "name")))
    side = side_for({key for key, name in regions if name == region_name})
    if side:
        return side
    return max((side_for({key}) for key, _name in regions), key=len)


def _supplier_side_q7(
    dataset: TpchDataset,
    pool: RowPool,
    nation_names: tuple[str, str] = ("FRANCE", "GERMANY"),
) -> list[Record]:
    """(SUPPLIER ⋈ NATION) restricted to the two Q7 nations, as ``suppkey``s.

    Falls back to the two most-populated nations when the preferred pair has
    no suppliers at tiny scale factors.
    """
    name_of = dict(dataset.rows("NATION", ("nationkey", "name")))
    suppliers = [
        (suppkey, name_of[nationkey])
        for suppkey, nationkey in dataset.rows("SUPPLIER", ("suppkey", "nationkey"))
    ]

    def side_for(names: tuple[str, ...]) -> list[Record]:
        return [pool[suppkey] for suppkey, nation in suppliers if nation in names]

    side = side_for(nation_names)
    if side:
        return side
    counts: dict[str, int] = {}
    for _suppkey, nation in suppliers:
        counts[nation] = counts.get(nation, 0) + 1
    top_two = tuple(sorted(counts, key=counts.get, reverse=True)[:2])
    return side_for(top_two)


def _lineitem_keys(dataset: TpchDataset, pool: RowPool) -> list[Record]:
    """Every LINEITEM row, projected to ``pool``'s one attribute."""
    return dataset.table("LINEITEM", pool.fields, pool=pool)


def _make_eq5(dataset: TpchDataset) -> JoinQuery:
    pool = RowPool(("suppkey",))
    return JoinQuery(
        name="EQ5",
        left_relation="RNS",
        right_relation="LINEITEM",
        left_records=_supplier_side_q5(dataset, pool),
        right_records=_lineitem_keys(dataset, pool),
        predicate=EquiPredicate("suppkey", "suppkey"),
        left_tuple_size=1.0,
        right_tuple_size=1.0,
        description="(R ⋈ N ⋈ S) ⋈ L, the most expensive join of TPC-H Q5",
    )


def _make_eq7(dataset: TpchDataset) -> JoinQuery:
    pool = RowPool(("suppkey",))
    return JoinQuery(
        name="EQ7",
        left_relation="SN",
        right_relation="LINEITEM",
        left_records=_supplier_side_q7(dataset, pool),
        right_records=_lineitem_keys(dataset, pool),
        predicate=EquiPredicate("suppkey", "suppkey"),
        description="(S ⋈ N) ⋈ L, the most expensive join of TPC-H Q7",
    )


def _make_bci(dataset: TpchDataset) -> JoinQuery:
    left: list[Record] = []
    right: list[Record] = []
    pool = RowPool(("shipdate",))
    for shipdate, shipmode, quantity in dataset.rows(
        "LINEITEM", ("shipdate", "shipmode", "quantity")
    ):
        if shipmode != "TRUCK":
            right.append(pool[shipdate])
        elif quantity > 45:
            left.append(pool[shipdate])
    return JoinQuery(
        name="BCI",
        left_relation="L1",
        right_relation="L2",
        left_records=left,
        right_records=right,
        predicate=BandPredicate("shipdate", "shipdate", width=1),
        description="computation-intensive band self-join on shipdate (high selectivity)",
    )


def _make_bnci(dataset: TpchDataset) -> JoinQuery:
    left: list[Record] = []
    right: list[Record] = []
    pool = RowPool(("orderkey",))
    for orderkey, shipmode, quantity, shipinstruct in dataset.rows(
        "LINEITEM", ("orderkey", "shipmode", "quantity", "shipinstruct")
    ):
        # A row may enter both sides, as one shared record.
        if shipmode == "TRUCK" and quantity > 48:
            left.append(pool[orderkey])
        if shipinstruct == "NONE":
            right.append(pool[orderkey])
    return JoinQuery(
        name="BNCI",
        left_relation="L1",
        right_relation="L2",
        left_records=left,
        right_records=right,
        predicate=BandPredicate("orderkey", "orderkey", width=1),
        description="non-computation-intensive band self-join on orderkey (low selectivity)",
    )


def _make_fluct(dataset: TpchDataset) -> JoinQuery:
    pool = RowPool(("orderkey",))
    orders = [
        pool[orderkey]
        for orderkey, shippriority in dataset.rows("ORDERS", ("orderkey", "shippriority"))
        if shippriority not in ("5-LOW", "1-URGENT")
    ]
    return JoinQuery(
        name="FLUCT",
        left_relation="ORDERS",
        right_relation="LINEITEM",
        left_records=orders,
        right_records=_lineitem_keys(dataset, pool),
        predicate=EquiPredicate("orderkey", "orderkey"),
        description="Fluct-Join: ORDERS ⋈ LINEITEM with shippriority filters (§5.4)",
    )


def _make_fluct_sym(dataset: TpchDataset) -> JoinQuery:
    """Balanced variant of the Fluct-Join used by the §5.4 benchmark.

    The paper drives the fluctuation experiment with ORDERS ⋈ LINEITEM at a
    1:4 cardinality ratio on an 8 GB dataset — large enough for several full
    swings of the |R|/|S| ratio.  At laptop scale the ORDERS side would be
    exhausted after a single swing, so this variant splits LINEITEM into two
    comparable halves joined on ``orderkey``, which exercises exactly the same
    operator code path while allowing several ratio swings.
    """
    halves: tuple[list[Record], list[Record]] = ([], [])
    pool = RowPool(("orderkey",))
    for orderkey, linenumber in dataset.rows("LINEITEM", ("orderkey", "linenumber")):
        halves[linenumber % 2].append(pool[orderkey])
    return JoinQuery(
        name="FLUCT_SYM",
        left_relation="L_EVEN",
        right_relation="L_ODD",
        left_records=halves[0],
        right_records=halves[1],
        predicate=EquiPredicate("orderkey", "orderkey"),
        description="balanced Fluct-Join variant for the data-dynamics experiment",
    )


def _make_theta_neq(dataset: TpchDataset) -> JoinQuery:
    pool = RowPool(("nationkey",))
    return JoinQuery(
        name="THETA_NEQ",
        left_relation="SUPPLIER",
        right_relation="NATION",
        left_records=dataset.table("SUPPLIER", pool.fields, pool=pool),
        right_records=dataset.table("NATION", pool.fields, pool=pool),
        predicate=NotEqualPredicate("nationkey", "nationkey"),
        description="inequality join of Fig. 1a (general theta predicate)",
    )


_BUILDERS = {
    "EQ5": _make_eq5,
    "EQ7": _make_eq7,
    "BCI": _make_bci,
    "BNCI": _make_bnci,
    "FLUCT": _make_fluct,
    "FLUCT_SYM": _make_fluct_sym,
    "THETA_NEQ": _make_theta_neq,
}


def available_queries() -> list[str]:
    """Names of the queries this module can build."""
    return sorted(_BUILDERS)


def make_query(name: str, dataset: TpchDataset) -> JoinQuery:
    """Build query ``name`` over ``dataset``, with the collector paused.

    Raises:
        ValueError: if the query name is unknown.
    """
    try:
        builder = _BUILDERS[name.upper()]
    except KeyError as exc:
        raise ValueError(
            f"unknown query {name!r}; available: {', '.join(available_queries())}"
        ) from exc
    with paused_collector():
        return builder(dataset)
