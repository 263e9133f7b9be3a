"""TPC-H-like schema definitions.

Only the tables and attributes exercised by the paper's queries are modelled:
REGION, NATION, SUPPLIER, ORDERS and LINEITEM.  Record payloads are plain
dictionaries; the column lists below document each table, and a query's
records keep only the columns its predicate reads.
"""

from __future__ import annotations

from dataclasses import dataclass

REGION_COLUMNS = ("regionkey", "name")
NATION_COLUMNS = ("nationkey", "name", "regionkey")
SUPPLIER_COLUMNS = ("suppkey", "name", "nationkey", "acctbal")
ORDERS_COLUMNS = ("orderkey", "custkey", "orderstatus", "totalprice", "shippriority")
LINEITEM_COLUMNS = (
    "orderkey",
    "suppkey",
    "linenumber",
    "quantity",
    "extendedprice",
    "shipdate",
    "shipmode",
    "shipinstruct",
)

#: Column names of every table, in generation order.
COLUMNS = {
    "REGION": REGION_COLUMNS,
    "NATION": NATION_COLUMNS,
    "SUPPLIER": SUPPLIER_COLUMNS,
    "ORDERS": ORDERS_COLUMNS,
    "LINEITEM": LINEITEM_COLUMNS,
}

#: Region names as in TPC-H.
REGION_NAMES = ("AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST")

#: The 25 TPC-H nations (name, region index).
NATION_NAMES = (
    ("ALGERIA", 0), ("ARGENTINA", 1), ("BRAZIL", 1), ("CANADA", 1),
    ("EGYPT", 4), ("ETHIOPIA", 0), ("FRANCE", 3), ("GERMANY", 3),
    ("INDIA", 2), ("INDONESIA", 2), ("IRAN", 4), ("IRAQ", 4),
    ("JAPAN", 2), ("JORDAN", 4), ("KENYA", 0), ("MOROCCO", 0),
    ("MOZAMBIQUE", 0), ("PERU", 1), ("CHINA", 2), ("ROMANIA", 3),
    ("SAUDI ARABIA", 4), ("VIETNAM", 2), ("RUSSIA", 3),
    ("UNITED KINGDOM", 3), ("UNITED STATES", 1),
)

SHIP_MODES = ("TRUCK", "MAIL", "SHIP", "AIR", "RAIL", "FOB", "REG AIR")
SHIP_INSTRUCTIONS = ("NONE", "COLLECT COD", "DELIVER IN PERSON", "TAKE BACK RETURN")
ORDER_PRIORITIES = ("1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW")

#: Number of distinct ship dates.  TPC-H spans ~2500 days while orderkeys go
#: into the millions; what matters for the BCI/BNCI distinction (§5) is that
#: the shipdate domain is much smaller than the orderkey domain, so that the
#: shipdate band join is computation-intensive (large output) and the orderkey
#: band join is not.  The scaled-down generator keeps the date domain small
#: and scale-independent to preserve that relationship at any scale factor.
SHIP_DATE_RANGE = 60


@dataclass(frozen=True)
class TableSpec:
    """Cardinality specification of one generated table.

    ``per_unit`` is the number of rows generated per unit of scale; ``fixed``
    overrides it for tables whose size does not scale (REGION, NATION).
    """

    name: str
    per_unit: int = 0
    fixed: int | None = None
    minimum: int = 1

    def cardinality(self, scale: float) -> int:
        """Row count at the given scale factor."""
        if self.fixed is not None:
            return self.fixed
        return max(self.minimum, int(round(self.per_unit * scale)))


#: Relative cardinalities per unit of scale.  With ``scale=1.0`` the dataset is
#: roughly the "10 GB" dataset of the paper shrunk by four orders of magnitude,
#: preserving the LINEITEM : ORDERS : SUPPLIER ratios of TPC-H (6e6 : 1.5e6 :
#: 1e4 per scale factor).
TABLE_SPECS = {
    "REGION": TableSpec("REGION", fixed=5),
    "NATION": TableSpec("NATION", fixed=25),
    "SUPPLIER": TableSpec("SUPPLIER", per_unit=100, minimum=10),
    "ORDERS": TableSpec("ORDERS", per_unit=1500, minimum=50),
    "LINEITEM": TableSpec("LINEITEM", per_unit=6000, minimum=200),
}
