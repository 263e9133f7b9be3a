"""The row contract: a generated record is a slotted, read-only Mapping.

:func:`repro.data.rows.row_type` builds one type per projection, and every
record ``make_query`` and ``TpchDataset.table`` build is one of its rows,
one row object per distinct value.  A row must behave as the dict it
replaces wherever a caller reads it (item access, ``dict()``, ``items()``,
equality, pickling), cost a fraction of its memory, and read through a
predicate's key extractor exactly as a dict does.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
import tracemalloc
from collections.abc import Mapping
from pathlib import Path
from types import MappingProxyType

import pytest

import repro
from repro.data import generate_dataset, make_query
from repro.data.queries import available_queries
from repro.data.rows import Row, RowPool, row_type
from repro.joins.predicates import BandPredicate, EquiPredicate

SUPPKEY = row_type(("suppkey",))
PAIR = row_type(("orderkey", "suppkey"))


class TestMappingContract:
    def test_item_access_and_missing_fields(self):
        row = PAIR(7, 26)
        assert row["orderkey"] == 7 and row["suppkey"] == 26
        for missing in ("shipdate", "_fields", "keys", 0, None):
            with pytest.raises(KeyError):
                row[missing]
        assert row.get("shipdate") is None and row.get("suppkey") == 26
        assert "suppkey" in row and "shipdate" not in row and "keys" not in row

    def test_views_and_dict(self):
        row = PAIR(7, 26)
        assert isinstance(row, Mapping)
        assert dict(row) == {"orderkey": 7, "suppkey": 26}
        assert list(row) == list(row.keys()) == ["orderkey", "suppkey"]
        assert list(row.items()) == [("orderkey", 7), ("suppkey", 26)]
        assert list(row.values()) == [7, 26] and len(row) == 2
        assert sorted(row.items()) == sorted({"suppkey": 26, "orderkey": 7}.items())

    def test_equality_with_the_equivalent_dict(self):
        row = SUPPKEY(26)
        assert row == {"suppkey": 26} and {"suppkey": 26} == row
        assert row == SUPPKEY(26) and [row] == [{"suppkey": 26}]
        assert row != {"suppkey": 27} and row != {"orderkey": 26}
        assert row != {"suppkey": 26, "orderkey": 1} and row != PAIR(1, 26)
        assert row.items() <= {"suppkey": 26, "orderkey": 1}.items()

    def test_read_only(self):
        row = SUPPKEY(26)
        with pytest.raises(TypeError):
            row["suppkey"] = 5
        with pytest.raises(AttributeError):
            row.suppkey = 5
        with pytest.raises(AttributeError):
            del row.suppkey
        with pytest.raises(AttributeError):
            row.extra = 1
        assert row == {"suppkey": 26}

    def test_pickle_round_trip(self):
        for row in (SUPPKEY(26), PAIR(7, 26), row_type(("shipdate",))(3.5)):
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                copy = pickle.loads(pickle.dumps(row, protocol))
                assert copy == row and type(copy) is type(row)

    def test_pickle_loads_where_the_type_was_never_built(self):
        """A row type pickles by name and is built on first use by the
        process that loads it."""
        row = row_type(("orderkey", "linenumber"))(5, 2)
        child = subprocess.run(
            [sys.executable, "-c",
             "import pickle, sys; row = pickle.loads(sys.stdin.buffer.read()); "
             "print(type(row).__qualname__, dict(row))"],
            input=pickle.dumps(row, pickle.HIGHEST_PROTOCOL),
            env={**os.environ, "PYTHONPATH": str(Path(repro.__file__).resolve().parents[1])},
            capture_output=True,
            check=True,
        )
        assert child.stdout.decode().split(maxsplit=1) == [
            "row_types.orderkey,linenumber", "{'orderkey': 5, 'linenumber': 2}\n"
        ]

    def test_pickles_in_about_the_bytes_of_a_dict(self):
        """One byte more per one-field row than per one-key dict (the args
        tuple of the call), plus the type's name once per pickle."""
        rows = [SUPPKEY(value % 200) for value in range(1000)]
        dicts = [dict(row) for row in rows]
        extra = len(pickle.dumps(rows, 5)) - len(pickle.dumps(dicts, 5))
        assert 0 < extra <= len(rows) + 64
        pairs = [PAIR(value, value % 200) for value in range(1000)]
        assert len(pickle.dumps(pairs, 5)) < len(pickle.dumps([dict(p) for p in pairs], 5))

    def test_repr(self):
        assert repr(PAIR(7, "x")) == "Row(orderkey=7, suppkey='x')"


class TestRowTypes:
    def test_one_type_per_projection(self):
        assert row_type(("suppkey",)) is SUPPKEY
        assert row_type(("suppkey", "orderkey")) is not PAIR
        assert issubclass(SUPPKEY, Row) and SUPPKEY.__slots__ == ("suppkey",)
        assert not hasattr(SUPPKEY(1), "__dict__")

    @pytest.mark.parametrize(
        "fields", [(), ("a", "a"), ("_hidden",), ("not an id",), ("keys",), ("get",)]
    )
    def test_rejected_fields(self, fields):
        with pytest.raises(ValueError):
            row_type(fields)

    def test_constructor_takes_every_field(self):
        with pytest.raises(TypeError):
            PAIR(1)
        with pytest.raises(TypeError):
            SUPPKEY(1, 2)


class TestGeneratedRecords:
    @pytest.mark.parametrize("name", available_queries())
    def test_every_query_builds_rows(self, name, small_dataset):
        query = make_query(name, small_dataset)
        for records in (query.left_records, query.right_records):
            assert records and all(isinstance(record, Row) for record in records)

    def test_tables_are_rows(self, small_dataset):
        lineitem = small_dataset.table("LINEITEM", ("suppkey", "shipdate"))
        assert {type(row) for row in lineitem} == {row_type(("suppkey", "shipdate"))}
        assert all(type(row).__slots__ == tuple(row) for row in small_dataset.table("NATION"))

    @pytest.mark.parametrize("name", available_queries())
    def test_every_query_holds_one_row_per_distinct_value(self, name, small_dataset):
        """Equal records are one row object, within a side and across the
        two sides, so a query holds as many rows as distinct values."""
        query = make_query(name, small_dataset)
        records = query.left_records + query.right_records
        first: dict = {}
        for record in records:
            assert first.setdefault((type(record), tuple(record.values())), record) is record
        assert len({id(record) for record in records}) == len(first) < len(records)

    @pytest.mark.parametrize("columns", [("suppkey",), ("suppkey", "shipdate"), None])
    def test_tables_hold_one_row_per_distinct_value(self, columns, small_dataset):
        table = small_dataset.table("LINEITEM", columns)
        first: dict = {}
        for row in table:
            assert first.setdefault(tuple(row.values()), row) is row
        assert len({id(row) for row in table}) == len(first)

    def test_tables_share_rows_through_one_pool(self, small_dataset):
        pool = RowPool(("nationkey",))
        suppliers = small_dataset.table("SUPPLIER", ("nationkey",), pool=pool)
        nations = small_dataset.table("NATION", ("nationkey",), pool=pool)
        assert {id(row) for row in suppliers} <= {id(row) for row in nations}
        assert len(pool) == len(nations) == 25
        with pytest.raises(ValueError, match="pool"):
            small_dataset.table("NATION", ("regionkey",), pool=pool)

    def test_records_take_at_most_4_bytes_each(self):
        """tracemalloc over EQ5's records at scale 1: a one-key dict takes
        184 B, a one-field row 40 B, and a query holds one row per distinct
        ``suppkey`` (100 for 6,019 records, across both sides), so ~1 B a
        record.  The first
        build fills the dataset's RNG-state cache, so the second holds only
        the query."""
        dataset = generate_dataset(scale=1, skew="Z4", seed=1)
        make_query("EQ5", dataset)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            query = make_query("EQ5", dataset)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        lists = sys.getsizeof(query.left_records) + sys.getsizeof(query.right_records)
        count = sum(query.cardinalities)
        assert count > 6000
        assert (held - lists) / count <= 4


class TestKeyExtraction:
    @pytest.mark.parametrize(
        "predicate", [EquiPredicate("suppkey", "orderkey"), BandPredicate("suppkey", "orderkey")]
    )
    def test_rows_dicts_and_other_mappings_read_alike(self, predicate):
        row = PAIR(7, 26)
        for record in (row, dict(row), MappingProxyType(dict(row))):
            assert predicate.left_key(record) == 26
            assert predicate.right_key(record) == 7
        for missing in (SUPPKEY(1), {"suppkey": 1}):
            with pytest.raises(KeyError):
                predicate.right_key(missing)
