"""Tests for the Zipf sampler, the TPC-H-like generator and the query builders."""

import dataclasses
import itertools
import random
import tracemalloc
from collections import Counter
from collections.abc import Iterator
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import JoinSession, RunConfig
from repro.data import schema
from repro.data.queries import available_queries, make_query
from repro.data.skew import SKEW_LEVELS, ZipfSampler, skew_parameter, zipf_choice
from repro.data import tpch
from repro.data.tpch import generate_dataset
from repro.engine.stream import fluctuating_order, interleave_streams, make_tuples
from repro.testing import assert_run_equivalent


class TestZipfSampler:
    def test_uniform_when_z_zero(self):
        sampler = ZipfSampler(4, 0.0, random.Random(0))
        counts = Counter(sampler.sample() for _ in range(8000))
        for value in range(1, 5):
            assert 0.2 < counts[value] / 8000 < 0.3

    def test_skewed_distribution_prefers_small_values(self):
        sampler = ZipfSampler(100, 1.0, random.Random(0))
        counts = Counter(sampler.sample() for _ in range(5000))
        assert counts[1] > counts.get(50, 0)
        assert counts[1] > 0.1 * 5000  # value 1 takes a large share under z=1

    def test_probability_sums_to_one(self):
        sampler = ZipfSampler(20, 0.75)
        total = sum(sampler.probability(value) for value in range(1, 21))
        assert total == pytest.approx(1.0)
        assert sampler.probability(0) == 0.0
        assert sampler.probability(21) == 0.0

    @given(st.integers(1, 200), st.floats(0.0, 1.5))
    @settings(max_examples=80)
    def test_samples_always_in_range(self, n, z):
        sampler = ZipfSampler(n, z, random.Random(1))
        for _ in range(20):
            assert 1 <= sampler.sample() <= n

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ZipfSampler(0, 0.5)
        with pytest.raises(ValueError):
            ZipfSampler(5, -0.1)

    def test_zipf_choice_and_labels(self):
        rng = random.Random(0)
        values = ["a", "b", "c"]
        assert zipf_choice(values, 1.0, rng) in values
        assert skew_parameter("Z3") == 0.75
        assert skew_parameter(0.3) == 0.3
        with pytest.raises(ValueError):
            skew_parameter("Z9")
        assert set(SKEW_LEVELS) == {"Z0", "Z1", "Z2", "Z3", "Z4"}


class TestGenerator:
    def test_deterministic_given_seed(self):
        a = generate_dataset(scale=0.2, skew="Z2", seed=5)
        b = generate_dataset(scale=0.2, skew="Z2", seed=5)
        assert a.table("LINEITEM") == b.table("LINEITEM")
        c = generate_dataset(scale=0.2, skew="Z2", seed=6)
        assert a.table("LINEITEM") != c.table("LINEITEM")

    def test_cardinalities_scale(self):
        small = generate_dataset(scale=0.5, seed=1)
        large = generate_dataset(scale=1.0, seed=1)
        assert large.cardinality("LINEITEM") == pytest.approx(
            2 * small.cardinality("LINEITEM"), rel=0.05
        )
        assert small.cardinality("REGION") == 5
        assert small.cardinality("NATION") == 25

    def test_relative_table_sizes(self):
        dataset = generate_dataset(scale=1.0, seed=1)
        assert dataset.cardinality("LINEITEM") == 4 * dataset.cardinality("ORDERS")
        assert dataset.cardinality("ORDERS") > dataset.cardinality("SUPPLIER")

    def test_schema_columns_present(self):
        dataset = generate_dataset(scale=0.2, seed=1)
        lineitem = dataset.table("LINEITEM")[0]
        assert set(schema.LINEITEM_COLUMNS) <= set(lineitem)
        supplier = dataset.table("SUPPLIER")[0]
        assert set(schema.SUPPLIER_COLUMNS) <= set(supplier)

    def test_foreign_keys_within_range(self):
        dataset = generate_dataset(scale=0.2, seed=1)
        supplier_count = dataset.cardinality("SUPPLIER")
        orders_count = dataset.cardinality("ORDERS")
        for item in dataset.table("LINEITEM"):
            assert 1 <= item["suppkey"] <= supplier_count
            assert 1 <= item["orderkey"] <= orders_count

    def test_skew_concentrates_foreign_keys(self):
        uniform = generate_dataset(scale=1.0, skew="Z0", seed=2)
        skewed = generate_dataset(scale=1.0, skew="Z4", seed=2)

        def top_share(dataset):
            counts = Counter(item["suppkey"] for item in dataset.table("LINEITEM"))
            return counts.most_common(1)[0][1] / dataset.cardinality("LINEITEM")

        assert top_share(skewed) > 3 * top_share(uniform)


class TestQueries:
    def test_available_queries(self):
        names = available_queries()
        for expected in ("EQ5", "EQ7", "BCI", "BNCI", "FLUCT", "FLUCT_SYM", "THETA_NEQ"):
            assert expected in names

    def test_unknown_query_rejected(self, small_dataset):
        with pytest.raises(ValueError):
            make_query("EQ99", small_dataset)

    def test_eq5_shape(self, small_dataset):
        query = make_query("EQ5", small_dataset)
        left, right = query.cardinalities
        assert right == small_dataset.cardinality("LINEITEM")
        assert 0 < left < small_dataset.cardinality("SUPPLIER") + 1
        assert query.predicate.kind == "equi"
        assert "EQ5" in query.summary()

    def test_eq7_filters_two_nations(self, small_dataset):
        query = make_query("EQ7", small_dataset)
        assert query.left_records, "EQ7 supplier side must not be empty"
        nation_of = {s["suppkey"]: s["nationkey"] for s in small_dataset.table("SUPPLIER")}
        nations = {nation_of[record["suppkey"]] for record in query.left_records}
        # The preferred Q7 pair (FRANCE, GERMANY) is used when populated;
        # otherwise the builder falls back to the two largest nations.
        assert len(nations) <= 2
        # The left side is exactly the suppliers of those nations.
        assert [record["suppkey"] for record in query.left_records] == [
            suppkey for suppkey, nation in nation_of.items() if nation in nations
        ]

    def test_band_queries_have_single_side_filters_applied(self, small_dataset):
        lineitem = small_dataset.table("LINEITEM")
        bci = make_query("BCI", small_dataset)
        assert [r["shipdate"] for r in bci.left_records] == [
            item["shipdate"]
            for item in lineitem
            if item["shipmode"] == "TRUCK" and item["quantity"] > 45
        ]
        assert [r["shipdate"] for r in bci.right_records] == [
            item["shipdate"] for item in lineitem if item["shipmode"] != "TRUCK"
        ]
        assert bci.predicate.kind == "band"
        bnci = make_query("BNCI", small_dataset)
        assert [r["orderkey"] for r in bnci.right_records] == [
            item["orderkey"] for item in lineitem if item["shipinstruct"] == "NONE"
        ]

    def test_bci_is_more_selective_than_bnci_in_output_rate(self, small_dataset):
        """BCI (shipdate band) produces far more output per input pair than BNCI."""
        from repro.testing import reference_join

        bci = make_query("BCI", small_dataset)
        bnci = make_query("BNCI", small_dataset)
        bci_matches = len(
            reference_join(bci.left_records, bci.right_records, bci.predicate)
        )
        bnci_matches = len(
            reference_join(bnci.left_records, bnci.right_records, bnci.predicate)
        )
        bci_rate = bci_matches / max(1, len(bci.left_records) * len(bci.right_records))
        bnci_rate = bnci_matches / max(1, len(bnci.left_records) * len(bnci.right_records))
        assert bci_rate > bnci_rate

    def test_fluct_queries(self, small_dataset):
        fluct = make_query("FLUCT", small_dataset)
        assert [record["orderkey"] for record in fluct.left_records] == [
            order["orderkey"]
            for order in small_dataset.table("ORDERS")
            if order["shippriority"] not in ("5-LOW", "1-URGENT")
        ]
        sym = make_query("FLUCT_SYM", small_dataset)
        left, right = sym.cardinalities
        assert abs(left - right) <= max(left, right)  # comparable halves

    def test_theta_query_kind(self, small_dataset):
        query = make_query("THETA_NEQ", small_dataset)
        assert query.predicate.kind == "theta"


class FullRows:
    """A dataset view that serves every read from full rows, projected by hand.

    It also records each ``(table, columns)`` pair a query builder asks for.
    """

    def __init__(self, dataset):
        self.dataset = dataset
        self.reads = []

    def rows(self, name, columns):
        self.reads.append((name, tuple(columns)))
        return [tuple(row[c] for c in columns) for row in self.dataset.table(name)]

    def table(self, name, columns=None, *, pool=None):
        columns = schema.COLUMNS[name] if columns is None else columns
        self.reads.append((name, tuple(columns)))
        return [{c: row[c] for c in columns} for row in self.dataset.table(name)]


#: At (0.1, Z0, 22) neither ASIA nor FRANCE/GERMANY has a supplier, so EQ5 and
#: EQ7 take their fallback sides.
PROJECTION_POINTS = [(0.1, "Z0", 22), (0.5, "Z4", 7)]


class TestProjectedRecords:
    @pytest.mark.parametrize("point", PROJECTION_POINTS, ids=lambda p: f"{p[0]}-{p[1]}-{p[2]}")
    @pytest.mark.parametrize("name", available_queries())
    def test_projected_build_is_bit_identical_to_full_rows(self, name, point):
        scale, skew, seed = point
        projected = make_query(name, generate_dataset(scale=scale, skew=skew, seed=seed))
        full = FullRows(generate_dataset(scale=scale, skew=skew, seed=seed))
        reference = make_query(name, full)
        assert projected.left_records == reference.left_records
        assert projected.right_records == reference.right_records
        assert projected.left_records and projected.right_records
        predicate = projected.predicate
        assert all(set(r) == {predicate.left_attr} for r in projected.left_records)
        assert all(set(r) == {predicate.right_attr} for r in projected.right_records)
        # Every column subset the builder reads replays the full table's values.
        dataset = generate_dataset(scale=scale, skew=skew, seed=seed)
        for table, columns in set(full.reads):
            assert dataset.table(table, columns) == [
                {c: row[c] for c in columns} for row in dataset.table(table)
            ]

    def test_lineitem_column_subsets_replay_the_full_table(self):
        dataset = generate_dataset(scale=0.2, skew="Z3", seed=9)
        full = dataset.table("LINEITEM")
        for columns in [("suppkey",), ("shipinstruct", "orderkey"), schema.LINEITEM_COLUMNS]:
            assert dataset.table("LINEITEM", columns) == [
                {c: row[c] for c in columns} for row in full
            ]
        with pytest.raises(ValueError):
            dataset.table("LINEITEM", ("nationkey",))
        with pytest.raises(ValueError):
            dataset.table("LINEITEM", ())

    def test_projected_build_peaks_at_half_the_memory_of_full_rows(self):
        def peak(build):
            tracemalloc.start()
            try:
                build()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        def dataset():
            return generate_dataset(scale=4, skew="Z4", seed=1)

        projected = peak(lambda: make_query("EQ5", dataset()))
        full = peak(lambda: make_query("EQ5", FullRows(dataset())))
        assert projected <= 0.55 * full

    @pytest.mark.parametrize("name", ["EQ5", "FLUCT_SYM"])
    def test_virtual_time_cannot_see_record_width(self, name):
        """``StreamTuple.size``, not the record, drives the cost model."""
        dataset = generate_dataset(scale=0.4, skew="Z4", seed=3)
        query = make_query(name, dataset)
        rng = random.Random(3)
        left = make_tuples(query.left_relation, query.left_records, rng, query.left_tuple_size)
        right = make_tuples(
            query.right_relation, query.right_records, rng, query.right_tuple_size
        )
        if name == "EQ5":
            order = interleave_streams(left, right, rng)
            suppliers = {s["suppkey"]: s for s in dataset.table("SUPPLIER")}
            wide = [suppliers[t.record["suppkey"]] for t in left]
            wide += dataset.table("LINEITEM")
        else:
            order = fluctuating_order(left, right, 4, warmup=len(left) // 50)
            lineitem = dataset.table("LINEITEM")
            wide = lineitem[1::2] + lineitem[0::2]
        assert len(schema.LINEITEM_COLUMNS) == 8 == len(wide[-1])
        # Same ids, salts and arrival order; only the payload is wider.
        widen = {t.tuple_id: dataclasses.replace(t, record=record)
                 for t, record in zip(left + right, wide)}
        assert all(
            t.record.items() <= widen[t.tuple_id].record.items() for t in left + right
        )
        wide_query = dataclasses.replace(
            query,
            left_records=[widen[t.tuple_id].record for t in left],
            right_records=[widen[t.tuple_id].record for t in right],
        )
        config = RunConfig(machines=16)
        narrow_run = JoinSession(query, config=config).run(
            arrival_order=order, collect_outputs=True
        )
        wide_run = JoinSession(wide_query, config=config).run(
            arrival_order=[widen[t.tuple_id] for t in order], collect_outputs=True
        )
        assert narrow_run.migrations >= 1
        assert_run_equivalent(narrow_run, wide_run, events=True, label=name)


def _stdlib_draws(dataset, name, rng):
    """One stdlib call per column of table ``name``, in its draw order.

    This is the closure form the generator's row loops replaced, kept as
    their oracle: every column is built, so every draw is the stdlib's own.
    """
    if name == "SUPPLIER":
        return [
            itertools.count(1).__next__,
            map("Supplier#{:06d}".format, itertools.count(1)).__next__,
            partial(rng.randrange, len(schema.NATION_NAMES)),
            lambda: round(rng.uniform(-999.99, 9999.99), 2),
        ]
    if name == "ORDERS":
        return [
            itertools.count(1).__next__,
            partial(rng.randrange, 1, max(2, dataset.cardinality("ORDERS") // 10)),
            partial(rng.choice, ("O", "F", "P")),
            lambda: round(rng.uniform(900.0, 500000.0), 2),
            partial(rng.choice, schema.ORDER_PRIORITIES),
        ]
    return [
        ZipfSampler(dataset.cardinality("ORDERS"), dataset.skew, rng).sample,
        ZipfSampler(dataset.cardinality("SUPPLIER"), dataset.skew, rng).sample,
        itertools.count(1).__next__,
        partial(rng.randint, 1, 50),
        lambda: round(rng.uniform(900.0, 100000.0), 2),
        partial(rng.randint, 1, schema.SHIP_DATE_RANGE),
        partial(rng.choice, schema.SHIP_MODES),
        partial(rng.choice, schema.SHIP_INSTRUCTIONS),
    ]


def _stdlib_generation(dataset):
    """Full tables by the stdlib calls, and the RNG state around each table."""
    rng = random.Random(dataset.seed)
    tables, states = {}, {}
    for name in ("SUPPLIER", "ORDERS", "LINEITEM"):
        before = rng.getstate()
        draws = _stdlib_draws(dataset, name, rng)
        rows = [tuple(draw() for draw in draws) for _ in range(dataset.cardinality(name))]
        tables[name] = rows
        states[name] = (before, rng.getstate())
    return tables, states


#: (scale, skew, seed).  At 0.03 ORDERS has its 50-row minimum, so ``custkey``
#: ranges over 4 values and half its draws are redrawn.
REPLAY_POINTS = [(0.03, "Z0", 5), (0.3, "Z4", 2), (1.1, "Z2", 9)]


class TestStdlibReplay:
    """The row loops draw what the stdlib methods would, word for word."""

    @pytest.mark.parametrize("point", REPLAY_POINTS, ids=lambda p: f"{p[0]}-{p[1]}-{p[2]}")
    @pytest.mark.parametrize("name", ["SUPPLIER", "ORDERS", "LINEITEM"])
    def test_every_column_subset_replays_the_stdlib(self, name, point):
        scale, skew, seed = point
        dataset = generate_dataset(scale=scale, skew=skew, seed=seed)
        tables, states = _stdlib_generation(dataset)
        before, after = states[name]
        assert dataset._start_state(name) == before
        all_columns = schema.COLUMNS[name]
        for columns in [(column,) for column in all_columns] + [all_columns]:
            keep = [all_columns.index(column) for column in columns]
            expected = [tuple(row[i] for i in keep) for row in tables[name]]
            assert list(dataset.rows(name, columns)) == expected, columns
            # The same loop, driven by hand, leaves the RNG where the
            # stdlib calls left it, whichever columns are read.
            rng = random.Random()
            rng.setstate(before)
            drawn = [tuple(row[i] for i in keep)
                     for row in tpch._ROW_LOOPS[name](dataset, rng, frozenset(columns))]
            assert drawn == expected, columns
            assert rng.getstate() == after, columns


class TestLazyRows:
    def test_rows_is_an_iterator(self):
        dataset = generate_dataset(scale=0.2, skew="Z4", seed=1)
        for name, column in [("SUPPLIER", "suppkey"), ("ORDERS", "orderkey"),
                             ("LINEITEM", "suppkey")]:
            assert isinstance(dataset.rows(name, (column,)), Iterator)

    def test_first_row_builds_no_table(self):
        def peak(read):
            dataset = generate_dataset(scale=40, skew="Z4", seed=1)
            tracemalloc.start()
            try:
                read(dataset.rows("LINEITEM", ("suppkey",)))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(next) <= 0.05 * peak(list)
