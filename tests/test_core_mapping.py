"""Tests for (n, m)-mappings, ILF, optimal mapping search and the grid placement."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import JoinSession, RunConfig
from repro.core.mapping import (
    GridPlacement,
    Mapping,
    bit_reverse,
    ilf_lower_bound,
    is_power_of_two,
    optimal_mapping,
    power_of_two_mappings,
    square_mapping,
)
from repro.core.operator import GridJoinOperator


class TestMapping:
    def test_ilf_formula(self):
        mapping = Mapping(2, 8)
        assert mapping.ilf(100, 800) == pytest.approx(100 / 2 + 800 / 8)
        assert mapping.ilf(100, 800, r_size=2.0) == pytest.approx(200 / 2 + 800 / 8)
        assert mapping.machines == 16

    def test_region_area_independent_of_shape(self):
        for mapping in power_of_two_mappings(16):
            assert mapping.region_area(100, 800) == pytest.approx(100 * 800 / 16)

    def test_neighbours(self):
        assert set(Mapping(4, 4).neighbours()) == {Mapping(2, 8), Mapping(8, 2)}
        assert Mapping(1, 16).neighbours() == [Mapping(2, 8)]

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            Mapping(0, 4)

    def test_fig2_example(self):
        """The paper's Fig. 2: 1 GB × 64 GB on 64 machines."""
        square = Mapping(8, 8)
        wide = Mapping(1, 64)
        r, s = 1.0, 64.0
        assert square.ilf(r, s) == pytest.approx(8.125)   # (8 1/8) GB
        assert wide.ilf(r, s) == pytest.approx(2.0)        # 2 GB
        assert 64 * wide.ilf(r, s) == pytest.approx(128.0)


class TestOptimalMapping:
    def test_all_power_of_two_factorisations(self):
        mappings = power_of_two_mappings(16)
        assert {(m.n, m.m) for m in mappings} == {(1, 16), (2, 8), (4, 4), (8, 2), (16, 1)}
        with pytest.raises(ValueError):
            power_of_two_mappings(12)

    @pytest.mark.parametrize("machines, nearest", [(12, "8 or 16"), (3, "2 or 4"), (24, "16 or 32")])
    def test_non_power_of_two_error_names_the_nearest_sizes(self, eq5_query, machines, nearest):
        expected = f"power-of-two number of joiners, got J={machines}; use {nearest}$"
        with pytest.raises(ValueError, match=expected):
            power_of_two_mappings(machines)
        with pytest.raises(ValueError, match=expected):
            GridJoinOperator(eq5_query, RunConfig(machines=machines))

    @pytest.mark.parametrize(
        "entry", ["power_of_two_mappings", "square_mapping", "operator", "session"]
    )
    def test_every_entry_point_rejects_a_non_power_of_two_j(self, eq5_query, entry):
        calls = {
            "power_of_two_mappings": lambda: power_of_two_mappings(12),
            "square_mapping": lambda: square_mapping(12),
            "operator": lambda: GridJoinOperator(eq5_query, RunConfig(machines=12)),
            "session": lambda: JoinSession(eq5_query, config=RunConfig(machines=12)).run(),
        }
        with pytest.raises(ValueError, match="number of joiners, got J=12; use 8 or 16$"):
            calls[entry]()

    @given(st.integers(1, 1 << 20))
    @settings(max_examples=200, deadline=None)
    def test_nearest_sizes_bracket_j(self, machines):
        if is_power_of_two(machines):
            mappings = power_of_two_mappings(machines)
            assert len(mappings) == machines.bit_length()
            assert all(mapping.machines == machines for mapping in mappings)
            return
        with pytest.raises(ValueError) as error:
            power_of_two_mappings(machines)
        lower, upper = map(int, re.search(r"use (\d+) or (\d+)$", str(error.value)).groups())
        assert is_power_of_two(lower) and upper == 2 * lower
        assert lower < machines < upper

    @pytest.mark.parametrize("machines", [0, -4])
    def test_j_below_one_names_one(self, machines):
        with pytest.raises(ValueError, match=f"got J={machines}; use 1$"):
            square_mapping(machines)

    def test_optimal_matches_cardinality_ratio(self):
        assert optimal_mapping(64, 100, 6400) == Mapping(1, 64)
        assert optimal_mapping(64, 6400, 100) == Mapping(64, 1)
        assert optimal_mapping(64, 1000, 1000) == Mapping(8, 8)

    def test_square_mapping(self):
        assert square_mapping(16) == Mapping(4, 4)
        assert square_mapping(64) == Mapping(8, 8)
        mapping = square_mapping(32)
        assert mapping.machines == 32
        with pytest.raises(ValueError):
            square_mapping(20)

    @given(
        st.sampled_from([2, 4, 8, 16, 32, 64, 128]),
        st.integers(1, 10_000),
        st.integers(1, 10_000),
    )
    @settings(max_examples=200)
    def test_optimal_is_minimal_by_exhaustion(self, machines, r_count, s_count):
        best = optimal_mapping(machines, r_count, s_count)
        best_ilf = best.ilf(r_count, s_count)
        for candidate in power_of_two_mappings(machines):
            assert best_ilf <= candidate.ilf(r_count, s_count) + 1e-9

    @given(
        st.sampled_from([2, 4, 8, 16, 32, 64]),
        st.integers(1, 5_000),
        st.integers(1, 5_000),
    )
    @settings(max_examples=200)
    def test_grid_semi_perimeter_within_theorem_3_2_bound(self, machines, r_count, s_count):
        """Theorem 3.2: the grid scheme is within ~1.07× of the continuous bound
        whenever the cardinality ratio is within a factor J."""
        ratio = r_count / s_count
        if not (1.0 / machines <= ratio <= machines):
            return
        best = optimal_mapping(machines, r_count, s_count)
        bound = ilf_lower_bound(machines, r_count, s_count)
        assert best.ilf(r_count, s_count) <= 1.0701 * bound + 1e-9

    def test_is_power_of_two(self):
        assert is_power_of_two(1) and is_power_of_two(64)
        assert not is_power_of_two(0) and not is_power_of_two(12)

    def test_bit_reverse(self):
        assert bit_reverse(0b001, 3) == 0b100
        assert bit_reverse(0b110, 3) == 0b011
        assert bit_reverse(5, 0) == 0


class TestGridPlacement:
    def test_every_cell_assigned_exactly_one_machine(self):
        for mapping in power_of_two_mappings(16):
            placement = GridPlacement(mapping=mapping)
            machines = [placement.machine_at(row, col)
                        for row in range(mapping.n) for col in range(mapping.m)]
            assert sorted(machines) == list(range(16))

    def test_cell_roundtrip(self):
        placement = GridPlacement(mapping=Mapping(4, 8))
        for machine_id in range(32):
            row, col = placement.cell_of(machine_id)
            assert placement.machine_at(row, col) == machine_id

    def test_row_and_col_fanout(self):
        placement = GridPlacement(mapping=Mapping(2, 8))
        row_members = placement.machines_for_row(1)
        assert len(row_members) == 8
        col_members = placement.machines_for_col(3)
        assert len(col_members) == 2
        assert set(row_members) & set(col_members)  # they share exactly one machine

    def test_intervals_partition_unit_range(self):
        placement = GridPlacement(mapping=Mapping(4, 4))
        rows = sorted({placement.r_interval(machine) for machine, _ in placement.cells()})
        assert rows[0][0] == 0.0 and rows[-1][1] == 1.0
        total = sum(high - low for low, high in {placement.r_interval(m) for m, _ in placement.cells()})
        assert total == pytest.approx(1.0)

    def test_dyadic_property_row_coarsens_col_refines(self):
        """Moving (n, m) -> (n/2, 2m): every machine's new row is its old row's
        parent and its new column is one of its old column's children."""
        old = GridPlacement(mapping=Mapping(8, 2))
        new = GridPlacement(mapping=Mapping(4, 4))
        for machine_id in range(16):
            old_row, old_col = old.cell_of(machine_id)
            new_row, new_col = new.cell_of(machine_id)
            assert new_row == old_row // 2
            assert new_col in (2 * old_col, 2 * old_col + 1)

    def test_dyadic_property_symmetric_direction(self):
        old = GridPlacement(mapping=Mapping(4, 4))
        new = GridPlacement(mapping=Mapping(8, 2))
        for machine_id in range(16):
            old_row, old_col = old.cell_of(machine_id)
            new_row, new_col = new.cell_of(machine_id)
            assert new_col == old_col // 2
            assert new_row in (2 * old_row, 2 * old_row + 1)

    def test_row_major_layout(self):
        placement = GridPlacement(mapping=Mapping(4, 4), layout="row_major")
        assert placement.cell_of(0) == (0, 0)
        assert placement.cell_of(5) == (1, 1)
        assert placement.machine_at(2, 3) == 11

    def test_custom_machine_ids(self):
        placement = GridPlacement(mapping=Mapping(2, 2), machine_ids=(10, 11, 12, 13))
        assert set(placement.machines_for_row(0) + placement.machines_for_row(1)) == {10, 11, 12, 13}

    def test_validation(self):
        with pytest.raises(ValueError):
            GridPlacement(mapping=Mapping(3, 4))
        with pytest.raises(ValueError):
            GridPlacement(mapping=Mapping(2, 2), machine_ids=(1, 2))
        with pytest.raises(ValueError):
            GridPlacement(mapping=Mapping(2, 2), layout="diagonal")
        with pytest.raises(IndexError):
            GridPlacement(mapping=Mapping(2, 2)).machine_at(5, 0)
