"""Tests for the machine cost model, storage accounting and the network."""

import pytest

from repro.engine.machine import CostModel, Machine
from repro.engine.network import Network, TrafficCategory


class TestCostModel:
    def test_defaults_are_positive(self):
        model = CostModel()
        assert model.receive_cost > 0
        assert model.spill_penalty > 1


class TestMachine:
    def test_occupy_serialises_work(self):
        machine = Machine(machine_id=0, cost_model=CostModel())
        end1 = machine.occupy(0.0, 5.0)
        end2 = machine.occupy(1.0, 2.0)   # starts only after the first finishes
        assert end1 == 5.0
        assert end2 == 7.0
        assert machine.busy_time == 7.0

    def test_storage_accounting_and_peak(self):
        machine = Machine(machine_id=0, cost_model=CostModel())
        machine.add_stored(10.0)
        machine.add_stored(5.0)
        machine.remove_stored(8.0)
        assert machine.stored_size == pytest.approx(7.0)
        assert machine.peak_stored_size == pytest.approx(15.0)
        assert machine.received_size == pytest.approx(15.0)

    def test_remove_never_goes_negative(self):
        machine = Machine(machine_id=0, cost_model=CostModel())
        machine.add_stored(1.0)
        machine.remove_stored(100.0)
        assert machine.stored_size == 0.0

    def test_spill_factor_applies_over_capacity(self):
        machine = Machine(machine_id=0, cost_model=CostModel(memory_capacity=10.0))
        machine.add_stored(5.0)
        assert machine.storage_factor() == 1.0
        assert not machine.spilled
        machine.add_stored(20.0)
        assert machine.storage_factor() == machine.cost_model.spill_penalty
        assert machine.spilled

    def test_unbounded_memory_never_spills(self):
        machine = Machine(machine_id=0, cost_model=CostModel(memory_capacity=None))
        machine.add_stored(1e9)
        assert machine.storage_factor() == 1.0

    def test_exactly_full_machine_is_still_in_memory(self):
        machine = Machine(machine_id=0, cost_model=CostModel(memory_capacity=4.0))
        machine.add_stored(4.0)
        assert not machine.is_over_memory
        assert machine.storage_factor() == 1.0
        machine.add_stored(0.5)
        assert machine.is_over_memory

    def test_spill_penalty_is_the_cost_models(self):
        machine = Machine(
            machine_id=0, cost_model=CostModel(memory_capacity=2.0, spill_penalty=7.0)
        )
        machine.add_stored(3.0)
        assert machine.storage_factor() == 7.0

    def test_removal_can_unspill(self):
        """Discarding state (a migration moving tuples away, a finalize
        dropping an epoch) brings a machine back under budget; ``spilled``
        keeps recording that it overflowed once."""
        machine = Machine(machine_id=0, cost_model=CostModel(memory_capacity=2.0))
        machine.add_stored(3.0)
        assert machine.storage_factor() > 1.0
        machine.remove_stored(1.5)
        assert machine.storage_factor() == 1.0
        assert machine.spilled

    def test_accounting_never_drifts_under_interleaving(self):
        """Incremental stored/peak/received accounting equals a closed-form
        recompute after every step of an interleaved add/remove sequence."""
        machine = Machine(machine_id=0, cost_model=CostModel(memory_capacity=5.0))
        live, received, peak = [], 0.0, 0.0
        steps = [("add", 1.5)] * 6 + [("remove", 1.5)] * 3 + [("add", 2.0)] * 2
        steps += [("remove", 2.0), ("remove", 1.5), ("add", 0.5)]
        for action, size in steps:
            if action == "add":
                machine.add_stored(size)
                live.append(size)
                received += size
            else:
                machine.remove_stored(size)
                live.remove(size)
            peak = max(peak, sum(live))
            assert machine.stored_size == pytest.approx(sum(live))
            assert machine.peak_stored_size == pytest.approx(peak)
            assert machine.received_size == pytest.approx(received)
            assert machine.is_over_memory == (sum(live) > 5.0)


class TestNetwork:
    def test_counts_volume_per_category(self):
        network = Network(cost_model=CostModel())
        network.transfer(0, 1, 10.0, TrafficCategory.ROUTING, now=0.0)
        network.transfer(0, 2, 5.0, TrafficCategory.MIGRATION, now=0.0)
        assert network.routing_volume() == 10.0
        assert network.migration_volume() == 5.0
        assert network.total_volume() == 15.0

    def test_local_delivery_not_counted(self):
        network = Network(cost_model=CostModel())
        network.transfer(3, 3, 10.0, TrafficCategory.ROUTING, now=0.0)
        assert network.total_volume() == 0.0

    def test_delivery_time_includes_latency_and_size(self):
        model = CostModel(network_latency=1.0, per_tuple_network_cost=0.1)
        network = Network(cost_model=model)
        delivery = network.transfer(0, 1, 10.0, TrafficCategory.ROUTING, now=5.0)
        assert delivery == pytest.approx(5.0 + 1.0 + 1.0)

    def test_links_are_fifo(self):
        """A later, smaller message must not overtake an earlier, larger one."""
        model = CostModel(network_latency=1.0, per_tuple_network_cost=1.0)
        network = Network(cost_model=model)
        first = network.transfer(0, 1, 100.0, TrafficCategory.ROUTING, now=0.0)
        second = network.transfer(0, 1, 0.0, TrafficCategory.CONTROL, now=0.5)
        assert second >= first

    def test_fifo_is_per_link(self):
        model = CostModel(network_latency=1.0, per_tuple_network_cost=1.0)
        network = Network(cost_model=model)
        network.transfer(0, 1, 100.0, TrafficCategory.ROUTING, now=0.0)
        other_link = network.transfer(0, 2, 0.0, TrafficCategory.CONTROL, now=0.5)
        assert other_link == pytest.approx(1.5)

    def test_snapshot_keys(self):
        network = Network(cost_model=CostModel())
        snapshot = network.snapshot()
        assert set(snapshot) == {category.value for category in TrafficCategory}
