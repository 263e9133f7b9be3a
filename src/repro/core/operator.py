"""The parallel online theta-join operators.

:class:`AdaptiveJoinOperator` is the paper's contribution ("Dynamic" in §5):
a content-insensitive, skew-resilient dataflow operator that continuously
re-optimises its (n, m)-mapping using decentralised statistics (Alg. 1), the
1.25-competitive migration decision rule (Alg. 2) and the non-blocking
eventually-consistent relocation protocol (Alg. 3).

:class:`GridJoinOperator` is the shared machinery: it assembles the Fig. 1c
topology (one reshuffler + one joiner per machine, one reshuffler doubling as
the controller) inside the simulated cluster, feeds the input streams and
harvests a :class:`~repro.core.results.RunResult`.  The static baselines and
the SHJ comparator of §5 are thin subclasses (see
:mod:`repro.core.baselines`).
"""

from __future__ import annotations

import random
from typing import Sequence

from repro.api.config import RunConfig
from repro.core.decision import MigrationController
from repro.core.mapping import Mapping, optimal_mapping, require_power_of_two, square_mapping
from repro.core.results import RunResult
from repro.core.tasks import JoinerTask, ReshufflerTask, Topology
from repro.data.queries import JoinQuery
from repro.engine.batching import AdaptiveBatchController
from repro.engine.machine import CostModel
from repro.engine.network import ReliableWire
from repro.engine.simulator import Simulator
from repro.engine.stream import (
    SALT_RESOLUTION,
    ArrivalSchedule,
    StreamTuple,
    interleave_streams,
    make_tuples,
    reshuffler_picker,
)


class GridJoinOperator:
    """Base class: a parallel join operator over a grid-partitioned cluster.

    Built from a workload and a run configuration, the one way::

        GridJoinOperator(query, RunConfig(machines=16, seed=7))

    Each kind fixes at class level whether its controller may migrate
    (:attr:`adaptive`) and the mapping it starts from
    (:meth:`_initial_mapping`); every run knob lives on the config.

    Args:
        query: the workload (two materialised input streams + predicate).
        config: the :class:`~repro.api.config.RunConfig` of the run.  Its
            ``machines`` must be a power of two (the paper's experiments use
            16–128; its general-J decomposition of §4.2.2 is not built) and
            at most :data:`~repro.engine.stream.SALT_RESOLUTION`, the number
            of steps of a generated salt's grid.
    """

    operator_name = "Grid"
    #: Whether the controller may trigger migrations (``Dynamic`` only).
    adaptive = False

    def __init__(self, query: JoinQuery, config: RunConfig) -> None:
        require_power_of_two(config.machines, f"the {self.operator_name} operator")
        if config.machines > SALT_RESOLUTION:
            raise ValueError(
                f"the {self.operator_name} operator routes on salts of resolution "
                f"1/{SALT_RESOLUTION}, so it runs at most {SALT_RESOLUTION} joiners, "
                f"got J={config.machines}"
            )
        self.config = config
        self.query = query
        self.machines = config.machines
        self.cost_model = CostModel(memory_capacity=config.memory_capacity)
        self.seed = config.seed
        self.initial_mapping = self._initial_mapping()
        self.epsilon = config.epsilon
        self.warmup_tuples = (
            config.warmup_tuples
            if config.warmup_tuples is not None
            else 4.0 * config.machines
        )
        self.layout = config.layout
        self.blocking = config.blocking
        # The data plane.  The adaptive plane keeps the wire per-tuple
        # (identical message flow and virtual times to "per_tuple") and
        # coalesces backlog at the receiving machines instead.
        self._drains = config.batching == "adaptive"
        # The fault-tolerant plane: active when there are crashes to inject
        # or durable checkpointing was requested.  Fault-free runs with the
        # plane active stay bit-identical to the reference plane (journaling
        # charges nothing and touches neither the heap nor the rng).
        self._fault_plane = (
            bool(config.fault_schedule) or config.checkpoint_interval is not None
        )

    def _initial_mapping(self) -> Mapping:
        """The mapping in force at start-up: the square ``(√J, √J)`` scheme."""
        return square_mapping(self.machines)

    # ------------------------------------------------------------------ build

    def _reshuffler_class(self) -> type[ReshufflerTask]:
        return ReshufflerTask

    def _build_topology(self) -> Topology:
        topology = Topology(
            machines=self.machines,
            left_relation=self.query.left_relation,
            right_relation=self.query.right_relation,
            predicate=self.query.predicate,
            layout=self.layout,
        )
        topology.joiner_names = [f"joiner-{i}" for i in range(self.machines)]
        topology.reshuffler_names = [f"reshuffler-{i}" for i in range(self.machines)]
        topology.controller_name = topology.reshuffler_names[0]
        return topology

    def _build_tasks(self, topology: Topology) -> list:
        tasks = []
        reshuffler_class = self._reshuffler_class()
        for machine_id in range(self.machines):
            is_controller = machine_id == 0
            controller = None
            if is_controller:
                controller = MigrationController(
                    machines=self.machines,
                    epsilon=self.epsilon,
                    r_size=self.query.left_tuple_size,
                    s_size=self.query.right_tuple_size,
                    warmup_tuples=self.warmup_tuples,
                    # The controller works off 1/J-sampled statistics (Alg. 1);
                    # a small improvement margin prevents migration thrashing
                    # on sampling noise around near-tie mappings.
                    min_improvement=0.02,
                )
            tasks.append(
                reshuffler_class(
                    name=topology.reshuffler_names[machine_id],
                    machine_id=machine_id,
                    topology=topology,
                    initial_mapping=self.initial_mapping,
                    controller=controller,
                    adaptive=self.adaptive,
                    blocking=self.blocking,
                )
            )
            tasks.append(
                JoinerTask(
                    name=topology.joiner_names[machine_id],
                    machine_id=machine_id,
                    topology=topology,
                )
            )
        return tasks

    # ------------------------------------------------------------------- run

    def prepare_tuples(
        self, rng: random.Random
    ) -> tuple[list[StreamTuple], list[StreamTuple]]:
        """Wrap the query's records into salted stream tuples."""
        left = make_tuples(
            self.query.left_relation, self.query.left_records, rng, self.query.left_tuple_size
        )
        right = make_tuples(
            self.query.right_relation,
            self.query.right_records,
            rng,
            self.query.right_tuple_size,
        )
        return left, right

    def build_execution(self, collect_outputs: bool = False) -> tuple[Simulator, Topology]:
        """A fresh :class:`Simulator` with the topology registered, no input fed.

        The drain controllers (adaptive plane only), the fault plane and the
        unreliable wire are installed as configured.
        This is the half of :meth:`run` the streaming session facade reuses:
        :meth:`repro.api.session.JoinSession.push` feeds arrivals into the
        returned substrate incrementally and finally calls
        :meth:`collect_result` on it.
        """
        simulator = Simulator(
            num_machines=self.machines,
            cost_model=self.cost_model,
            collect_outputs=collect_outputs,
        )
        if self._drains:
            simulator.install_batching(
                [AdaptiveBatchController() for _ in range(self.machines)]
            )
        topology = self._build_topology()
        tasks = self._build_tasks(topology)
        simulator.register_all(tasks)
        if self._fault_plane:
            # Loaded here, not at module level: recovery and its store (and
            # through them ``pickle``) cost a fault-free run's import nothing.
            from repro.core.recovery import RecoveryManager
            from repro.storage.checkpoint_store import CheckpointStore

            manager = RecoveryManager(
                simulator=simulator,
                topology=topology,
                store=CheckpointStore(),
                schedule=self.config.fault_schedule,
                checkpoint_interval=self.config.checkpoint_interval,
                initial_mapping=self.initial_mapping,
            )
            manager.attach_journals(simulator)
            simulator.install_faults(manager)
        if self.config.network_faults:
            simulator.install_network_faults(ReliableWire(self.config.network_faults))
        return simulator, topology

    def run(
        self,
        arrival_order: Sequence[StreamTuple] | None = None,
        collect_outputs: bool = False,
        max_events: int | None = None,
    ) -> RunResult:
        """Execute the operator on the workload inside a fresh simulation.

        The config's ``arrival_pattern`` interleaves the two input streams
        and its ``inter_arrival`` paces them.

        Args:
            arrival_order: explicit arrival sequence (used by the fluctuation
                experiment of §5.4), replacing the config's interleaving;
                must contain exactly the query's tuples.
            collect_outputs: retain every output pair for verification.
            max_events: optional safety bound on simulation events.

        Returns:
            A :class:`RunResult` with every measured quantity.
        """
        rng = random.Random(self.seed)
        if arrival_order is None:
            left, right = self.prepare_tuples(rng)
            order = interleave_streams(
                left, right, rng, pattern=self.config.arrival_pattern
            )
        else:
            # Read, never written: a list is fed as it is, not copied.
            order = arrival_order if isinstance(arrival_order, list) else list(arrival_order)
        simulator, topology = self.build_execution(collect_outputs=collect_outputs)

        schedule = ArrivalSchedule(items=order, inter_arrival=self.config.inter_arrival)
        simulator.feed_schedule(
            schedule, destination_picker=reshuffler_picker(rng, topology.reshuffler_names)
        )
        simulator.run(max_events=max_events)
        return self.collect_result(simulator, topology, len(order))

    # --------------------------------------------------------------- results

    def collect_result(
        self, simulator: Simulator, topology: Topology, expected_inputs: int
    ) -> RunResult:
        metrics = simulator.metrics
        controller_task = simulator.tasks[topology.controller_name]
        final_mapping = controller_task.mapping
        recovery = getattr(simulator, "_recovery", None)
        faults_injected = 0
        recovery_time = 0.0
        tuples_replayed = 0
        checkpoint_overhead = 0.0
        if recovery is not None:
            faults_injected = recovery.faults_injected
            recovery_time = recovery.recovery_time
            tuples_replayed = recovery.tuples_replayed
            # close() flushes the still-buffered blocks first, so the byte
            # count covers every journaled entry.
            recovery.store.close()
            checkpoint_overhead = float(recovery.store.bytes_written)
        wire = getattr(simulator, "_wire", None)
        return RunResult(
            operator=self.operator_name,
            query=self.query.name,
            machines=self.machines,
            execution_time=simulator.execution_time(),
            throughput=metrics.throughput(),
            output_count=metrics.output_count,
            output_throughput=metrics.output_throughput(),
            average_latency=metrics.average_latency(),
            max_ilf=simulator.max_machine_storage(),
            final_max_storage=max(machine.stored_size for machine in simulator.machines),
            total_storage=simulator.total_storage(),
            routing_volume=simulator.network.routing_volume(),
            migration_volume=simulator.network.migration_volume(),
            total_network_volume=simulator.network.total_volume(),
            migrations=metrics.migration_count(),
            spilled=simulator.any_spilled(),
            max_competitive_ratio=metrics.max_competitive_ratio(),
            final_mapping=final_mapping,
            events_processed=simulator.events_processed,
            batch_histogram=dict(metrics.drain_histogram) if self._drains else None,
            heap_events=simulator.heap_events,
            wire_histogram=dict(metrics.wire_histogram),
            migration_events=[
                (
                    event.epoch,
                    event.old_mapping,
                    event.new_mapping,
                    event.decided_at,
                    event.completed_at,
                )
                for event in metrics.migrations
            ],
            machine_busy=[
                (machine.busy_until, machine.busy_time)
                for machine in simulator.machines
            ],
            probe_work=metrics.probe_work,
            ilf_series=metrics.ilf_fraction_series(expected_inputs),
            ratio_series=list(metrics.ratio_series),
            cardinality_series=list(metrics.competitive_series),
            progress_series=metrics.progress_fraction_series(expected_inputs),
            outputs=list(metrics.outputs) if metrics.collect_outputs else None,
            wall_time=simulator.wall_time,
            faults_injected=faults_injected,
            recovery_time=recovery_time,
            tuples_replayed=tuples_replayed,
            checkpoint_overhead=checkpoint_overhead,
            wire_counters=wire.counters() if wire is not None else None,
        )


class AdaptiveJoinOperator(GridJoinOperator):
    """The paper's adaptive operator ("Dynamic" in the evaluation)."""

    operator_name = "Dynamic"
    adaptive = True


def theoretical_optimal_mapping(query: JoinQuery, machines: int) -> Mapping:
    """The optimal mapping given oracle knowledge of the final stream sizes."""
    left_count, right_count = query.cardinalities
    return optimal_mapping(
        machines,
        max(left_count, 1),
        max(right_count, 1),
        query.left_tuple_size,
        query.right_tuple_size,
    )
