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
from repro.api.registry import batch_controllers, register_operator
from repro.core.decision import MigrationController
from repro.core.mapping import Mapping, is_power_of_two, optimal_mapping, square_mapping
from repro.core.recovery import RecoveryManager
from repro.core.results import RunResult
from repro.core.tasks import HashReshufflerTask, JoinerTask, ReshufflerTask, Topology
from repro.data.queries import JoinQuery
from repro.engine.machine import CostModel
from repro.engine.network import ReliableWire
from repro.engine.simulator import Simulator
from repro.engine.stream import ArrivalSchedule, StreamTuple, interleave_streams, make_tuples
from repro.storage.checkpoint_store import CheckpointStore

#: Default micro-batch size of the batched data plane.  Chosen so that scale-up
#: runs are dominated by operator logic rather than per-event simulator
#: overhead, while batches stay small relative to the per-joiner input share.
#: ``batch_size=1`` selects the legacy per-tuple message path.
DEFAULT_BATCH_SIZE = 64


class GridJoinOperator:
    """Base class: a parallel join operator over a grid-partitioned cluster.

    The canonical construction is config-based (the :mod:`repro.api` way)::

        GridJoinOperator(query, config=RunConfig(machines=16, seed=7))

    Every run knob lives on the :class:`~repro.api.config.RunConfig`; keyword
    overrides passed alongside ``config`` are applied on top of it (call-site
    beats config).  The pre-``repro.api`` loose-kwargs construction —
    ``GridJoinOperator(query, 16, seed=7, ...)`` without a ``config`` —
    completed its one-release :class:`DeprecationWarning` period and now
    raises :class:`TypeError` pointing at the config path.

    Args:
        query: the workload (two materialised input streams + predicate).
        machines: number of joiners J; must be a power of two (the paper's
            experiments use 16–128; arbitrary J is handled analytically by
            :mod:`repro.core.groups`).  Overrides ``config.machines``.
        cost_model: CPU/network/storage cost model; defaults to
            :class:`~repro.engine.machine.CostModel`'s defaults.  Not part of
            :class:`RunConfig` (it is an object graph, not a serialisable
            knob); the config's ``memory_capacity`` is applied to it.
        config: the :class:`~repro.api.config.RunConfig` holding every run
            knob (machines, seed, epsilon, warmup, layout, blocking, memory,
            sampling, batch_size, probe_engine, pacing).
        initial_mapping: mapping in force at start-up; defaults to the square
            ``(√J, √J)`` scheme.  Operator-kind specific, hence not a config
            field (StaticOpt derives it from the query).
        adaptive: whether the controller may trigger migrations; operator-kind
            specific (the ``Dynamic`` subclass turns it on).
        **knobs: :class:`RunConfig` field overrides (``seed=...``,
            ``batch_size=...``, ...).  Unknown names raise eagerly, as do
            invalid values — e.g. an unregistered ``probe_engine`` or
            ``layout`` fails here with the registered choices listed, not
            deep inside joiner construction mid-run.
    """

    operator_name = "Grid"

    def __init__(
        self,
        query: JoinQuery,
        machines: int | None = None,
        cost_model: CostModel | None = None,
        *,
        config: RunConfig | None = None,
        initial_mapping: Mapping | None = None,
        adaptive: bool = False,
        **knobs,
    ) -> None:
        if config is None:
            if machines is not None or knobs:
                raise TypeError(
                    f"constructing {type(self).__name__} from loose keyword "
                    "arguments was removed after its deprecation release; "
                    "pass config=RunConfig(...) — optionally with keyword "
                    "overrides on top — or use repro.api.build_operator / "
                    "JoinSession (see repro.api)"
                )
            config = RunConfig()
        overrides = dict(knobs)
        if machines is not None:
            overrides["machines"] = machines
        # with_overrides re-validates every knob eagerly (unknown field names,
        # unregistered probe engines/layouts, invalid batch sizes, ...).
        config = config.with_overrides(**overrides)
        if not is_power_of_two(config.machines):
            raise ValueError(
                f"this operator implementation requires a power-of-two number of joiners, "
                f"got {config.machines}; see repro.core.groups for the general-J decomposition"
            )
        self.config = config
        self.query = query
        self.machines = config.machines
        self.cost_model = (cost_model or CostModel()).with_memory(config.memory_capacity)
        self.seed = config.seed
        self.initial_mapping = initial_mapping or square_mapping(config.machines)
        self.adaptive = adaptive
        self.epsilon = config.epsilon
        self.warmup_tuples = (
            config.warmup_tuples
            if config.warmup_tuples is not None
            else 4.0 * config.machines
        )
        self.layout = config.layout
        self.blocking = config.blocking
        self.sample_every = config.sample_every
        self.probe_engine = config.probe_engine
        # The batching plane.  The adaptive plane keeps the wire per-tuple
        # (identical message flow and virtual times to batch_size=1) and
        # coalesces backlog at the receiving machines instead; the controller
        # class was validated by RunConfig, instances are built per run.
        self.batching = config.batching
        self._batch_controller_class = batch_controllers.get(config.batching)
        self._drains = bool(getattr(self._batch_controller_class, "drains", False))
        if self._drains:
            self.batch_size = 1
            self.batch_max = config.batch_max
        else:
            self.batch_size = (
                DEFAULT_BATCH_SIZE if config.batch_size is None else int(config.batch_size)
            )
            self.batch_max = None
        # The fault-tolerant plane: active when there are crashes to inject
        # or durable checkpointing was requested.  Fault-free runs with the
        # plane active stay bit-identical to the reference plane (journaling
        # charges nothing and touches neither the heap nor the rng).
        self._fault_plane = (
            bool(config.fault_schedule) or config.checkpoint_interval is not None
        )

    # ------------------------------------------------------------------ build

    def _reshuffler_class(self) -> type[ReshufflerTask]:
        return ReshufflerTask

    def _build_topology(self) -> Topology:
        topology = Topology(
            machines=self.machines,
            left_relation=self.query.left_relation,
            right_relation=self.query.right_relation,
            predicate=self.query.predicate,
            left_size=self.query.left_tuple_size,
            right_size=self.query.right_tuple_size,
            layout=self.layout,
        )
        topology.joiner_names = [f"joiner-{i}" for i in range(self.machines)]
        topology.reshuffler_names = [f"reshuffler-{i}" for i in range(self.machines)]
        topology.controller_name = topology.reshuffler_names[0]
        return topology

    def _build_tasks(self, topology: Topology, expected_inputs: int) -> list:
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
                    sample_every=self.sample_every,
                    expected_inputs=expected_inputs,
                    batch_size=self.batch_size,
                )
            )
            tasks.append(
                JoinerTask(
                    name=topology.joiner_names[machine_id],
                    machine_id=machine_id,
                    topology=topology,
                    batch_size=self.batch_size,
                    probe_engine=self.probe_engine,
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

    def build_execution(
        self, collect_outputs: bool = False, expected_inputs: int = 0
    ) -> tuple[Simulator, Topology]:
        """A fresh :class:`Simulator` with the topology registered, no input fed.

        The batching plane, the merged wire (adaptive plane only), the fault
        plane and the unreliable wire are installed as configured.  This is
        the half of :meth:`run` the streaming session facade reuses:
        :meth:`repro.api.session.JoinSession.push` feeds arrivals into the
        returned substrate incrementally and finally calls
        :meth:`collect_result` on it.
        """
        simulator = Simulator(
            num_machines=self.machines,
            cost_model=self.cost_model,
            seed=self.seed,
            collect_outputs=collect_outputs,
        )
        if self._drains:
            controller_class = self._batch_controller_class
            kwargs = {} if self.batch_max is None else {"batch_max": self.batch_max}
            simulator.install_batching(
                [controller_class(**kwargs) for _ in range(self.machines)]
            )
            # The plane picks the wire: receiver-draining planes run on the
            # merged wire (it is what lets them match the fixed plane's
            # wall-clock at reference semantics); the fixed/per-tuple planes
            # keep the unmerged wire, which is itself the pinned reference.
            simulator.enable_delivery_merging()
        topology = self._build_topology()
        tasks = self._build_tasks(topology, expected_inputs)
        simulator.register_all(tasks)
        if self._fault_plane:
            manager = RecoveryManager(
                simulator=simulator,
                topology=topology,
                store=CheckpointStore(),
                schedule=self.config.fault_schedule,
                checkpoint_interval=self.config.checkpoint_interval,
                ack_timeout=self.config.ack_timeout,
                max_retries=self.config.max_retries,
                initial_mapping=self.initial_mapping,
            )
            manager.attach_journals(simulator)
            simulator.install_faults(manager)
        if self.config.network_faults:
            simulator.install_network_faults(
                ReliableWire(
                    faults=self.config.network_faults,
                    retry_base=self.config.retry_base,
                    retry_max_attempts=self.config.retry_max_attempts,
                )
            )
        return simulator, topology

    def run(
        self,
        arrival_pattern: str | None = None,
        inter_arrival: float | None = None,
        arrival_order: Sequence[StreamTuple] | None = None,
        collect_outputs: bool = False,
        max_events: int | None = None,
    ) -> RunResult:
        """Execute the operator on the workload inside a fresh simulation.

        Args:
            arrival_pattern: interleaving of the two input streams ("uniform",
                "alternate", "r_first", "s_first"); defaults to the config's
                pacing; ignored when an explicit ``arrival_order`` is supplied.
            inter_arrival: virtual-time gap between consecutive arrivals;
                defaults to the config's pacing.
            arrival_order: explicit arrival sequence (used by the fluctuation
                experiment of §5.4); must contain exactly the query's tuples.
            collect_outputs: retain every output pair for verification.
            max_events: optional safety bound on simulation events.

        Returns:
            A :class:`RunResult` with every measured quantity.
        """
        if arrival_pattern is None:
            arrival_pattern = self.config.arrival_pattern
        if inter_arrival is None:
            inter_arrival = self.config.inter_arrival
        rng = random.Random(self.seed)
        if arrival_order is None:
            left, right = self.prepare_tuples(rng)
            order = interleave_streams(left, right, rng, pattern=arrival_pattern)
        else:
            order = list(arrival_order)
        expected_inputs = len(order)

        simulator, topology = self.build_execution(
            collect_outputs=collect_outputs, expected_inputs=expected_inputs
        )

        reshuffler_names = topology.reshuffler_names
        schedule = ArrivalSchedule(items=order, inter_arrival=inter_arrival)
        simulator.feed_schedule(
            schedule,
            destination_picker=lambda _item: rng.choice(reshuffler_names),
            batch_size=self.batch_size,
        )
        simulator.run(max_events=max_events)
        return self.collect_result(simulator, topology, expected_inputs)

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
            batch_size=self.batch_size,
            batching=self.batching,
            batch_histogram=dict(metrics.drain_histogram) if self._drains else None,
            heap_events=simulator.heap_events,
            wire_histogram=(
                dict(metrics.wire_histogram) if self._drains else None
            ),
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
            messages_dropped=wire.frames_dropped if wire is not None else 0,
            messages_duplicated=wire.frames_duplicated if wire is not None else 0,
            messages_retransmitted=(
                wire.frames_retransmitted if wire is not None else 0
            ),
            messages_reordered=wire.frames_reordered if wire is not None else 0,
            retransmit_histogram=(
                dict(wire.retransmit_histogram) if wire is not None else None
            ),
            wire_counters=wire.counters() if wire is not None else None,
        )


class AdaptiveJoinOperator(GridJoinOperator):
    """The paper's adaptive operator ("Dynamic" in the evaluation)."""

    operator_name = "Dynamic"

    def __init__(self, query: JoinQuery, machines: int | None = None, **kwargs) -> None:
        kwargs.setdefault("adaptive", True)
        super().__init__(query, machines, **kwargs)


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


register_operator("Grid", GridJoinOperator)
register_operator("Dynamic", AdaptiveJoinOperator)
