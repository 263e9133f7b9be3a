"""The executor plane: strategy backends that run a registered topology.

Every plane shipped before this module (batched, adaptive, wire-merged,
columnar, fault-tolerant) executed on one single-threaded virtual-time
:class:`~repro.engine.simulator.Simulator` — the system *modelled* a cluster
but was not one.  The executor plane is the seam between those two worlds:

* :class:`SimulatedExecutor` (``executor="simulated"``, the default) is the
  existing simulator, unchanged — it remains the conformance oracle for
  every other backend.
* :class:`ThreadedExecutor` (``executor="threads"``) is a real-clock backend:
  each :class:`~repro.engine.machine.Machine` is owned by a worker thread
  with a shared-nothing inbound queue, and task handlers — the reshuffle,
  probe and store work — execute on the owning worker, not on the
  coordinator.  Handlers of *different* machines genuinely overlap (see the
  dispatch frontier below).  Outputs, migration decisions and every
  virtual-time quantity are bit-identical to the simulator oracle; only
  wall-clock-derived stats (:attr:`Simulator.wall_time`, the per-worker
  ``worker_wall`` / ``worker_events`` breakdown, and the overlap counters
  ``overlap_dispatches`` / ``peak_inflight``) are backend-specific.

Determinism argument
--------------------

Three facts about the simulator's event metadata make an *overlapping*
dispatch frontier safe:

1. **Per-machine RNG streams.**  Every machine draws from its own stream,
   derived from ``(seed, machine_id)`` — on both backends — so a handler's
   draws depend only on its own machine's handler sequence, never on how
   handler executions of other machines interleave in wall-clock time.
2. **Sender-owned rank counters.**  Every (sender machine, destination task)
   link is FIFO with a monotone per-link sequence number, and the sequence
   counters are owned by the sender machine — no counter is shared across
   machines.  Every event is keyed by the plane-invariant ``(time, rank)``
   pair, a pure function of the message flow (see
   :mod:`repro.engine.simulator`).
3. **Lookahead.**  A message created at virtual time ``T`` delivers no
   earlier than ``T`` plus one network latency (the network clamps per-link
   delivery monotonically upward, never down), so a running handler that
   started at ``s`` cannot place any event below ``(s + latency)`` into the
   heap.

The coordinator therefore runs a **pipelined in-order frontier**: it peeks
the global heap and may *dispatch* the head event concurrently while older
handlers are still in flight, provided the head's ``(time, rank)`` key lies
below every in-flight handler's *horizon* — ``(start + latency,
send-rank-base)``.  A handler's only effects that can target *another*
machine are its sends (all ``>= start + latency``, in the send rank band or
above); its tick-reschedule chain targets its own machine, and any event
targeting a machine with an in-flight handler is held back by the affinity
rule below until that handler commits — the commit pushes the reschedule,
and the re-peek pops it in exact key order.  Below the horizon, then, the
head event can neither be created nor perturbed by any uncommitted effect.
Completions are collected strictly in dispatch (= oracle pop) order, and
each handler's *effects with global scope* — metric records and message
sends, journaled in call order by a buffering proxy — are replayed at
commit through the identical code paths a live handler would have taken
(:meth:`Simulator._post_at` / :meth:`Simulator._post_fanout_at`).
Machine-local mutations (busy chain, stores, drained-run inbox pulls, RNG
draws, recovery journaling) happen live on the worker: the machine-affinity
rule guarantees nothing else reads them meanwhile.  Handler commit order
equals oracle handler order, every replayed effect enters the heap with its
plane-invariant key, and the loop pops in key order — so every
deterministic quantity, heap events and wire histograms included, is
bit-identical.  (Pop order may transiently differ from the oracle's between
*commuting* events of different machines; everything order-sensitive —
migration bookkeeping, priority control flow — runs at barriers, and the
overlapping handlers' metric records are commutative sums, counters and
histograms.)

Serialisation points (everything else overlaps):

* **Machine affinity** — any event targeting a machine with an in-flight
  handler first commits the window up to (and including) that handler, so a
  machine's state is touched by at most one party at a time and intra-machine
  event order matches the oracle exactly.
* **Barriers** — events whose processing reads or writes *global* state run
  with the window fully committed: priority control-plane deliveries,
  off-cluster handlers, fault-plane events (which includes the unreliable
  wire's frame arrivals and retransmit timers — they ride the fault rank
  band, so a frame release respects the commit frontier and its dedup /
  in-order bookkeeping never races an in-flight handler), and handlers of
  tasks that set :attr:`~repro.engine.task.Task.reads_global_state` (the
  migration controller, which samples run-wide metrics and cluster peak
  storage mid-handler).
* **Drained runs flush before dispatch** — a drained run's control-plane
  horizon (:meth:`Simulator._drain_horizon`) reads the in-flight priority
  deliveries of its machine, and an uncommitted older handler's
  MIGRATION_ACK can land inside the default ``event_time + latency``
  horizon.  Committing the window first freezes the horizon's inputs at
  exactly the oracle's state (younger handlers commit only after the run —
  the window is FIFO — so they cannot perturb it either); the drained run
  itself still overlaps with younger dispatches.
* **Open-run close ordering** — closing a delivery-merge run (which records
  its length and arms the channel's next run as a fresh heap event) is
  sensitive to the *exact* global pop order: the oracle keeps a run open if
  an append reached it before the settle that would have drained its last
  member, and that append can ride a handler whose launching tick
  reschedule is still hidden inside an uncommitted predecessor.  A tick
  facing an exhaustible open run therefore never pops while the window is
  non-empty — the loop commits oldest-first and re-peeks, surfacing hidden
  reschedules in exact key order (see
  :meth:`ThreadedSimulator._closing_settle_ahead`).
* **Event-anchored faults** — while a ``crash_after_events`` trigger is
  armed the loop degrades to lock-step (the oracle checks the trigger after
  *every* heap event, so ``events_processed`` must be exact at each pop);
  overlap resumes once the schedule drains.

Robustness: a handler that raises or never returns must never hang the run.
Dispatch waits are bounded by ``worker_timeout``; on expiry the coordinator
raises a :class:`RuntimeError` naming the stuck machine and its queue
depths, and a handler exception is re-raised wrapped the same way (with the
original as ``__cause__``).
"""

from __future__ import annotations

import heapq
import queue
import threading
import time
from collections import deque

from repro.api.registry import register_executor
from repro.engine.machine import CostModel
from repro.engine.simulator import (
    PRIORITY_KINDS,
    _DELIVERY_RUN,
    _FaultEvent,
    _SEND_RANK_BASE,
    Simulator,
)
from repro.engine.task import Context, Message, Task

#: Bound on any single coordinator wait for a worker: handler completion at
#: commit, thread exit at shutdown.  Generous — virtual-time handlers run
#: in microseconds; anything near this bound is a deadlocked or poisoned
#: handler, and surfacing it beats hanging CI forever.
DEFAULT_WORKER_TIMEOUT = 60.0

#: Sentinel asking a worker thread to exit its loop.
_SHUTDOWN = object()

#: Completion token of a successfully executed handler (exceptions travel as
#: themselves).
_DONE = object()


class Executor:
    """Strategy interface: how a registered topology's handlers execute.

    An executor builds the :class:`Simulator` (or subclass) an operator run
    executes on; everything else — topology registration, feeding, result
    harvesting — is executor-agnostic and stays in
    :meth:`repro.core.operator.GridJoinOperator.build_execution`.

    Class attributes:
        name: the registry name (``RunConfig.executor`` values).
        parallel: whether the backend accepts the ``num_workers`` /
            ``worker_timeout`` knobs.
    """

    name = "?"
    parallel = False

    @classmethod
    def from_config(cls, config) -> "Executor":
        """Build an executor instance from a :class:`~repro.api.config.RunConfig`.

        The base implementation takes no knobs; parallel backends override
        this to pick up ``num_workers`` and ``worker_timeout``.
        """
        return cls()

    def build_simulator(
        self,
        *,
        num_machines: int,
        cost_model: CostModel | None = None,
        seed: int = 0,
        collect_outputs: bool = False,
    ) -> Simulator:
        """A fresh execution substrate for one run.  Implemented by backends."""
        raise NotImplementedError


class SimulatedExecutor(Executor):
    """The default backend: the single-threaded virtual-time simulator.

    This is the conformance oracle every other backend is pinned against —
    semantics are exactly those of the pre-executor-plane ``Simulator``.
    """

    name = "simulated"

    def build_simulator(
        self,
        *,
        num_machines: int,
        cost_model: CostModel | None = None,
        seed: int = 0,
        collect_outputs: bool = False,
    ) -> Simulator:
        return Simulator(
            num_machines=num_machines,
            cost_model=cost_model,
            seed=seed,
            collect_outputs=collect_outputs,
        )


class _MachineWorker(threading.Thread):
    """One worker thread owning a disjoint set of machines.

    The worker consumes ``(function, args)`` work items from its private
    ``inbound`` queue (shared-nothing: no other thread ever reads it),
    executes them, and reports per-item completion on ``completions`` —
    either the :data:`_DONE` token or the raised exception.  A raising
    handler does not kill the thread: the loop keeps serving so shutdown
    stays orderly; the coordinator aborts the run instead.
    """

    def __init__(self, worker_id: int, machine_ids: tuple[int, ...]) -> None:
        super().__init__(name=f"repro-executor-worker-{worker_id}", daemon=True)
        self.worker_id = worker_id
        self.machine_ids = machine_ids
        self.inbound: queue.SimpleQueue = queue.SimpleQueue()
        self.completions: queue.SimpleQueue = queue.SimpleQueue()
        self.wall_time = 0.0
        self.handlers_run = 0

    def run(self) -> None:  # pragma: no cover - exercised via ThreadedSimulator
        get = self.inbound.get
        put = self.completions.put
        clock = time.perf_counter
        while True:
            item = get()
            if item is _SHUTDOWN:
                return
            function, args = item
            begin = clock()
            try:
                function(*args)
            except BaseException as exc:  # noqa: BLE001 - shipped to coordinator
                self.wall_time += clock() - begin
                put(exc)
            else:
                self.wall_time += clock() - begin
                self.handlers_run += 1
                put(_DONE)


class _BufferedMetrics:
    """Journal-backed stand-in for the run's :class:`MetricsCollector`.

    A concurrently-running handler must not mutate the shared collector —
    commit order, not wall-clock completion order, decides how metric state
    evolves.  Every ``record_*`` method (plus the two migration markers) is
    therefore journaled in call order and replayed against the real
    collector at commit.  Any *other* attribute access — a mid-handler read
    of run-wide state such as ``processed_inputs`` — raises immediately:
    a task needing those must declare
    :attr:`~repro.engine.task.Task.reads_global_state` so the frontier
    serialises it as a barrier, rather than silently reading a torn value.
    """

    __slots__ = ("_journal",)

    _PASSTHROUGH = frozenset({"start_migration", "complete_migration"})

    def __init__(self, journal: list) -> None:
        self._journal = journal

    def __getattr__(self, name):
        if name.startswith("record_") or name in self._PASSTHROUGH:
            journal = self._journal

            def buffered(*args, _name=name, **kwargs):
                journal.append(("m", _name, args, kwargs))

            return buffered
        raise AttributeError(
            f"metrics.{name} is not available from a concurrently-dispatched "
            f"handler: only record_* mutations are journaled; a handler that "
            f"reads run-wide metric state must set Task.reads_global_state "
            f"so the threaded executor serialises it as a barrier"
        )


class _HandlerProxy:
    """The ``Context._simulator`` seen by a concurrently-dispatched handler.

    Sends and metric records are journaled (in call order) for commit-time
    replay; machine-local facilities — the per-machine RNG stream, the drain
    horizon — delegate to the real simulator, which is safe because the
    machine-affinity rule guarantees no other party touches this machine
    meanwhile (and the horizon's inputs are barrier-stable, see
    ``Simulator._drain_horizon``).  Cluster-wide reads delegate too: only
    barrier tasks use them, and those never run behind this proxy.
    """

    __slots__ = ("_simulator", "_journal", "metrics")

    def __init__(self, simulator: "ThreadedSimulator", journal: list) -> None:
        self._simulator = simulator
        self._journal = journal
        self.metrics = _BufferedMetrics(journal)

    def machine_rng(self, machine_id: int):
        return self._simulator.machine_rng(machine_id)

    @property
    def machines(self):
        return self._simulator.machines

    def max_machine_storage(self) -> float:
        return self._simulator.max_machine_storage()

    def post(self, sender_task, destination, message, category, ctx) -> None:
        # The departure is a pure function of handler-local state; capture it
        # now, replay the send through Simulator._post_at at commit.
        self._journal.append(
            ("post", sender_task, destination, message, category,
             ctx.now + ctx.charged)
        )

    def post_fanout(self, sender_task, destinations, message, category, ctx) -> None:
        self._journal.append(
            ("fanout", sender_task, list(destinations), message, category,
             ctx.now + ctx.charged)
        )


class _InflightHandler:
    """One dispatched-but-uncommitted handler in the frontier window."""

    __slots__ = (
        "machine_id", "worker", "task", "message", "start", "event_time",
        "inbox", "limit", "key", "journal", "count",
    )

    def __init__(
        self, machine_id, task, message, start, event_time, inbox, limit, key
    ) -> None:
        self.machine_id = machine_id
        self.worker = None
        self.task = task
        self.message = message
        self.start = start
        self.event_time = event_time
        self.inbox = inbox
        self.limit = limit  # 0 = plain handler, >0 = drained run limit
        self.key = key
        self.journal: list = []
        self.count = 0


class ThreadedSimulator(Simulator):
    """Real-clock backend: machine-hosted handlers run on worker threads.

    Scheduling, delivery, wire settling and the fault plane stay on the
    coordinator; handlers dispatch to the worker owning the target machine.
    Handlers of different machines overlap below the lookahead horizon and
    commit strictly in oracle pop order (see the module docstring), so the
    global ``(time, rank)`` order of handler *effects* is exactly the
    simulator oracle's and every virtual-time quantity is bit-identical.
    Off-cluster tasks (sources, collectors) have no machine to own them and
    execute on the coordinator, as before.

    Args:
        num_workers: worker threads to spawn; defaults to one per machine.
            Fewer workers than machines assigns machines round-robin — each
            machine still has exactly one owning worker, so the
            shared-nothing ownership discipline is unchanged.  More workers
            than machines clamps to the machine count; the effective size is
            readable back as :attr:`num_workers` (surfaced on ``RunResult``
            as ``effective_workers``).
        worker_timeout: bound (in real seconds) on any single wait for a
            worker; see the module docstring's robustness contract.
    """

    def __init__(
        self,
        num_machines: int,
        cost_model: CostModel | None = None,
        seed: int = 0,
        collect_outputs: bool = False,
        num_workers: int | None = None,
        worker_timeout: float = DEFAULT_WORKER_TIMEOUT,
    ) -> None:
        super().__init__(
            num_machines=num_machines,
            cost_model=cost_model,
            seed=seed,
            collect_outputs=collect_outputs,
        )
        if num_workers is None:
            num_workers = max(1, num_machines)
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        if worker_timeout <= 0:
            raise ValueError(f"worker_timeout must be > 0, got {worker_timeout}")
        # More workers than machines would leave idle threads with no
        # machines to own; clamp (a 4-machine run with the default 8-worker
        # config is not an error).  The clamped value is the effective fleet
        # size reported downstream.
        self.num_workers = min(num_workers, num_machines) if num_machines else 1
        self.worker_timeout = worker_timeout
        #: machine id -> worker index (round-robin ownership).
        self._owner = [i % self.num_workers for i in range(num_machines)]
        self._workers: list[_MachineWorker] | None = None
        #: Cumulative per-worker handler wall-clock seconds / handler counts,
        #: carried across runs (streaming pushes re-enter :meth:`run`).
        self.worker_wall = [0.0] * self.num_workers
        self.worker_events = [0] * self.num_workers
        #: The frontier window: dispatched-but-uncommitted handlers in
        #: dispatch (= oracle pop) order, and the machines they occupy.
        self._inflight: deque[_InflightHandler] = deque()
        self._inflight_machines: set[int] = set()
        #: Overlap counters, cumulative across runs like the worker stats.
        #: Both are *structurally deterministic*: dispatch and commit are
        #: forced purely by event structure (keys, window composition),
        #: never by wall-clock timing, so two runs of the same workload
        #: report identical values.
        self.overlap_dispatches = 0
        self.peak_inflight = 0

    # -------------------------------------------------------- worker lifecycle

    def _start_workers(self) -> None:
        workers = []
        for worker_id in range(self.num_workers):
            owned = tuple(
                machine_id
                for machine_id, owner in enumerate(self._owner)
                if owner == worker_id
            )
            worker = _MachineWorker(worker_id, owned)
            worker.start()
            workers.append(worker)
        self._workers = workers

    def _stop_workers(self, graceful: bool) -> None:
        workers, self._workers = self._workers, None
        if workers is None:
            return
        stuck = []
        for worker in workers:
            worker.inbound.put(_SHUTDOWN)
        for worker in workers:
            # On the error path (a handler raised or timed out) a worker may
            # be wedged mid-handler and never see the sentinel; it is a
            # daemon thread, so a short best-effort join must not mask the
            # original error with a second one.
            worker.join(timeout=self.worker_timeout if graceful else 0.1)
            if worker.is_alive():
                # Still running mid-handler: its wall_time / handlers_run
                # counters are being mutated concurrently, so folding them
                # would publish torn values.  The stats are reported lost
                # instead of folded.
                stuck.append(worker)
                continue
            self.worker_wall[worker.worker_id] += worker.wall_time
            self.worker_events[worker.worker_id] += worker.handlers_run
        if graceful and stuck:
            names = ", ".join(
                f"worker {w.worker_id} (machines {list(w.machine_ids)})" for w in stuck
            )
            raise RuntimeError(
                f"threaded executor: {names} failed to shut down within "
                f"{self.worker_timeout}s; their worker_wall/worker_events "
                f"stats were not folded (lost)"
            )

    # ------------------------------------------------------------- dispatching

    def _await_worker(self, machine_id: int, worker: _MachineWorker) -> None:
        """Collect one completion from ``worker``, bounded by the timeout."""
        try:
            outcome = worker.completions.get(timeout=self.worker_timeout)
        except queue.Empty:
            raise RuntimeError(
                f"threaded executor: machine {machine_id} is stuck — its worker "
                f"(worker {worker.worker_id}) did not finish a handler within "
                f"{self.worker_timeout}s; worker queue depth "
                f"{worker.inbound.qsize()}, machine inbox depth "
                f"{len(self._inboxes[machine_id])}"
            ) from None
        if outcome is not _DONE:
            raise RuntimeError(
                f"threaded executor: machine {machine_id} worker died in a task "
                f"handler: {outcome!r}; worker queue depth "
                f"{worker.inbound.qsize()}, machine inbox depth "
                f"{len(self._inboxes[machine_id])}"
            ) from outcome

    def _run_on_worker(self, machine_id: int, function, args) -> None:
        """Execute ``function(*args)`` on the worker owning ``machine_id``,
        blocking until it completes (the barrier / lock-step path)."""
        worker = self._workers[self._owner[machine_id]]
        worker.inbound.put((function, args))
        self._await_worker(machine_id, worker)

    def _execute(self, task: Task, message: Message, start: float) -> None:
        if task.hosted_machine is None or self._workers is None:
            # Off-cluster tasks have no owning machine; handlers reached
            # outside run() (none today) fall back to inline execution.
            Simulator._execute(self, task, message, start)
            return
        self._run_on_worker(
            task.machine_id, Simulator._execute, (self, task, message, start)
        )

    def _execute_drained(
        self, task, first, inbox, limit, key, start, event_time, machine_id
    ) -> None:
        if self._workers is None:
            Simulator._execute_drained(
                self, task, first, inbox, limit, key, start, event_time, machine_id
            )
            return
        self._run_on_worker(
            machine_id,
            Simulator._execute_drained,
            (self, task, first, inbox, limit, key, start, event_time, machine_id),
        )

    # ----------------------------------------------- the overlapping frontier

    def _concurrent_execute(self, record: _InflightHandler) -> None:
        """Worker-side body of a concurrently-dispatched handler.

        Machine-local state (busy chain, stores, inbox pulls, drain windows,
        the machine's RNG stream, recovery journaling) mutates live — the
        affinity rule guarantees exclusive access; globally-visible effects
        (sends, metric records) are journaled on ``record`` for commit-time
        replay in oracle order.
        """
        task = record.task
        ctx = Context(_HandlerProxy(self, record.journal), task, record.start)
        if record.limit:
            ctx.drain_boundaries = []
            machine_id = record.machine_id
            event_time = record.event_time
            ctx.drain_horizon = lambda: self._drain_horizon(machine_id, event_time)
        if task.name not in self._started:
            self._started.add(task.name)
            task.on_start(ctx)
        if record.limit:
            record.count = task.handle_drained(
                record.message, record.inbox, record.limit, record.key, ctx
            )
            # Inbox pulls are machine-local, and so is the member count that
            # mirrors them (see Simulator._execute_drained).
            self._inbox_members[record.machine_id] -= record.count - 1
            machine = task.hosted_machine
            if ctx.charged > 0:  # defensive: close an unrotated run tail
                machine.occupy(ctx.now, ctx.charged)
                ctx.drain_boundaries.append(machine.busy_until)
            machine.record_drain_window(record.start, ctx.drain_boundaries)
        else:
            task.handle(record.message, ctx)
            machine = task.hosted_machine
            if ctx.charged > 0:
                machine.occupy(record.start, ctx.charged)
                machine.clear_drain_window()

    def _commit_oldest(self) -> None:
        """Commit the window's oldest handler: await completion, replay its
        journaled effects in call order, then run the tick tail the oracle
        would have run right after the handler."""
        record = self._inflight.popleft()
        machine_id = record.machine_id
        self._inflight_machines.discard(machine_id)
        self._await_worker(machine_id, record.worker)
        metrics = self.metrics
        for entry in record.journal:
            tag = entry[0]
            if tag == "m":
                getattr(metrics, entry[1])(*entry[2], **entry[3])
            elif tag == "post":
                self._post_at(entry[1], entry[2], entry[3], entry[4], entry[5])
            else:
                self._post_fanout_at(entry[1], entry[2], entry[3], entry[4], entry[5])
        if record.limit:
            metrics.record_drained_run(record.count)
        self.events_processed += 1
        self._tick_tail(machine_id, record.start)

    def _tick_tail(self, machine_id: int, start: float) -> None:
        """The tail of the oracle's ``_tick``: reschedule or go idle."""
        inbox = self._inboxes[machine_id]
        if inbox:
            machine = self.machines[machine_id]
            self._schedule_tick(machine_id, max(machine.busy_until, start))
        else:
            if self._merge_wire and self._pending_wire[machine_id]:
                self._rearm_wire(machine_id)
            self._tick_scheduled[machine_id] = False

    def _closing_settle_ahead(self, machine_id: int, time: float) -> bool:
        """Whether a tick for ``machine_id`` popped at ``time`` could
        *exhaust* (and close) an open delivery-merge run.

        The close decision — and with it the wire histogram and the arming
        of the channel's next run as a fresh heap event — depends on whether
        an append reached the run before the settle that drains its last
        member, i.e. on the *exact* global pop order, not merely on
        commuting-class order.  An in-flight handler hides its machine's
        tick reschedule (pushed only at commit), and that reschedule's chain
        can carry the append the oracle applied first.  A tick facing an
        exhaustible run therefore must not pop while the window is
        non-empty: the loop commits the oldest handler and re-peeks, which
        surfaces the hidden reschedules in exact key order.  The gate
        guarantees no append can be dated ``<= time`` (sends of in-flight
        handlers deliver beyond the horizon), so commits can only clear this
        condition, never create it.
        """
        for entry in self._pending_wire[machine_id]:
            run = entry[2]
            if run is not None and not run.closed and run.times[-1] <= time:
                return True
        return False

    def _tick_frontier(self, machine_id: int, time: float) -> None:
        """Process one machine tick on the frontier.

        The *prepare* half (settle, inbox pop, drain-controller sizing) runs
        on the coordinator exactly as the oracle's ``_tick`` — it touches
        only this machine's state, which the affinity rule has made
        exclusive.  The handler then either dispatches concurrently, or —
        for barrier tasks and while event-anchored faults are armed — runs
        live with the window flushed.
        """
        if self._crashed_count and machine_id in self._crashed:
            # Stale tick popping during an outage: swallow it and leave
            # _tick_scheduled True — the restart pushes the reviving tick.
            return
        merging = self._merge_wire
        if merging and self._pending_wire[machine_id]:
            # The loop's _closing_settle_ahead gate guarantees this settle
            # cannot exhaust an open run while handlers are still in flight,
            # so the close bookkeeping below is oracle-exact.
            self._settle(machine_id, time)
        inbox = self._inboxes[machine_id]
        if not inbox:
            if merging and self._pending_wire[machine_id]:
                self._rearm_wire(machine_id)
            self._tick_scheduled[machine_id] = False
            return
        machine = self.machines[machine_id]
        start = max(time, machine.busy_until)
        entry = inbox.popleft()
        if entry.__class__ is tuple:
            task, message = entry
        else:
            task = entry.task
            message = entry.messages[entry.index]
            entry.index += 1
            if entry.index < entry.end:
                inbox.appendleft(entry)
        members = self._inbox_members
        members[machine_id] -= 1
        limit = 0
        key = None
        if self._drain_controllers is not None:
            key = task.drain_key(message)
            if key is not None:
                # Backlog estimate for the drain controller, as in the
                # oracle's _tick: this member plus every member still queued.
                sized = self._drain_controllers[machine_id].next_batch_size(
                    1 + members[machine_id]
                )
                if sized > 1 and inbox:
                    limit = sized
                else:
                    # Histogram increments commute, so recording the
                    # single-member run at prepare time (possibly ahead of
                    # older uncommitted handlers' buffered records) is exact.
                    self.metrics.record_drained_run(1)
        if task.reads_global_state or self._after_event_faults:
            # Barrier handler (or lock-step while an event-anchored fault is
            # armed): every pending effect must be visible before it runs.
            while self._inflight:
                self._commit_oldest()
            if limit:
                self._execute_drained(
                    task, message, inbox, limit, key, start, time, machine_id
                )
            else:
                self._execute(task, message, start)
            self._tick_tail(machine_id, start)
            return
        if limit:
            # Drain-horizon safety (see the module docstring): the run reads
            # its machine's in-flight priority deliveries mid-handler, so
            # every older handler's sends must be replayed before it starts.
            # The run still dispatches concurrently — younger events may
            # overlap with it; they commit (and thus take effect) after it.
            while self._inflight:
                self._commit_oldest()
        record = _InflightHandler(
            machine_id, task, message, start, time, inbox, limit, key
        )
        if self._inflight:
            self.overlap_dispatches += 1
        self._inflight.append(record)
        self._inflight_machines.add(machine_id)
        if len(self._inflight) > self.peak_inflight:
            self.peak_inflight = len(self._inflight)
        worker = self._workers[self._owner[machine_id]]
        record.worker = worker
        worker.inbound.put((self._concurrent_execute, (record,)))

    def _run_frontier(self, max_events: int | None) -> float:
        """The coordinator loop: peek-gate-dispatch with in-order commits."""
        queue_heap = self._queue
        inflight = self._inflight
        inflight.clear()
        self._inflight_machines.clear()
        heap_events = self.heap_events
        after_faults = self._after_event_faults
        latency = self.cost_model.network_latency
        wall_start = time.perf_counter()
        try:
            while queue_heap or inflight:
                if not queue_heap:
                    self._commit_oldest()
                    continue
                event_time, rank, target, message = queue_heap[0]
                if message is None:
                    barrier = False
                    event_machine = target
                elif message is _DELIVERY_RUN:
                    barrier = False
                    event_machine = target.task.machine_id
                elif message.__class__ is _FaultEvent:
                    barrier = True
                    event_machine = -1
                else:
                    machine = target.hosted_machine
                    if machine is None or message.kind in PRIORITY_KINDS:
                        barrier = True
                        event_machine = -1
                    else:
                        barrier = False
                        event_machine = machine.machine_id
                if inflight:
                    if barrier or after_faults:
                        # Barrier events and lock-step mode drain the window
                        # completely before the event processes.
                        self._commit_oldest()
                        continue
                    # The lookahead gate: the head must lie below every
                    # in-flight handler's horizon (start + latency, in the
                    # send band) — below it, no uncommitted effect can create
                    # or perturb the head event.  Sub-send-band ranks at the
                    # horizon instant (pre-run feed entries) are still safe:
                    # sends at that exact time rank above them.
                    safe = True
                    for pending in inflight:
                        horizon = pending.start + latency
                        if event_time > horizon or (
                            event_time == horizon and rank >= _SEND_RANK_BASE
                        ):
                            safe = False
                            break
                    if not safe or event_machine in self._inflight_machines:
                        # Commit the oldest and re-peek: commits push tick
                        # reschedules / replayed sends, which can change the
                        # heap head (and must order before any event of the
                        # committed machine).
                        self._commit_oldest()
                        continue
                    if (
                        message is None
                        and self._merge_wire
                        and self._closing_settle_ahead(target, event_time)
                    ):
                        # Order-sensitive settle: the tick could exhaust (and
                        # close) an open delivery-merge run, and an in-flight
                        # handler's hidden reschedule chain may carry the
                        # append the oracle applied first.  Drain the window
                        # one commit at a time, re-peeking so surfaced
                        # reschedules pop in exact key order.
                        self._commit_oldest()
                        continue
                heapq.heappop(queue_heap)
                heap_events += 1
                if event_time > self.now:
                    self.now = event_time
                if message is None:
                    self._tick_frontier(target, event_time)
                elif message is _DELIVERY_RUN:
                    self._deliver_run(target, event_time)
                elif message.__class__ is _FaultEvent:
                    self._process_fault(target, message, event_time)
                else:
                    self._deliver(target, message, event_time, rank)
                if after_faults and self.events_processed >= after_faults[0][0]:
                    while after_faults and self.events_processed >= after_faults[0][0]:
                        fault = after_faults.pop(0)[1]
                        self._crash_machine(fault.machine, fault, self.now)
                if (
                    max_events is not None
                    and self.events_processed + len(inflight) > max_events
                ):
                    raise RuntimeError(
                        f"simulation exceeded {max_events} events; "
                        f"possible signalling loop"
                    )
        finally:
            # Written back even when a handler raises, so the counter stays
            # consistent with events_processed on error paths.
            self.heap_events = heap_events
            self.wall_time += time.perf_counter() - wall_start
        finish = self.now
        for machine in self.machines:
            finish = max(finish, machine.busy_until)
        self.metrics.finish_time = finish
        return finish

    # ----------------------------------------------------------------- running

    def run(self, max_events: int | None = None) -> float:
        """Run to quiescence with the worker fleet up.

        Workers live for the duration of one :meth:`run` call (streaming
        ingestion re-enters run() per push and gets a fresh fleet; the
        cumulative ``worker_wall`` / ``worker_events`` stats carry across).
        """
        self._start_workers()
        try:
            result = self._run_frontier(max_events)
        except BaseException:
            self._stop_workers(graceful=False)
            raise
        self._stop_workers(graceful=True)
        return result


class ThreadedExecutor(Executor):
    """``executor="threads"``: the real-clock worker-thread backend."""

    name = "threads"
    parallel = True

    def __init__(
        self,
        num_workers: int | None = None,
        worker_timeout: float = DEFAULT_WORKER_TIMEOUT,
    ) -> None:
        self.num_workers = num_workers
        self.worker_timeout = worker_timeout

    @classmethod
    def from_config(cls, config) -> "ThreadedExecutor":
        worker_timeout = getattr(config, "worker_timeout", None)
        return cls(
            num_workers=config.num_workers,
            worker_timeout=(
                DEFAULT_WORKER_TIMEOUT if worker_timeout is None else worker_timeout
            ),
        )

    def build_simulator(
        self,
        *,
        num_machines: int,
        cost_model: CostModel | None = None,
        seed: int = 0,
        collect_outputs: bool = False,
    ) -> ThreadedSimulator:
        return ThreadedSimulator(
            num_machines=num_machines,
            cost_model=cost_model,
            seed=seed,
            collect_outputs=collect_outputs,
            num_workers=self.num_workers,
            worker_timeout=self.worker_timeout,
        )


register_executor("simulated", SimulatedExecutor)
register_executor("threads", ThreadedExecutor)
