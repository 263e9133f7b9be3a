"""Batch-sizing strategies of the data plane.

Two batching planes exist:

* the **fixed** plane (PR 1) coalesces tuples into ``batch_size``-sized
  ``BATCH`` messages at the *sender* (source feeder, reshuffler route groups).
  It is the fastest plane but it changes message timing: a batch is delivered
  at its newest member's arrival time and an epoch edge can only fall between
  batches, so virtual times drift from the per-tuple reference by up to
  ``batch_size`` tuples per reshuffler.

* the **adaptive** plane keeps the wire per-tuple — every message is sent,
  transferred and delivered exactly as under ``batch_size=1`` — and instead
  coalesces at the *receiver*: when a machine starts working and its inbox
  holds a backlog of drainable messages (same task, same kind, same epoch),
  the simulator drains a controller-sized run of them into one handler
  invocation.  Each member is still charged at its own virtual-time boundary
  (see :meth:`repro.engine.task.Context.boundary`), so busy chains, output
  timestamps, migration decisions and network traffic are *bit-identical* to
  the per-tuple plane — batching degrades into a pure simulator-event and
  probe-vectorisation optimisation.  Under paced arrivals the inbox never
  backs up and the plane naturally degenerates to per-tuple processing;
  around epoch edges the drain key changes and the run is force-flushed.

A :class:`BatchController` decides how many drainable messages one machine
may coalesce per invocation, given its current inbox backlog.  Controllers
are registered in :data:`repro.api.registry.batch_controllers` (names are the
``RunConfig.batching`` values) so new strategies plug in like operators.

Receiver draining governs *handler invocations*; the orthogonal wire-level
delivery merging (installed for every draining plane) takes the per-message
*heap events* of the per-tuple wire off the global heap altogether: each
channel's run waits on the receiver's pending heap and only the ticks it
wakes are heap events — see ``repro.engine.simulator`` and the "wire plane"
section of ARCHITECTURE.md.
"""

from __future__ import annotations

from repro.api.registry import register_batch_controller

#: Largest run the built-in adaptive controller will coalesce by default.
#: Matches the fixed plane's tuned ``DEFAULT_BATCH_SIZE`` so the two planes
#: amortise comparable per-event overhead at full backlog.
DEFAULT_BATCH_MAX = 64


class BatchController:
    """Per-machine strategy sizing the next drained run.

    Attributes:
        drains: whether this controller coalesces at the receiver at all.
            ``False`` marks a pure sender-side plane (the fixed plane); the
            simulator is not given drain controllers in that case.
    """

    drains = True

    def next_batch_size(self, backlog: int) -> int:
        """Upper bound on the next drained run, given ``backlog`` queued messages.

        Must return a value in ``[1, batch_max]``; ``1`` means per-tuple
        processing.  Called once per eligible machine invocation, in
        deterministic simulation order, so stateful ramps stay reproducible.
        """
        raise NotImplementedError


class FixedBatchController(BatchController):
    """The classic sender-side plane: no receiver draining at all.

    Registered as ``batching="fixed"`` — the default.  Batch sizing is static
    (``RunConfig.batch_size``) and happens where the batches are built: the
    source feeder and the reshuffler route groups.
    """

    drains = False

    def next_batch_size(self, backlog: int) -> int:
        return 1


class AdaptiveBatchController(BatchController):
    """Backlog-driven sizing: grow under pressure, collapse when paced.

    The ramp doubles while backlog persists (so a standing queue is drained
    in exponentially growing runs up to ``batch_max``) and snaps back to
    per-tuple the moment the inbox is (nearly) empty — which is exactly the
    state a paced source keeps the machine in.  The controller never asks
    for more than the observed backlog, so it cannot make a machine wait
    for input that has not arrived.

    Invariants (pinned by the Hypothesis suite in
    ``tests/test_adaptive_conformance.py``):

    * every returned size is in ``[1, batch_max]``,
    * a backlog of ``<= 1`` always returns 1 (paced collapse),
    * under a sustained backlog ``>= batch_max`` the returned sizes are
      non-decreasing and reach ``batch_max``.
    """

    def __init__(self, batch_max: int = DEFAULT_BATCH_MAX) -> None:
        if batch_max < 1:
            raise ValueError(f"batch_max must be >= 1, got {batch_max}")
        self.batch_max = batch_max
        self._size = 1

    def next_batch_size(self, backlog: int) -> int:
        if backlog <= 1:
            self._size = 1
            return 1
        target = min(self.batch_max, backlog)
        if self._size < target:
            self._size = min(target, max(2, self._size * 2))
        else:
            self._size = target
        return self._size


register_batch_controller("fixed", FixedBatchController)
register_batch_controller("adaptive", AdaptiveBatchController)
