"""Receiver-side run sizing of the adaptive data plane.

The wire stays per-tuple: every message is sent, transferred and delivered
exactly as on the ``batching="per_tuple"`` reference plane.  What the
adaptive plane (the default) changes is where messages are handled: when a
machine starts working and its inbox holds a backlog of drainable messages
(same task, same kind, same epoch), the simulator drains a controller-sized
run of them into one handler invocation.  Each member is still charged at
its own virtual-time boundary (see
:meth:`repro.engine.task.Context.boundary`), so busy chains, output
timestamps, migration decisions and network traffic are *bit-identical* to
the per-tuple plane — batching is a pure simulator-event and
probe-vectorisation optimisation.  Under paced arrivals the inbox never
backs up and the plane naturally degenerates to per-tuple processing;
around epoch edges the drain key changes and the run is force-flushed.

An :class:`AdaptiveBatchController` per machine decides how many drainable
messages it may coalesce per invocation, given its current inbox backlog.

Receiver draining governs *handler invocations*; the wire, the same on both
planes, governs *heap events*: each channel's run waits on the receiver's
pending heap and only the ticks it wakes are heap events — see
``repro.engine.simulator`` and the "wire plane" section of ARCHITECTURE.md.
"""

from __future__ import annotations

#: Largest run the adaptive controller coalesces.
DEFAULT_BATCH_MAX = 64


class AdaptiveBatchController:
    """Backlog-driven sizing: grow under pressure, collapse when paced.

    The ramp doubles while backlog persists (so a standing queue is drained
    in exponentially growing runs up to :attr:`cap`) and snaps back to
    per-tuple the moment the inbox is (nearly) empty — which is exactly the
    state a paced source keeps the machine in.  The controller never asks
    for more than the observed backlog, so it cannot make a machine wait
    for input that has not arrived.

    Invariants (pinned by the Hypothesis suite in
    ``tests/test_adaptive_conformance.py``):

    * every returned size is in ``[1, cap]``,
    * a backlog of ``<= 1`` always returns 1 (paced collapse),
    * under a sustained backlog ``>= cap`` the returned sizes are
      non-decreasing and reach ``cap``.
    """

    #: Largest run one invocation may coalesce.
    cap = DEFAULT_BATCH_MAX

    def __init__(self) -> None:
        #: The ramp: the size the last call returned.  A tick with nothing
        #: else queued resets it to 1 directly — the state
        #: ``next_batch_size(1)`` leaves — without the call (see
        #: ``Simulator._tick``).
        self.size = 1

    def next_batch_size(self, backlog: int) -> int:
        """Upper bound on the next drained run, given ``backlog`` queued messages.

        Called once per eligible machine invocation, in deterministic
        simulation order, so the ramp stays reproducible.
        """
        if backlog <= 1:
            self.size = 1
            return 1
        target = min(self.cap, backlog)
        if self.size < target:
            self.size = min(target, max(2, self.size * 2))
        else:
            self.size = target
        return self.size
