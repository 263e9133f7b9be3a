"""The one switch for Python's cyclic garbage collector.

Set-up and runs make many objects and no reference cycles: a query's
records and stream tuples, a run's stored tuples and the garbage it drops
are all freed by reference counting.  A cyclic collection in the middle of
that could only walk the live heap and reclaim nothing, so the query
builders (:func:`repro.data.queries.make_query`), tuple wrapping
(:func:`repro.engine.stream.make_tuples`) and the event loop
(:meth:`repro.engine.simulator.Simulator.run`) run inside
:func:`paused_collector`.  ``tests/test_gc_pause.py`` checks both halves: a
run makes no cycles, and every caller's collector state survives.
"""

from __future__ import annotations

import contextlib
import gc
from typing import Iterator


@contextlib.contextmanager
def paused_collector() -> Iterator[None]:
    """Run the block with the cyclic collector disabled, then restore the
    caller's state (enabled or not) on every exit, a raise included."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if collecting:
            gc.enable()
