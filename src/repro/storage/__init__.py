"""Joiner-local storage with out-of-core (spill) and durable-checkpoint models.

The paper backs joiners with BerkeleyDB so that overflowing main memory does
not block processing, at the cost of an order-of-magnitude slowdown (§5).
This package provides the equivalent:

* :class:`MemoryStore` — plain in-memory tuple storage with size accounting,
* :class:`SpillStore` — a store with a memory budget and tag-partitioned
  sub-stores; tuples beyond the budget are "spilled" and every touch of
  spilled data reports a penalty factor that the engine converts into extra
  processing time,
* :class:`CheckpointStore` — the SQLite-WAL-backed snapshot + delta journal
  behind the fault-tolerant join plane (see ``repro.core.recovery``).
"""

from repro.storage.checkpoint_store import (
    CheckpointCorruptionError,
    CheckpointStore,
    ExtendedSnapshot,
)
from repro.storage.memory_store import MemoryStore
from repro.storage.spill_store import SpillStore

__all__ = [
    "CheckpointCorruptionError",
    "CheckpointStore",
    "ExtendedSnapshot",
    "MemoryStore",
    "SpillStore",
]
