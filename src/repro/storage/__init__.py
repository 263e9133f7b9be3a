"""Durable joiner state: the checkpoint store of the fault-tolerant plane.

:class:`CheckpointStore` is the SQLite-WAL-backed snapshot + delta journal
behind the fault-tolerant join plane (see ``repro.core.recovery``).  The
paper's BerkeleyDB spill to disk is modelled per machine in
:mod:`repro.engine.machine` instead.
"""

from repro.storage.checkpoint_store import (
    CheckpointCorruptionError,
    CheckpointStore,
    ExtendedSnapshot,
)

__all__ = [
    "CheckpointCorruptionError",
    "CheckpointStore",
    "ExtendedSnapshot",
]
