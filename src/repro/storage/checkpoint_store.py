"""Durable epoch-state checkpoints: an SQLite-WAL-backed snapshot + delta log.

One :class:`CheckpointStore` serves a whole run.  Each task journals its
state mutations as *delta* entries; at epoch-aligned safe points the task
writes a *snapshot*.  Recovery reads the newest intact snapshot and replays
the deltas logged after it (see :mod:`repro.core.recovery`).

Row layout — two tables, both ``(task, seq, payload, checksum)``:

* ``deltas`` holds one row per *flushed buffer* (a block), never one per
  entry: ``seq`` is the sequence number of the block's first entry and
  ``payload`` is one pickle of the list of entries, so a flush costs one
  pickle, one CRC-32 and one ``INSERT`` for up to ``flush_every`` entries,
  and the pickle memo shares what the entries have in common (the tuple
  class reference, the record keys) instead of re-emitting it per entry.
* ``snapshots`` holds ``pickle((base, state))`` at ``seq`` = the number of
  entries the task had logged when the row was written (its buffer is flushed
  first, so block boundaries always align with snapshot points).  A **full**
  row is self-contained and has ``base == seq``.  An **extending** row
  (``snapshot(..., extends=True)``) persists only the small ``state`` header
  the caller passes and *means* "the full snapshot at ``base`` ⊕ every delta
  logged between ``base`` and ``seq``" — ``base`` is ``None`` when the chain
  starts from the task's empty start state.  Between two full snapshots the
  bytes written are therefore linear in the entries logged, however short
  the snapshot interval.

Deferred pickling is sound because a logged entry is never mutated after
:meth:`log` returns: a tuple's ``arrival_time`` is assigned at feed/ingest and
its ``epoch`` only by ``with_epoch`` *copies*, both before any joiner sees
it, so pickling at flush time yields the bytes pickling at log time would
have (pinned in ``tests/test_checkpoint_journal.py``).

Durability model: the store lives in a WAL-mode SQLite file (a temp file by
default, removed when the run closes the store).  Deltas are buffered in
memory and flushed as one block every ``flush_every`` entries — write-behind,
like a group-committed log — and are force-flushed at every snapshot, at
crash time, before every :meth:`load` and at :meth:`close`, so the on-disk
journal is always complete before recovery reads it and ``bytes_written``
covers every journaled entry once the store is closed.

Connection model: the simulator runs every handler on the thread that
drives it, so the store opens one SQLite connection at construction and
every journaling, snapshot and recovery call goes through it.  One
store-wide lock serialises the buffer/counter bookkeeping and each database
transaction.

Journaling charges **zero virtual time** and touches neither the event heap
nor the rng, so a fault-free run with checkpointing enabled is bit-identical
to the same run without it (pinned in ``tests/test_fault_recovery.py``).
The I/O cost is surfaced instead as ``RunResult.checkpoint_overhead`` (block
and snapshot payload bytes written), which the recovery benchmark charts
against the interval.

Integrity model: every row carries a CRC-32 of its payload, and
:meth:`load` verifies it *before* unpickling — no row that failed its
checksum is ever deserialised.

* **Retained:** the newest *two* snapshot rows of a task, the full snapshot
  each of them extends, and every block back to the older of those bases.
  Everything older is pruned at snapshot time.
* **Maskable:** a corrupt newest snapshot row (or one whose base row is
  corrupt) falls back to the previous retained row, the blocks between the
  two replayed as a longer tail; a corrupt block at the very end of the
  journal is a torn write and is truncated (nothing after it was applied
  durably).  Both are logged as warnings.
* **Not maskable:** a corrupt block that an intact snapshot row *folds*
  (the row vouches that those entries were applied), a corrupt block with
  intact blocks after it, or snapshot rows none of which has an intact chain
  — each raises :class:`CheckpointCorruptionError`; :meth:`load` never
  returns a silently shorter state.
"""

from __future__ import annotations

import logging
import os
import pickle
import sqlite3
import tempfile
import threading
import zlib
from collections import defaultdict
from typing import Any, NamedTuple

_log = logging.getLogger(__name__)

#: What :func:`_decode` returns for a row that failed verification.
_CORRUPT = object()


class CheckpointCorruptionError(RuntimeError):
    """No intact checkpoint state remains for a task.

    Raised by :meth:`CheckpointStore.load` when no stored snapshot row of a
    task has an intact chain, or when a journal block *inside* the replay
    chain — folded into the chosen snapshot, or with intact blocks after it —
    is corrupt: either way the journal cannot reconstruct a consistent state
    and recovery must fail loudly.
    """

    def __init__(self, task: str, reason: str) -> None:
        self.task = task
        super().__init__(f"checkpoint state for task {task!r} is corrupt: {reason}")


class ExtendedSnapshot(NamedTuple):
    """What :meth:`CheckpointStore.load` returns in place of a full state when
    the newest intact snapshot row is an extending one.

    Attributes:
        base: state of the full snapshot the chain extends; ``None`` when it
            extends the task's empty start state.
        header: the state passed to ``snapshot(..., extends=True)``.
        folded: every delta logged between the base and the header, in order.
    """

    base: Any
    header: Any
    folded: list


def _decode(payload: bytes, checksum: int) -> Any:
    """The object pickled into an intact row, or ``_CORRUPT``.

    The module's only ``pickle.loads``: nothing is deserialised unless its
    CRC-32 matched.
    """
    if zlib.crc32(payload) != checksum:
        return _CORRUPT
    try:
        return pickle.loads(payload)
    except Exception:  # garbage that happens to collide with its checksum
        return _CORRUPT


def _resolve_snapshot(rows: dict, seq: int) -> tuple[Any, int] | None:
    """What the snapshot row at ``seq`` stands for, or None when the row or
    the full snapshot it extends is corrupt.

    ``rows`` maps a task's stored snapshot seqs to ``(payload, checksum)``.
    Returns ``(snapshot, fold_from)``: the state :meth:`CheckpointStore.load`
    hands back (an :class:`ExtendedSnapshot` with ``folded`` still empty for
    an extending row) and the seq from which blocks must be read.
    """
    row = _decode(*rows[seq])
    if row is _CORRUPT:
        return None
    base, state = row
    if base == seq:
        return state, seq
    if base is None:
        return ExtendedSnapshot(None, state, []), 0
    base_row = _decode(*rows[base]) if base in rows else _CORRUPT
    if base_row is _CORRUPT:
        return None
    return ExtendedSnapshot(base_row[1], state, []), base


class _TaskJournal:
    """One task's in-memory journal bookkeeping (guarded by the store lock)."""

    __slots__ = ("buffer", "next_seq", "since_snapshot", "retained")

    def __init__(self) -> None:
        self.buffer: list[Any] = []
        self.next_seq = 0
        self.since_snapshot = 0
        #: ``(seq, base)`` of the newest two snapshot rows, oldest first.
        self.retained: list[tuple[int, int | None]] = []


class CheckpointStore:
    """Snapshot + delta journal for every task of one run.

    Owns one SQLite connection for its lifetime; see the module docstring
    for the connection model.

    Args:
        path: SQLite database file.  ``None`` creates a temp file that is
            deleted on :meth:`close`.
        flush_every: buffered delta entries per task before they are written
            to the database as one block.
    """

    def __init__(self, path: str | None = None, flush_every: int = 64) -> None:
        if path is None:
            handle, path = tempfile.mkstemp(prefix="repro-checkpoint-", suffix=".sqlite")
            os.close(handle)
            self._owns_file = True
        else:
            self._owns_file = False
        self.path = path
        self.flush_every = max(1, int(flush_every))
        self._lock = threading.Lock()
        # WAL plus a group-commit-friendly sync level; the busy timeout is a
        # belt-and-braces guard (the store lock already serialises writes).
        conn = self._conn = sqlite3.connect(path)
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA synchronous=NORMAL")
        conn.execute("PRAGMA busy_timeout=10000")
        for table in ("snapshots", "deltas"):
            conn.execute(
                f"CREATE TABLE IF NOT EXISTS {table} ("
                " task TEXT NOT NULL, seq INTEGER NOT NULL, payload BLOB NOT NULL,"
                " checksum INTEGER NOT NULL, PRIMARY KEY (task, seq))"
            )
        conn.commit()
        #: Created on a task's first ``log``/``snapshot``; readers use ``.get``.
        self._journals: defaultdict[str, _TaskJournal] = defaultdict(_TaskJournal)
        self.bytes_written = 0
        self.delta_entries = 0
        self.snapshots_taken = 0
        self._closed = False

    # ------------------------------------------------------------- journaling

    def log(self, task: str, entry: Any) -> int:
        """Append one delta entry for ``task``; returns the number of deltas
        logged since that task's last snapshot.

        The entry *object* is buffered and pickled when its block is flushed,
        so it must not be mutated afterwards (see the module docstring).
        """
        with self._lock:
            journal = self._journals[task]
            journal.buffer.append(entry)
            journal.next_seq += 1
            if len(journal.buffer) >= self.flush_every:
                self._flush_task_locked(task, journal)
            self.delta_entries += 1
            journal.since_snapshot += 1
            return journal.since_snapshot

    def snapshot(self, task: str, state: Any, extends: bool = False) -> None:
        """Write a snapshot row for ``task`` and prune its journal.

        With ``extends=False`` ``state`` is the task's whole state and the
        row is self-contained.  With ``extends=True`` the row stands for "the
        previous snapshot ⊕ the deltas logged since it" (the empty start
        state ⊕ every delta, when there is no previous snapshot) and only the
        small ``state`` header is persisted; the caller vouches that those
        deltas alone reproduce the difference.  :meth:`load` then returns an
        :class:`ExtendedSnapshot`.

        Buffered deltas are flushed first — they are what an extending row
        folds and what a fallback replays.  The newest two snapshot rows are
        retained with the full snapshots they extend and every block back to
        the older base; everything older is pruned.
        """
        with self._lock:
            journal = self._journals[task]
            self._flush_task_locked(task, journal)
            seq = journal.next_seq
            retained = journal.retained
            rewrites_newest = bool(retained) and retained[-1][0] == seq
            if extends:
                if rewrites_newest:
                    # Nothing logged since the previous snapshot: that row
                    # already stands for exactly this state.
                    return
                base = retained[-1][1] if retained else None
            else:
                base = seq
            payload = pickle.dumps((base, state), protocol=pickle.HIGHEST_PROTOCOL)
            if rewrites_newest:
                retained.pop()
            retained.append((seq, base))
            del retained[:-2]
            keep = {row_seq for row_seq, _ in retained}
            keep.update(row_base for _, row_base in retained if row_base is not None)
            conn = self._conn
            conn.execute(
                "INSERT OR REPLACE INTO snapshots (task, seq, payload, checksum)"
                " VALUES (?, ?, ?, ?)",
                (task, seq, payload, zlib.crc32(payload)),
            )
            conn.execute(
                "DELETE FROM snapshots WHERE task = ? AND seq NOT IN"
                f" ({', '.join('?' * len(keep))})",
                (task, *keep),
            )
            conn.execute(
                "DELETE FROM deltas WHERE task = ? AND seq < ?",
                (task, retained[0][1] or 0),
            )
            conn.commit()
            self.bytes_written += len(payload)
            self.snapshots_taken += 1
            journal.since_snapshot = 0

    def delta_count(self, task: str) -> int:
        """Deltas logged for ``task`` since its last snapshot."""
        with self._lock:
            journal = self._journals.get(task)
            return 0 if journal is None else journal.since_snapshot

    # --------------------------------------------------------------- recovery

    def load(self, task: str) -> tuple[Any, list[Any]]:
        """The newest *intact* snapshot (or None) and the deltas logged after it.

        The snapshot is the state a full row was written with, or an
        :class:`ExtendedSnapshot` — base state, header and the deltas folded
        between them — when the newest intact row is an extending one.

        Every row's checksum is verified before it is unpickled.  A snapshot
        row that is corrupt, or whose base is, falls back to the previous
        retained row (replaying a longer tail); a corrupt block at the
        journal tail is truncated as a torn write; both are logged.
        Corruption that cannot be masked — no snapshot row with an intact
        chain, a corrupt block the chosen snapshot folds, or a corrupt block
        with intact blocks after it — raises
        :class:`CheckpointCorruptionError`.
        """
        with self._lock:
            journal = self._journals.get(task)
            if journal is not None:
                self._flush_task_locked(task, journal)
            conn = self._conn
            rows = {
                seq: (payload, checksum)
                for seq, payload, checksum in conn.execute(
                    "SELECT seq, payload, checksum FROM snapshots WHERE task = ?"
                    " ORDER BY seq DESC",
                    (task,),
                )
            }
            snapshot = None
            snapshot_seq = fold_from = 0
            skipped = []
            for seq in rows:  # newest first
                resolved = _resolve_snapshot(rows, seq)
                if resolved is not None:
                    snapshot, fold_from = resolved
                    snapshot_seq = seq
                    break
                skipped.append(seq)
            else:
                if rows:
                    raise CheckpointCorruptionError(
                        task,
                        f"none of the {len(rows)} stored snapshot row(s) has an "
                        "intact chain (checksum failures)",
                    )
            blocks = conn.execute(
                "SELECT seq, payload, checksum FROM deltas WHERE task = ?"
                " AND seq >= ? ORDER BY seq",
                (task, fold_from),
            ).fetchall()
            tail: list[Any] = []
            for index, (seq, payload, checksum) in enumerate(blocks):
                entries = _decode(payload, checksum)
                if entries is _CORRUPT:
                    if seq < snapshot_seq:
                        raise CheckpointCorruptionError(
                            task,
                            f"journal block at seq {seq} failed its checksum and is "
                            f"folded into the snapshot at seq {snapshot_seq}",
                        )
                    if any(
                        zlib.crc32(later_payload) == later_checksum
                        for _seq, later_payload, later_checksum in blocks[index + 1:]
                    ):
                        raise CheckpointCorruptionError(
                            task,
                            f"journal block at seq {seq} failed its checksum with "
                            "intact blocks after it (not a torn tail)",
                        )
                    # Torn tail: the corrupt block and everything after it
                    # were never durably applied; replay stops here.
                    _log.warning(
                        "checkpoint journal of task %r: block at seq %d failed its "
                        "checksum at the journal tail (torn write) and was "
                        "truncated; replaying %d entries",
                        task, seq, len(tail),
                    )
                    break
                if seq < snapshot_seq:
                    snapshot.folded.extend(entries)
                else:
                    tail.extend(entries)
            if skipped:
                _log.warning(
                    "checkpoint journal of task %r: snapshot row(s) at seq %s failed "
                    "verification; fell back to the snapshot at seq %d, replaying "
                    "%d entries",
                    task, ", ".join(map(str, skipped)), snapshot_seq, len(tail),
                )
            return snapshot, tail

    # --------------------------------------------------------------- plumbing

    def _flush_task_locked(self, task: str, journal: _TaskJournal) -> None:
        """Write one task's buffer as one block; the caller holds the lock."""
        buffer = journal.buffer
        if buffer:
            payload = pickle.dumps(buffer, protocol=pickle.HIGHEST_PROTOCOL)
            conn = self._conn
            conn.execute(
                "INSERT INTO deltas (task, seq, payload, checksum)"
                " VALUES (?, ?, ?, ?)",
                (task, journal.next_seq - len(buffer), payload, zlib.crc32(payload)),
            )
            conn.commit()
            self.bytes_written += len(payload)
            journal.buffer = []

    def _flush_all_locked(self) -> None:
        for task, journal in self._journals.items():
            self._flush_task_locked(task, journal)

    def flush(self) -> None:
        """Force every buffered delta to the database (pre-recovery barrier)."""
        with self._lock:
            self._flush_all_locked()

    def close(self) -> None:
        """Flush what is still buffered, close the connection and remove the
        backing temp file.

        The final flush makes ``bytes_written`` cover every journaled entry.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            try:
                self._flush_all_locked()
            finally:
                try:
                    self._conn.close()
                except sqlite3.Error:  # pragma: no cover - best-effort close
                    pass
                if self._owns_file:
                    for suffix in ("", "-wal", "-shm"):
                        try:
                            os.unlink(self.path + suffix)
                        except OSError:
                            pass

    def __del__(self) -> None:  # pragma: no cover - best-effort cleanup
        try:
            self.close()
        except Exception:
            pass
