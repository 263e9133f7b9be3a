"""The checkpoint journal's on-disk shape: blocks + extending snapshots.

Pins, layer by layer, what the block-framed journal must keep true:

* **Store units** — one ``deltas`` row per flushed buffer (never per entry),
  extending snapshot rows over a full base or over the empty start state,
  pruning, and one test per clause of the integrity contract (CRC verified
  before unpickling, fallback to the previous snapshot row, torn-tail
  truncation, unmaskable corruption raising, warnings on the degraded paths
  only).
* **Model property** — random ``log`` / ``snapshot`` / ``flush`` / corrupt
  sequences against a small in-memory model of what ``load()`` must return.
* **Differential recovery** — crashed runs restore through extending chains
  to exactly what full snapshots restore (the journal format of the parent
  commit): same replay counters (literal values recorded at the parent
  commit), same restored stores, bit-identical simulations.
* **Bytes pin** — a short snapshot interval no longer multiplies the bytes
  written (fails on the full-snapshot-every-interval format).
* **Immutability pin** — every journaled entry pickles to the same bytes at
  ``log()`` time and at flush time, which is what makes deferred pickling
  sound.
"""

from __future__ import annotations

import logging
import pickle
import random
import sqlite3

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import JoinSession, RunConfig, crash_after_events
from repro.core import recovery
from repro.core.operator import AdaptiveJoinOperator
from repro.data.queries import JoinQuery
from repro.engine.stream import make_tuples
from repro.joins.predicates import BandPredicate, EquiPredicate
from repro.storage import CheckpointCorruptionError, CheckpointStore, ExtendedSnapshot
from repro.storage import checkpoint_store
from repro.testing import assert_run_equivalent

STORE_LOGGER = "repro.storage.checkpoint_store"


def _rows(store, table, task="j0"):
    """The seqs of ``task``'s rows in ``table``, straight from the database."""
    conn = sqlite3.connect(store.path)
    try:
        return [
            seq
            for (seq,) in conn.execute(
                f"SELECT seq FROM {table} WHERE task = ? ORDER BY seq", (task,)
            )
        ]
    finally:
        conn.close()


def _corrupt(store, table, seq, task="j0"):
    conn = sqlite3.connect(store.path)
    try:
        count = conn.execute(
            f"UPDATE {table} SET payload = X'DEADBEEF' WHERE task = ? AND seq = ?",
            (task, seq),
        ).rowcount
        conn.commit()
    finally:
        conn.close()
    assert count == 1, f"no {table} row for ({task}, {seq})"


def _entries(*values):
    return [("data", value) for value in values]


# ---------------------------------------------------------------------------
# (a) store unit tests
# ---------------------------------------------------------------------------

class TestBlocks:
    @pytest.mark.parametrize("flush_every", [1, 2, 64])
    def test_round_trip_writes_one_row_per_flushed_buffer(self, flush_every):
        store = CheckpointStore(flush_every=flush_every)
        for value in range(5):
            assert store.log("j0", ("data", value)) == value + 1
        store.flush()
        full_blocks, remainder = divmod(5, flush_every)
        starts = [index * flush_every for index in range(full_blocks + bool(remainder))]
        assert _rows(store, "deltas") == starts  # keyed by first entry, never per entry
        assert store.load("j0") == (None, _entries(0, 1, 2, 3, 4))
        assert store.delta_entries == 5
        store.close()

    def test_log_does_not_pickle(self, monkeypatch):
        store = CheckpointStore(flush_every=4)
        dumps = []
        real_dumps = pickle.dumps
        monkeypatch.setattr(
            checkpoint_store.pickle,
            "dumps",
            lambda obj, **kwargs: dumps.append(obj) or real_dumps(obj, **kwargs),
        )
        for value in range(3):
            store.log("j0", ("data", value))
        assert dumps == [] and store.bytes_written == 0
        store.log("j0", ("data", 3))  # fills the buffer: one pickle of the block
        assert dumps == [_entries(0, 1, 2, 3)]
        assert store.bytes_written > 0
        store.close()

    def test_close_flushes_so_bytes_cover_every_entry(self):
        store = CheckpointStore()
        store.log("j0", ("data", "x" * 64))
        assert store.bytes_written == 0  # still buffered
        store.close()
        assert store.bytes_written > 64


class TestExtendingSnapshots:
    def test_first_snapshot_extends_the_empty_start_state(self):
        store = CheckpointStore(flush_every=2)
        for value in (1, 2, 3):
            store.log("j0", ("data", value))
        store.snapshot("j0", {"epoch": 0}, extends=True)
        assert store.delta_count("j0") == 0
        store.log("j0", ("data", 4))
        snapshot, tail = store.load("j0")
        assert snapshot == ExtendedSnapshot(None, {"epoch": 0}, _entries(1, 2, 3))
        assert tail == _entries(4)
        store.close()

    def test_extends_after_full(self):
        store = CheckpointStore()
        for value in (1, 2):
            store.log("j0", ("data", value))
        store.snapshot("j0", {"stored": [1, 2]})
        for value in (3, 4):
            store.log("j0", ("data", value))
        store.snapshot("j0", {"epoch": 0}, extends=True)
        store.log("j0", ("data", 5))
        store.snapshot("j0", {"epoch": 0}, extends=True)
        store.log("j0", ("data", 6))
        snapshot, tail = store.load("j0")
        # Both headers fold everything back to the full base, not to each other.
        assert snapshot == ExtendedSnapshot(
            {"stored": [1, 2]}, {"epoch": 0}, _entries(3, 4, 5)
        )
        assert tail == _entries(6)
        assert store.snapshots_taken == 3
        store.close()

    def test_extending_header_is_small(self):
        store = CheckpointStore()
        store.snapshot("j0", {"stored": list(range(5000))})
        full_bytes = store.bytes_written
        store.log("j0", ("data", 1))
        store.flush()
        before = store.bytes_written
        store.snapshot("j0", {"epoch": 0}, extends=True)
        assert store.bytes_written - before < 64 < full_bytes
        store.close()

    def test_extends_with_nothing_logged_keeps_the_previous_row(self):
        store = CheckpointStore()
        store.log("j0", ("data", 1))
        store.snapshot("j0", {"stored": [1]})
        store.snapshot("j0", {"epoch": 0}, extends=True)  # would replace its own base
        assert store.snapshots_taken == 1
        assert store.load("j0") == ({"stored": [1]}, [])
        store.close()

    def test_full_snapshot_at_the_same_seq_replaces_the_header(self):
        store = CheckpointStore()
        store.log("j0", ("data", 1))
        store.snapshot("j0", {"epoch": 0}, extends=True)
        store.snapshot("j0", {"stored": [1]})
        assert _rows(store, "snapshots") == [1]
        assert store.load("j0") == ({"stored": [1]}, [])
        store.close()

    def test_pruning_keeps_exactly_what_the_newest_two_snapshots_need(self):
        store = CheckpointStore(flush_every=1)

        def log_two():
            store.log("j0", ("data", 0))
            store.log("j0", ("data", 0))

        log_two()
        store.snapshot("j0", "full@2")
        for _ in range(3):
            log_two()
            store.snapshot("j0", "header", extends=True)
        # Headers at 4, 6, 8 over the base at 2: the newest two plus the base.
        assert _rows(store, "snapshots") == [2, 6, 8]
        assert _rows(store, "deltas") == [2, 3, 4, 5, 6, 7]
        log_two()
        store.snapshot("j0", "full@10")
        # The header at 8 still needs its base and every block back to it.
        assert _rows(store, "snapshots") == [2, 8, 10]
        assert _rows(store, "deltas") == [2, 3, 4, 5, 6, 7, 8, 9]
        log_two()
        store.snapshot("j0", "header", extends=True)
        assert _rows(store, "snapshots") == [10, 12]
        assert _rows(store, "deltas") == [10, 11]
        log_two()
        store.snapshot("j0", "full@14")
        log_two()
        store.snapshot("j0", "full@16")
        # Two full snapshots: the blocks between them are the fallback's tail.
        assert _rows(store, "snapshots") == [14, 16]
        assert _rows(store, "deltas") == [14, 15]
        store.close()


class TestIntegrityContract:
    """One test per clause of the store's integrity contract."""

    def _chain(self):
        """full@1, header@3, header@5 and a one-entry tail, one block each."""
        store = CheckpointStore()
        store.log("j0", ("data", 1))
        store.snapshot("j0", {"stored": [1]})
        for value in (2, 3):
            store.log("j0", ("data", value))
        store.snapshot("j0", {"epoch": 0}, extends=True)
        for value in (4, 5):
            store.log("j0", ("data", value))
        store.snapshot("j0", {"epoch": 1}, extends=True)
        store.log("j0", ("data", 6))
        store.flush()
        assert _rows(store, "snapshots") == [1, 3, 5]
        assert _rows(store, "deltas") == [1, 3, 5]
        return store

    def test_intact_chain_loads_silently(self, caplog):
        store = self._chain()
        with caplog.at_level(logging.WARNING, logger=STORE_LOGGER):
            snapshot, tail = store.load("j0")
        assert snapshot == ExtendedSnapshot(
            {"stored": [1]}, {"epoch": 1}, _entries(2, 3, 4, 5)
        )
        assert tail == _entries(6)
        assert caplog.records == []
        store.close()

    def test_corrupt_newest_header_falls_back_with_a_longer_tail(self, caplog):
        store = self._chain()
        _corrupt(store, "snapshots", 5)
        with caplog.at_level(logging.WARNING, logger=STORE_LOGGER):
            snapshot, tail = store.load("j0")
        assert snapshot == ExtendedSnapshot({"stored": [1]}, {"epoch": 0}, _entries(2, 3))
        assert tail == _entries(4, 5, 6)
        (record,) = caplog.records
        message = record.getMessage()
        assert "'j0'" in message and "seq 5" in message and "seq 3" in message
        assert "replaying 3 entries" in message
        store.close()

    def test_both_headers_corrupt_falls_back_to_their_base(self, caplog):
        store = self._chain()
        _corrupt(store, "snapshots", 5)
        _corrupt(store, "snapshots", 3)
        with caplog.at_level(logging.WARNING, logger=STORE_LOGGER):
            snapshot, tail = store.load("j0")
        assert snapshot == {"stored": [1]}
        assert tail == _entries(2, 3, 4, 5, 6)
        assert "seq 5, 3" in caplog.records[0].getMessage()
        store.close()

    def test_corrupt_base_leaves_no_intact_chain(self):
        store = self._chain()
        _corrupt(store, "snapshots", 1)
        with pytest.raises(CheckpointCorruptionError, match="snapshot"):
            store.load("j0")
        store.close()

    def test_corrupt_folded_block_raises(self):
        store = self._chain()
        _corrupt(store, "deltas", 3)
        with pytest.raises(CheckpointCorruptionError, match="folded into the snapshot"):
            store.load("j0")
        store.close()

    def test_last_folded_block_is_not_a_torn_tail(self):
        # No block follows it, but the intact header at seq 2 vouches that
        # its entries were applied: truncating would shorten the state.
        store = CheckpointStore()
        for value in (1, 2):
            store.log("j0", ("data", value))
        store.snapshot("j0", {"epoch": 0}, extends=True)
        _corrupt(store, "deltas", 0)
        with pytest.raises(CheckpointCorruptionError, match="folded into the snapshot"):
            store.load("j0")
        store.close()

    def test_corrupt_block_with_intact_blocks_after_it_raises(self):
        store = self._chain()
        store.log("j0", ("data", 7))
        store.flush()
        _corrupt(store, "deltas", 5)
        with pytest.raises(CheckpointCorruptionError, match="not a torn tail"):
            store.load("j0")
        store.close()

    def test_torn_tail_block_is_truncated_with_a_warning(self, caplog):
        store = self._chain()
        store.log("j0", ("data", 7))
        store.flush()
        _corrupt(store, "deltas", 6)
        with caplog.at_level(logging.WARNING, logger=STORE_LOGGER):
            snapshot, tail = store.load("j0")
        assert snapshot.folded == _entries(2, 3, 4, 5)
        assert tail == _entries(6)
        (record,) = caplog.records
        message = record.getMessage()
        assert "'j0'" in message and "seq 6" in message and "torn" in message
        assert "replaying 1 entries" in message
        store.close()

    def test_no_row_is_unpickled_before_its_checksum_matched(self, monkeypatch):
        store = self._chain()
        _corrupt(store, "snapshots", 5)
        store.log("j0", ("data", 7))
        store.flush()
        _corrupt(store, "deltas", 6)
        seen = []
        real_loads = pickle.loads
        monkeypatch.setattr(
            checkpoint_store.pickle,
            "loads",
            lambda payload: seen.append(payload) or real_loads(payload),
        )
        snapshot, tail = store.load("j0")
        assert snapshot.header == {"epoch": 0} and tail == _entries(4, 5, 6)
        assert seen and b"\xde\xad\xbe\xef" not in seen
        store.close()


# ---------------------------------------------------------------------------
# (b) model property: random op sequences against an in-memory model
# ---------------------------------------------------------------------------

_CORRUPT = "corrupt"


def _model_load(entries, blocks, snapshots, bad_snapshots, bad_blocks):
    """What ``load()`` must return, from plain lists.

    ``entries``: every entry logged.  ``blocks``: first seq of every block
    written.  ``snapshots``: ``seq -> (base, state)`` of every row written.
    """
    newest = sorted(snapshots)[-2:]
    retained = set(newest) | {snapshots[seq][0] for seq in newest} - {None}
    seq, base, state = 0, 0, None
    for seq in sorted(retained, reverse=True):
        base, state = snapshots[seq]
        if seq not in bad_snapshots and (base in (None, seq) or base not in bad_snapshots):
            break
    else:
        if retained:
            return _CORRUPT
        seq = base = 0
    end = len(entries)
    for first in (first for first in blocks if first >= (base or 0)):
        if first in bad_blocks:
            if first < seq or any(b > first and b not in bad_blocks for b in blocks):
                return _CORRUPT
            end = first
            break
    if base == seq:
        return state, entries[seq:end]
    base_state = None if base is None else snapshots[base][1]
    return ExtendedSnapshot(base_state, state, entries[base or 0:seq]), entries[seq:end]


_OPS = st.one_of(
    st.just(("log",)),
    st.just(("log",)),
    st.just(("log",)),
    st.just(("flush",)),
    st.just(("load",)),
    st.tuples(st.just("snapshot"), st.booleans()),
    st.tuples(st.just("corrupt"), st.sampled_from(["snapshots", "deltas"])),
)


class TestJournalModelProperty:
    @settings(max_examples=120, deadline=None)
    @given(
        flush_every=st.sampled_from([1, 2, 3, 64]),
        ops=st.lists(_OPS, min_size=1, max_size=40),
    )
    def test_load_matches_the_model(self, flush_every, ops):
        store = CheckpointStore(flush_every=flush_every)
        entries, blocks, snapshots = [], [], {}
        bad_snapshots, bad_blocks = set(), set()
        flushed = 0  # entries already written as blocks

        def model_flush():
            nonlocal flushed
            if flushed < len(entries):
                blocks.append(flushed)
                flushed = len(entries)

        def check_load():
            model_flush()
            expected = _model_load(entries, blocks, snapshots, bad_snapshots, bad_blocks)
            if expected is _CORRUPT:
                with pytest.raises(CheckpointCorruptionError):
                    store.load("j0")
            else:
                assert store.load("j0") == expected

        try:
            for op in ops + [("load",)]:
                if op[0] == "log":
                    entries.append(("data", len(entries)))
                    store.log("j0", entries[-1])
                    if len(entries) - flushed >= flush_every:
                        model_flush()
                elif op[0] == "flush":
                    store.flush()
                    model_flush()
                elif op[0] == "load":
                    check_load()
                elif op[0] == "snapshot":
                    model_flush()
                    seq = len(entries)
                    previous = max(snapshots, default=None)
                    state = f"state@{seq}/{len(snapshots)}"
                    store.snapshot("j0", state, extends=op[1])
                    if not op[1]:
                        snapshots[seq] = (seq, state)
                        bad_snapshots.discard(seq)
                    elif previous != seq:  # extending its own seq is a no-op
                        base = None if previous is None else snapshots[previous][0]
                        snapshots[seq] = (base, state)
                else:
                    table = op[1]
                    stored = _rows(store, table)
                    if stored:  # corrupt the newest row of the table
                        _corrupt(store, table, stored[-1])
                        (bad_snapshots if table == "snapshots" else bad_blocks).add(stored[-1])
        finally:
            store.close()


# ---------------------------------------------------------------------------
# (c) differential recovery: extending chains vs full snapshots
# ---------------------------------------------------------------------------

MACHINES = 8
CRASHED = 3
JOINER = f"joiner-{CRASHED}"
INTERVAL = 25

PLANES = {
    "per_tuple": {"batch_size": 1},
    "fixed64": {"batch_size": 64},
    "adaptive": {"batching": "adaptive"},
}

#: Event-count crash anchors per plane, one per journal situation of the
#: crashed joiner (each test asserts its anchor lands where it is labelled).
SITUATIONS = ("before_first_snapshot", "between_extending", "during_migration", "after_migration")
ANCHORS = {
    "per_tuple": (200, 1150, 1700, 1895),
    "fixed64": (8, 26, 120, 203),
    "adaptive": (200, 950, 1400, 1470),
}

#: ``(tuples_replayed, recovery_time)`` of every cell, recorded at the parent
#: commit (full snapshot every interval, one journal row per entry).
PARENT = {
    ("equi", "adaptive", "before_first_snapshot"): (17, 17.75),
    ("equi", "adaptive", "between_extending"): (11, 41.25),
    ("equi", "adaptive", "during_migration"): (29, 67.25),
    ("equi", "adaptive", "after_migration"): (1, 51.25),
    ("equi", "fixed64", "before_first_snapshot"): (14, 15.5),
    ("equi", "fixed64", "between_extending"): (18, 35.0),
    ("equi", "fixed64", "during_migration"): (42, 71.0),
    ("equi", "fixed64", "after_migration"): (10, 58.0),
    ("equi", "per_tuple", "before_first_snapshot"): (17, 17.75),
    ("equi", "per_tuple", "between_extending"): (11, 41.25),
    ("equi", "per_tuple", "during_migration"): (33, 70.25),
    ("equi", "per_tuple", "after_migration"): (1, 51.25),
    ("band", "adaptive", "before_first_snapshot"): (17, 17.75),
    ("band", "adaptive", "between_extending"): (10, 41.0),
    ("band", "adaptive", "during_migration"): (32, 70.0),
    ("band", "adaptive", "after_migration"): (3, 53.25),
    ("band", "fixed64", "before_first_snapshot"): (14, 15.5),
    ("band", "fixed64", "between_extending"): (18, 35.0),
    ("band", "fixed64", "during_migration"): (42, 71.0),
    ("band", "fixed64", "after_migration"): (0, 63.0),
    ("band", "per_tuple", "before_first_snapshot"): (17, 17.75),
    ("band", "per_tuple", "between_extending"): (10, 41.0),
    ("band", "per_tuple", "during_migration"): (32, 70.0),
    ("band", "per_tuple", "after_migration"): (0, 51.0),
}


def _scenario(kind):
    """A paced run whose input ratio shifts mid-stream: 1:2 interleaved, then
    right-only — the controller migrates (2,4) -> (1,8) around two thirds in,
    after an early pair of warm-up migrations."""
    rng = random.Random(11)
    left = [{"k": rng.randrange(40), "id": index} for index in range(60)]
    right = [{"k": rng.randrange(40), "id": index} for index in range(480)]
    predicate = (
        EquiPredicate("k", "k") if kind == "equi" else BandPredicate("k", "k", width=1)
    )
    query = JoinQuery(
        name=kind.upper(),
        left_relation="R",
        right_relation="S",
        left_records=left,
        right_records=right,
        predicate=predicate,
    )
    left_tuples = make_tuples("R", left, rng, query.left_tuple_size)
    right_tuples = make_tuples("S", right, rng, query.right_tuple_size)
    order = []
    for index, item in enumerate(left_tuples):
        order.append(item)
        order.extend(right_tuples[2 * index:2 * index + 2])
    order.extend(right_tuples[2 * len(left_tuples):])
    return query, order


@pytest.fixture(scope="module")
def scenarios():
    return {kind: _scenario(kind) for kind in ("equi", "band")}


def _run(query, order, **overrides):
    config = RunConfig(
        machines=MACHINES,
        seed=5,
        warmup_tuples=64,
        inter_arrival=1.0,
        checkpoint_interval=INTERVAL,
        **overrides,
    )
    return AdaptiveJoinOperator(query, config=config).run(
        arrival_order=order, collect_outputs=True
    )


def _state_fingerprint(state):
    """Everything of a restored joiner state a later handler can observe."""
    stores = {"store": state.store, **(state._parts or {})}
    return {
        "epoch": state.current_epoch,
        "pending": state.pending_epoch,
        "phase": state.phase,
        "ends": set(state._received_ends),
        "signals": set(state._signals),
        "early": [(kind, item.tuple_id) for kind, item in state._early_messages],
        "stored": {
            (name, relation): [item.tuple_id for item in store.stored(relation)]
            for name, store in stores.items()
            for relation in (store.left_relation, store.right_relation)
        },
    }


def _crashed_run(monkeypatch, query, order, anchor, *, full_snapshots, **overrides):
    """One crashed run; returns ``(result, loaded, restored)`` — what the
    crashed joiner's ``load()`` returned and its state right after restore.

    ``full_snapshots=True`` forces the parent commit's policy: every joiner
    snapshot is a self-contained full one.
    """
    captured = {}
    with monkeypatch.context() as patch:
        if full_snapshots:
            real_log = recovery.JoinerJournal.log

            def log(self, entry):
                real_log(self, entry)
                self._inserts_only = False

            patch.setattr(recovery.JoinerJournal, "log", log)
        real_load = CheckpointStore.load

        def load(self, task):
            loaded = real_load(self, task)
            if task == JOINER:
                captured["loaded"] = loaded
            return loaded

        patch.setattr(CheckpointStore, "load", load)
        real_restore = recovery.RecoveryManager._restore_joiner

        def restore(self, task):
            counts = real_restore(self, task)
            captured["restored"] = _state_fingerprint(task.state)
            return counts

        patch.setattr(recovery.RecoveryManager, "_restore_joiner", restore)
        result = _run(
            query, order, fault_schedule=[crash_after_events(CRASHED, anchor)], **overrides
        )
    return result, captured["loaded"], captured["restored"]


def _assert_situation(situation, loaded):
    snapshot, tail = loaded
    kinds = [entry[0] for entry in tail]
    migrating = "signal" in kinds and "final" not in kinds[kinds.index("signal"):]
    if situation == "before_first_snapshot":
        assert snapshot is None and tail
    elif situation == "between_extending":
        assert isinstance(snapshot, ExtendedSnapshot) and snapshot.folded
        assert not migrating
    elif situation == "during_migration":
        assert migrating
    else:
        # Right after a migration: the first safe point wrote a full snapshot.
        assert isinstance(snapshot, dict) and "relations" in snapshot
        assert not migrating


def _assert_same_recovery(monkeypatch, query, order, twin, anchor, situation, key, **overrides):
    extending, loaded, restored = _crashed_run(
        monkeypatch, query, order, anchor, full_snapshots=False, **overrides
    )
    _assert_situation(situation, loaded)
    forced, forced_loaded, forced_restored = _crashed_run(
        monkeypatch, query, order, anchor, full_snapshots=True, **overrides
    )
    assert not isinstance(forced_loaded[0], ExtendedSnapshot)
    assert restored == forced_restored
    assert_run_equivalent(extending, forced, events=True, label=str(key))
    for result in (extending, forced):
        assert result.faults_injected == 1
        assert (result.tuples_replayed, result.recovery_time) == PARENT[key]
        assert sorted(result.outputs) == sorted(twin.outputs)
    # The same crash costs fewer journal bytes: headers instead of stores.
    assert extending.checkpoint_overhead <= forced.checkpoint_overhead


_TWINS: dict = {}


def _twin(scenarios, kind, plane):
    if (kind, plane) not in _TWINS:
        query, order = scenarios[kind]
        _TWINS[kind, plane] = _run(query, order, **PLANES[plane])
    return _TWINS[kind, plane]


class TestDifferentialRecovery:
    @pytest.mark.parametrize("situation", SITUATIONS)
    @pytest.mark.parametrize("plane", sorted(PLANES))
    @pytest.mark.parametrize("kind", ["equi", "band"])
    def test_extending_chain_restores_what_full_snapshots_restore(
        self, monkeypatch, scenarios, kind, plane, situation
    ):
        query, order = scenarios[kind]
        anchor = ANCHORS[plane][SITUATIONS.index(situation)]
        _assert_same_recovery(
            monkeypatch, query, order, _twin(scenarios, kind, plane), anchor,
            situation, (kind, plane, situation), **PLANES[plane],
        )


class TestJoinerJournalPolicy:
    """When a joiner snapshot may extend, on a real joiner task driven by
    hand: whatever kind the journal picks, restoring must give back the live
    state."""

    @pytest.fixture()
    def joiner(self, scenarios):
        query, order = scenarios["equi"]
        operator = AdaptiveJoinOperator(
            query, config=RunConfig(machines=4, seed=5, checkpoint_interval=3)
        )
        simulator, topology = operator.build_execution(expected_inputs=len(order))
        manager = simulator._recovery
        kinds = []
        real_snapshot = manager.store.snapshot

        def snapshot(task, state, extends=False):
            kinds.append("extends" if extends else "full")
            assert ("relations" in state) == (not extends)
            real_snapshot(task, state, extends=extends)

        manager.store.snapshot = snapshot
        task = simulator.tasks[topology.joiner(0)]
        yield task, manager, kinds, order
        manager.store.close()

    @staticmethod
    def _data(task, items):
        for item in items:
            task._journal.log(("data", item))
            task.state.handle_data(item)
        task._journal.maybe_snapshot(task)

    @staticmethod
    def _assert_restores_to_live_state(task, manager):
        live = _state_fingerprint(task.state), task._ends_sent_for
        manager._restore_joiner(task)
        assert (_state_fingerprint(task.state), task._ends_sent_for) == live

    def test_plain_inserts_extend_and_restore(self, joiner):
        task, manager, kinds, order = joiner
        self._data(task, order[:2])
        assert kinds == []  # below the interval
        self._data(task, order[2:4])
        self._data(task, order[4:7])
        assert kinds == ["extends", "extends"]
        self._data(task, order[7:8])  # a one-entry tail
        self._assert_restores_to_live_state(task, manager)

    def test_buffered_early_tuple_forces_a_full_snapshot(self, joiner):
        # A tuple tagged with an epoch the joiner has no signal for yet is
        # journaled as "data" but buffered, not inserted: folding it as an
        # insert would restore a different state.
        task, manager, kinds, order = joiner
        self._data(task, [*order[:3], order[3].with_epoch(1)])
        assert task.state._early_messages and kinds == ["full"]
        self._assert_restores_to_live_state(task, manager)
        self._data(task, order[4:7])
        assert kinds == ["full", "full"]  # still buffered
        self._assert_restores_to_live_state(task, manager)

    @pytest.mark.parametrize("kind", ["mu", "end", "ends_sent"])
    def test_any_other_entry_since_the_previous_snapshot_forces_full(self, joiner, kind):
        task, manager, kinds, order = joiner
        self._data(task, order[:3])
        if kind == "mu":
            task._journal.log(("mu", order[3]))
            task.state.handle_migrated(order[3])  # NORMAL phase: buffered as early
        elif kind == "end":
            task._journal.log(("end", 2))
            task.state.register_migration_end(2)
        else:
            task._journal.log(("ends_sent", 1))
            task._ends_sent_for = 1
        self._data(task, order[4:6])
        assert kinds == ["extends", "full"]
        self._assert_restores_to_live_state(task, manager)
        self._data(task, order[6:9])
        assert kinds[2:] == ["full" if kind == "mu" else "extends"]
        self._assert_restores_to_live_state(task, manager)

    @pytest.mark.parametrize(
        "entry", [("signal", 1, (2, 2), (1, 4), "reshuffler-0"), ("final",)]
    )
    def test_epoch_protocol_entries_force_full(self, joiner, entry):
        # Journal-only (the state machine is not driven, so no restore check):
        # in a real migration these never come without end markers, which the
        # differential runs cover; the rule itself is pinned here.
        task, _manager, kinds, order = joiner
        task._journal.log(entry)
        self._data(task, order[:3])
        self._data(task, order[3:6])
        assert kinds == ["full", "extends"]


# ---------------------------------------------------------------------------
# (d) bytes pin: a short interval no longer multiplies the journal
# ---------------------------------------------------------------------------

def _balanced_scenario():
    rng = random.Random(23)
    records = [
        [{"k": rng.randrange(200), "id": index} for index in range(1200)]
        for _side in range(2)
    ]
    query = JoinQuery(
        name="BALANCED",
        left_relation="R",
        right_relation="S",
        left_records=records[0],
        right_records=records[1],
        predicate=EquiPredicate("k", "k"),
    )
    left = make_tuples("R", records[0], rng, query.left_tuple_size)
    right = make_tuples("S", records[1], rng, query.right_tuple_size)
    order = [item for pair in zip(left, right) for item in pair]
    return query, order


def test_short_interval_does_not_multiply_checkpoint_bytes():
    query, order = _balanced_scenario()
    overhead = {}
    for interval in (50, 200):
        config = RunConfig(
            machines=4,
            seed=5,
            batching="adaptive",
            warmup_tuples=2 * len(order),  # never decides: migration-free
            checkpoint_interval=interval,
        )
        result = AdaptiveJoinOperator(query, config=config).run(arrival_order=order)
        assert result.migrations == 0
        overhead[interval] = result.checkpoint_overhead
    # Re-pickling every joiner's store once per interval made this 3x; with
    # extending snapshots only the per-interval headers differ.
    assert overhead[50] <= 1.1 * overhead[200]


# ---------------------------------------------------------------------------
# (e) immutability pin: deferred pickling sees the bytes log() saw
# ---------------------------------------------------------------------------

def test_entries_pickle_identically_at_log_time_and_at_flush_time(monkeypatch, scenarios):
    query, order = scenarios["equi"]
    at_log_time: dict[str, list[bytes]] = {}
    compared = {"entries": 0, "kinds": set()}
    real_log = CheckpointStore.log
    real_flush = CheckpointStore._flush_task_locked

    def log(self, task, entry):
        at_log_time.setdefault(task, []).append(pickle.dumps(entry))
        return real_log(self, task, entry)

    def flush(self, task, journal):
        pending = at_log_time.pop(task, [])
        assert [pickle.dumps(entry) for entry in journal.buffer] == pending
        compared["entries"] += len(pending)
        compared["kinds"].update(entry[0] for entry in journal.buffer)
        return real_flush(self, task, journal)

    monkeypatch.setattr(CheckpointStore, "log", log)
    monkeypatch.setattr(CheckpointStore, "_flush_task_locked", flush)
    config = RunConfig(
        machines=MACHINES,
        seed=5,
        warmup_tuples=64,
        inter_arrival=1.0,
        batching="adaptive",
        checkpoint_interval=INTERVAL,
    )
    session = JoinSession(query, config=config)
    session.open_stream()
    for start in range(0, len(order), 32):
        session.push(items=order[start:start + 32])
    result = session.finish()
    assert result.migrations >= 1
    assert at_log_time == {}  # close() flushed the rest through the same check
    assert compared["entries"] > len(order)
    assert {"data", "mu", "signal", "end", "final", "rmap"} <= compared["kinds"]
