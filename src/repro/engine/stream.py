"""Stream tuples and arrival schedules.

A :class:`StreamTuple` is the unit of data flowing through the operator.  It
carries the relation name, the record payload (a read-only
:class:`~collections.abc.Mapping`: a generated query's records are slotted
rows of :func:`repro.data.rows.row_type`, and a caller's dicts work alike),
a stable ``salt`` in ``[0, 1)`` fixed when the tuple enters the system, and
two bookkeeping fields stamped in place by the engine: the feed (or a
streaming session's ingest) stamps ``arrival_time``, and the reshuffler that
routes the tuple stamps ``epoch``.

A tuple's size is its type's: ``StreamTuple(..., size=...)`` builds an
instance of :func:`tuple_type` of the size (``StreamTuple`` itself for the
default ``1.0``), and an instance holds only its six other fields as slots.

On the data plane a tuple is its own message: it speaks the
:class:`~repro.engine.task.Message` protocol (``kind`` DATA, no sender, an
empty ``meta`` and ``payload`` returning itself), so the source hands the
tuple object to a reshuffler and the reshuffler fans the same object out to
its joiners.  The receiving task's role tells it which hop the tuple is on.
A tuple object therefore enters a run once, and is alive exactly once in a
parked backlog.

The salt implements the paper's random, content-insensitive routing: under an
``(n, m)``-mapping an ``R`` tuple belongs to row partition ``floor(salt * n)``
and an ``S`` tuple to column partition ``floor(salt * m)``.  Because
``floor(salt * n)`` refines dyadically as ``n`` doubles and coarsens as ``n``
halves, partition assignments stay consistent across migrations, which is what
makes the locality-aware migration of §4.2.1 possible.

With ``n`` and ``m`` powers of two no larger than the fleet, a salt matters
only to ``log2(J)`` bits, and migration moves salt intervals whose endpoints
lie on a ``1/n`` grid.  So a generated salt (:func:`assign_salts`) is the
uniform draw ``r`` rounded down to the grid of :data:`SALT_RESOLUTION` steps,
``floor(r * 4096) / 4096``: for every power of two ``n <= 4096``,
``floor(salt * n) == floor(r * n)``, and the salt lies in a ``1/n``-grid
interval exactly when ``r`` does, so every partition, fan-out and migration
is the one the full draw gives.  The grid's 4,096 floats are shared by every
tuple, and the grid operators reject fleets above :data:`SALT_RESOLUTION`
joiners.  A salt passed in by a caller keeps its full precision.
"""

from __future__ import annotations

import contextlib
import copyreg
import enum
import functools
import itertools
import math
import random
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.engine.collector import paused_collector

_tuple_ids = itertools.count()


@contextlib.contextmanager
def fresh_tuple_ids() -> Iterator[None]:
    """Number the tuples made inside the block from 0, then resume the
    process-wide counter.

    A run's figures must not depend on what ran before it in the process
    (a checkpoint's pickled size grows with the width of its tuple ids).  Ids
    made inside the block are unique among themselves, not against tuples
    made outside it, so runs in the block must not mix in earlier tuples.
    """
    global _tuple_ids
    saved, _tuple_ids = _tuple_ids, itertools.count()
    try:
        yield
    finally:
        _tuple_ids = saved


class MessageKind(enum.Enum):
    """The kinds of messages exchanged by tasks."""

    # Members are singletons; identity hashing keeps the hot per-message
    # dict/set operations (priority checks, traffic counters) at C speed
    # instead of going through Enum.__hash__.
    __hash__ = object.__hash__

    DATA = "data"                      # a stream tuple (source -> reshuffler -> joiner)
    MIGRATION = "migration"            # a relocated tuple during migration
    MIGRATION_END = "migration_end"    # sender finished relocating state to receiver
    MAPPING_CHANGE = "mapping_change"  # controller -> reshufflers: new mapping/epoch
    EPOCH_SIGNAL = "epoch_signal"      # reshuffler -> joiners: epoch change notice
    MIGRATION_ACK = "migration_ack"    # joiner -> controller: finished migration
    RESUME = "resume"                  # controller -> reshufflers: unblock buffered input
    FLUSH = "flush"                    # end-of-stream marker


#: Control-plane message kinds that are not queued behind the data backlog.
PRIORITY_KINDS = frozenset(
    {MessageKind.MAPPING_CHANGE, MessageKind.MIGRATION_ACK, MessageKind.RESUME}
)


#: Shared read-only empty ``meta`` of every data-plane tuple message —
#: data-plane handlers never read per-message meta.
EMPTY_META: Any = MappingProxyType({})


#: Steps of the grid generated salts lie on: every grid operator's row and
#: column counts divide it (see the module docstring).
SALT_RESOLUTION = 4096

#: The shared salt floats ``k / SALT_RESOLUTION``, indexed by ``k``.
_SALT_GRID = tuple(k / SALT_RESOLUTION for k in range(SALT_RESOLUTION))


#: The default tuple size, the one float object the constructor's signature
#: defaults to: a call that leaves ``size`` out is known to build a
#: ``StreamTuple`` by identity, without :func:`tuple_type`'s cached lookup.
_DEFAULT_SIZE = 1.0


@dataclass(init=False)
class StreamTuple:
    """A single tuple of one of the two input streams, and its own message.

    Attributes:
        relation: logical relation name, e.g. ``"R"`` or ``"LINEITEM_1"``.
        record: the attribute payload, a mapping of attribute names to
            values that is never written (a generated query's records are
            read-only rows, :mod:`repro.data.rows`).
        salt: value in ``[0, 1)`` used for content-insensitive partition
            assignment; assigned once, never changed.  A generated salt lies
            on the :data:`SALT_RESOLUTION` grid.
        size: size of the tuple in abstract storage units (the paper's
            ``size_R`` / ``size_S``); also the message's network size.
        tuple_id: unique id, used for output verification in tests.
        arrival_time: virtual time at which the tuple entered the operator,
            stamped in place by the feed.
        epoch: epoch tag, stamped in place by the reshuffler that routes the
            tuple — while handling its single delivery, before the fan-out,
            so no joiner ever holds a tuple whose tag can still change.

    ``size`` is a class attribute of the tuple's type, :func:`tuple_type` of
    the size, which the constructor picks: ``StreamTuple`` itself for the
    default ``1.0``.  The other six fields are the instance's slots.  The
    message protocol (``kind``, ``sender``, ``meta``, ``payload``) is plain
    class attributes: not fields, not slots, never pickled.
    """

    __slots__ = ("relation", "record", "salt", "tuple_id", "arrival_time", "epoch")

    relation: str
    record: Mapping[str, Any]
    salt: float
    size: float = _DEFAULT_SIZE
    tuple_id: int
    arrival_time: float
    epoch: int

    kind = MessageKind.DATA
    sender = None
    meta = EMPTY_META

    def __init__(
        self,
        relation: str,
        record: Mapping[str, Any],
        salt: float = 0.0,
        size: float = _DEFAULT_SIZE,
        tuple_id: int | None = None,
        arrival_time: float = 0.0,
        epoch: int = 0,
    ) -> None:
        kind = StreamTuple if size is _DEFAULT_SIZE else tuple_type(size)
        if type(self) is not kind:
            _set_type(self, kind)
        _fill(
            self,
            relation,
            record,
            salt,
            next(_tuple_ids) if tuple_id is None else tuple_id,
            arrival_time,
            epoch,
        )

    @property
    def payload(self) -> "StreamTuple":
        """The message payload: the tuple itself."""
        return self

    def __reduce_ex__(self, protocol):
        """The default reduction of a class with all seven fields as slots.

        Whatever its type, a tuple reduces to the base class and its seven
        fields, so a checkpoint journal's bytes are the ones the seven-slot
        dataclass gave (pinned in ``tests/test_engine_stream.py`` and
        ``tests/test_checkpoint_journal.py``); :meth:`__setstate__` picks
        the type back.  It is spelled out, not derived from the fields: the
        journal pickles one tuple per logged delta.  A new field must be
        added here.
        """
        return (
            copyreg.__newobj__,
            (StreamTuple,),
            (
                None,
                {
                    "relation": self.relation,
                    "record": self.record,
                    "salt": self.salt,
                    "size": self.size,
                    "tuple_id": self.tuple_id,
                    "arrival_time": self.arrival_time,
                    "epoch": self.epoch,
                },
            ),
            None,
            None,
        )

    def __setstate__(self, state) -> None:
        StreamTuple.__init__(self, **state[1])

    def partition(self, parts: int) -> int:
        """Partition index of this tuple when its relation is split ``parts`` ways."""
        index = int(self.salt * parts)
        # Guard against salt == 1.0 - epsilon rounding up at large ``parts``.
        return min(index, parts - 1)


#: Sets an instance's type past a subclass's ``__class__`` attribute.
_set_type = object.__dict__["__class__"].__set__


def _fill(item, relation, record, salt, tuple_id, arrival_time, epoch):
    """Write ``item``'s six slots and return it: the one place a tuple's
    slots are set, for the constructor and :func:`make_tuples` alike."""
    item.relation = relation
    item.record = record
    item.salt = salt
    item.tuple_id = tuple_id
    item.arrival_time = arrival_time
    item.epoch = epoch
    return item


@functools.lru_cache(maxsize=None, typed=True)
def tuple_type(size: float) -> type[StreamTuple]:
    """The :class:`StreamTuple` type whose instances have ``size``, built
    once per size: ``StreamTuple`` itself for the float ``1.0``, otherwise a
    subclass that adds no slot (an int size and its float are two sizes, as
    they pickle apart).

    Every tuple of a query whose relations have one size is of one type, so
    the engine's attribute reads see one layout whichever relation a tuple
    belongs to.  A subclass's ``__class__`` attribute reads ``StreamTuple``,
    so its instances compare, print, copy and pickle as the base class's
    (``type()`` still gives the subclass).
    """
    if type(size) is float and size == StreamTuple.size:
        return StreamTuple
    return type(
        "StreamTuple",
        (StreamTuple,),
        {
            "__slots__": (),
            "__module__": __name__,
            "__qualname__": StreamTuple.__qualname__,
            "__class__": StreamTuple,
            "size": size,
        },
    )


@dataclass
class ArrivalSchedule:
    """Arrival plan for the two input streams.

    ``items`` is the interleaved sequence of tuples in arrival order, and
    ``inter_arrival`` the virtual-time gap between consecutive arrivals.  The
    paper sets input rates "such that joiners are fully utilized"; a small
    constant gap achieves the same effect because the joiner cost per tuple
    dominates.
    """

    items: Sequence[StreamTuple]
    inter_arrival: float = 0.0

    def __len__(self) -> int:
        return len(self.items)

    def arrivals(self) -> Iterator[tuple[float, StreamTuple]]:
        """An iterator of ``(arrival_time, tuple)`` pairs, in arrival order.

        A saturated feed (no gap) stamps every tuple with one shared zero,
        the value ``index * gap`` has for every index, rather than a fresh
        float per tuple.
        """
        gap = self.inter_arrival
        if gap == 0:
            return zip(itertools.repeat(0 * gap), self.items)
        return ((index * gap, item) for index, item in enumerate(self.items))


def assign_salts(tuples: Iterable[StreamTuple], rng: random.Random) -> list[StreamTuple]:
    """Assign fresh salts to ``tuples`` (in place) and return them as a list.

    Each salt is one ``rng.random()`` draw rounded down to the shared
    :data:`SALT_RESOLUTION` grid (see the module docstring).  ``math.floor``
    rounds it: on CPython 3.11 it takes about half the time ``int`` does.
    """
    random_ = rng.random
    grid = _SALT_GRID
    floor = math.floor
    result = []
    for item in tuples:
        item.salt = grid[floor(random_() * SALT_RESOLUTION)]
        result.append(item)
    return result


def interleave_streams(
    r_tuples: Sequence[StreamTuple],
    s_tuples: Sequence[StreamTuple],
    rng: random.Random | None = None,
    pattern: str = "uniform",
) -> list[StreamTuple]:
    """Interleave two relations into a single arrival order.

    Args:
        r_tuples: tuples of the first relation.
        s_tuples: tuples of the second relation.
        rng: randomness source; required for ``pattern="uniform"``.
        pattern: ``"uniform"`` shuffles both relations together (the paper's
            default online setting), ``"r_first"`` / ``"s_first"`` stream one
            relation completely before the other, and ``"alternate"``
            interleaves them round-robin.

    Returns:
        A list of all tuples in arrival order.
    """
    if pattern == "uniform":
        if rng is None:
            raise ValueError("pattern='uniform' requires an rng")
        combined = list(r_tuples) + list(s_tuples)
        # ``rng.shuffle(combined)``, each swap index drawn by its inline
        # ``_randbelow``: the same words, the same order, one C call a draw.
        getrandbits = rng.getrandbits
        for bound in range(len(combined), 1, -1):
            bits = bound.bit_length()
            j = getrandbits(bits)
            while j >= bound:
                j = getrandbits(bits)
            combined[bound - 1], combined[j] = combined[j], combined[bound - 1]
        return combined
    if pattern == "r_first":
        return list(r_tuples) + list(s_tuples)
    if pattern == "s_first":
        return list(s_tuples) + list(r_tuples)
    if pattern == "alternate":
        combined = []
        for r_item, s_item in itertools.zip_longest(r_tuples, s_tuples):
            if r_item is not None:
                combined.append(r_item)
            if s_item is not None:
                combined.append(s_item)
        return combined
    raise ValueError(f"unknown interleaving pattern: {pattern!r}")


def reshuffler_picker(rng: random.Random, names: Sequence[str]) -> Callable[..., str]:
    """A callable returning ``rng.choice(names)``; any argument is ignored.

    The pick is ``Random._randbelow``'s redraw loop written inline, so it
    consumes exactly the words ``choice`` would: with J a power of two about
    half the draws are redrawn, and J=1 still draws.  The materialised feed
    and a streaming session's ingest share it, so both route identically.
    """
    getrandbits = rng.getrandbits
    count = len(names)
    bits = count.bit_length()

    def pick(_item: object = None) -> str:
        index = getrandbits(bits)
        while index >= count:
            index = getrandbits(bits)
        return names[index]

    return pick


def make_tuples(
    relation: str,
    records: Iterable[Mapping[str, Any]],
    rng: random.Random,
    size: float = 1.0,
) -> list[StreamTuple]:
    """Wrap raw records into :class:`StreamTuple` objects with fresh salts.

    Builds what ``StreamTuple(relation=relation, record=record, size=size)``
    builds, but looks the size's type up once per call and fills a bare
    instance of it, skipping the constructor's per-tuple lookup and keyword
    parsing: about 220 ns a tuple instead of the keyword constructor's ~530
    (CPython 3.11, 130k tuples, collector paused).  Runs with the cyclic
    collector paused: the tuples make no cycles.
    """
    kind = tuple_type(size)
    new = object.__new__
    ids = _tuple_ids
    with paused_collector():
        tuples = [_fill(new(kind), relation, record, 0.0, next(ids), 0.0, 0) for record in records]
        return assign_salts(tuples, rng)


def fluctuating_order(
    r_tuples: Sequence[StreamTuple],
    s_tuples: Sequence[StreamTuple],
    fluctuation_factor: float,
    warmup: int = 0,
) -> list[StreamTuple]:
    """Arrival order with alternating cardinality-ratio fluctuations (§5.4).

    Data from the first relation streams in until its cardinality is ``k``
    times the second relation's, then the roles swap, and so on until both
    streams are exhausted.  ``warmup`` tuples (alternating) are emitted first
    so the operator has a minimal amount of state before fluctuations start,
    mirroring the paper's "initiate adaptivity after 500K tuples" setting.

    Args:
        r_tuples: tuples of the first relation.
        s_tuples: tuples of the second relation.
        fluctuation_factor: the ratio ``k`` between the leading and the
            trailing relation at each swap point.
        warmup: number of tuples (total, alternating R/S) emitted round-robin
            before the fluctuation pattern begins.

    Returns:
        The full arrival order containing every input tuple exactly once.
    """
    if fluctuation_factor <= 1:
        raise ValueError("fluctuation_factor must be > 1")
    # ``sent_r`` / ``sent_s`` double as cursors into the two inputs.
    n_r = len(r_tuples)
    n_s = len(s_tuples)
    order: list[StreamTuple] = []
    sent_r = 0
    sent_s = 0

    for _ in range(min(warmup, n_r + n_s)):
        if sent_r < n_r and (sent_r <= sent_s or sent_s == n_s):
            order.append(r_tuples[sent_r])
            sent_r += 1
        else:
            order.append(s_tuples[sent_s])
            sent_s += 1

    # ``leading_r``: whether the first relation is the one streaming in.
    leading_r = True
    while sent_r < n_r or sent_s < n_s:
        if leading_r:
            if sent_r == n_r:
                leading_r = False
                continue
            order.append(r_tuples[sent_r])
            sent_r += 1
            if sent_r >= fluctuation_factor * max(sent_s, 1) and sent_s < n_s:
                leading_r = False
        else:
            if sent_s == n_s:
                leading_r = True
                continue
            order.append(s_tuples[sent_s])
            sent_s += 1
            if sent_s >= fluctuation_factor * max(sent_r, 1) and sent_r < n_r:
                leading_r = True
    return order
