"""Array-backed column primitives of the columnar tuple plane.

The columnar probe engine (``probe_engine="columnar"``, see
``repro.joins.columnar``) replaces the per-candidate Python loops of the
vectorized engine with set-at-a-time NumPy kernels.  This module holds the
engine-level building blocks, kept free of any join/protocol knowledge:

* the guarded NumPy import (``HAS_NUMPY``) — NumPy is an *optional* extra;
  the ``scalar``/``vectorized`` engines never touch this module's array
  types, and entry points that need the columnar engine fail eagerly with
  the registered choices listed (see ``RunConfig``),
* :class:`Column` — a growable, append-only NumPy buffer whose length-``n``
  views are stable snapshots (appends write past ``n``; a capacity-doubling
  realloc leaves old buffers to the views that reference them),
* :class:`MatchBlock` — the columnar match set of one probed tuple: the
  candidate run as parallel arrival-time / tuple-id arrays instead of a list
  of partner tuples.  ``MetricsCollector.record_outputs`` feeds blocks into
  the same latency ledger as the stdlib engines' ``MatchGroup``, with one
  vectorised latency kernel — values are bit-identical (same float64
  ``max``/subtract per pair, applied elementwise).
"""

from __future__ import annotations

try:  # pragma: no cover - exercised both ways across environments
    import numpy as np

    HAS_NUMPY = True
except ImportError:  # pragma: no cover
    np = None  # type: ignore[assignment]
    HAS_NUMPY = False

#: Human-readable hint appended to errors raised when the columnar engine is
#: requested without NumPy installed.
NUMPY_HINT = (
    "the columnar probe engine requires NumPy "
    "(install the 'columnar' extra: pip install repro[columnar])"
)


class Column:
    """Growable, append-only NumPy buffer with stable snapshot views.

    ``view()`` returns ``data[:n]`` without copying.  Because appends only
    ever write at positions ``>= n`` and a capacity-doubling reallocation
    swaps in a *new* buffer (the old one stays alive for as long as any view
    references it), a view taken now is a stable snapshot of the first ``n``
    elements forever — the property the equi probe kernel relies on to hand
    out zero-copy match blocks over live hash-bucket columns.
    """

    __slots__ = ("data", "n")

    def __init__(self, dtype, capacity: int = 8) -> None:
        self.data = np.empty(capacity, dtype=dtype)
        self.n = 0

    def append(self, value) -> None:
        data = self.data
        n = self.n
        if n == data.shape[0]:
            grown = np.empty(n * 2, dtype=data.dtype)
            grown[:n] = data
            self.data = data = grown
        data[n] = value
        self.n = n + 1

    def extend(self, values) -> None:
        incoming = np.asarray(values, dtype=self.data.dtype)
        needed = self.n + incoming.shape[0]
        if needed > self.data.shape[0]:
            capacity = self.data.shape[0]
            while capacity < needed:
                capacity *= 2
            grown = np.empty(capacity, dtype=self.data.dtype)
            grown[: self.n] = self.data[: self.n]
            self.data = grown
        self.data[self.n : needed] = incoming
        self.n = needed

    def view(self):
        """Zero-copy snapshot of the current contents (stable, see class doc)."""
        return self.data[: self.n]


class MatchBlock:
    """Columnar match set of one probed tuple.

    Carries the probing ``item``, its orientation (``item_is_left``: whether
    it is the R-side of every emitted pair) and the matched candidates as
    parallel ``arrivals``/``ids`` arrays — everything emission needs, with no
    per-pair tuples materialised.  Duck-type compatible with
    :class:`~repro.engine.metrics.MatchGroup` for the operations the joiner
    hot path performs (``len`` for the match cost, truthiness for the
    emission guard); the metrics collector dispatches on the type to run the
    bulk emission kernel.
    """

    __slots__ = ("item", "item_is_left", "arrivals", "ids", "count")

    def __init__(self, item, item_is_left: bool, arrivals, ids) -> None:
        self.item = item
        self.item_is_left = item_is_left
        self.arrivals = arrivals
        self.ids = ids
        self.count = arrivals.shape[0]

    def __len__(self) -> int:
        return self.count

    def __bool__(self) -> bool:
        return self.count > 0

    def pairs(self) -> list[tuple[int, int]]:
        """The matches as oriented ``(left_id, right_id)`` tuple-id pairs."""
        item_id = self.item.tuple_id
        ids = self.ids.tolist()
        if self.item_is_left:
            return [(item_id, candidate) for candidate in ids]
        return [(candidate, item_id) for candidate in ids]
