"""Projected records: one slotted, read-only row type per projection.

A query's records keep only the attributes its predicate reads (EQ5's are
``suppkey`` alone), so most records hold one value.  As a dict that value
costs 184 B of hash table; as a row of a slotted class it costs one 8 B slot
in a 40 B object.  :func:`row_type` builds that class once per field tuple,
and every record :func:`repro.data.queries.make_query` and
:meth:`repro.data.tpch.TpchDataset.table` build is one of its rows.

Those builders hand out one row object per distinct value tuple: a
:class:`RowPool` builds a row the first time its values are looked up and
returns that same row for every later equal lookup, so a query whose 132,000
LINEITEM records hold 2,200 distinct ``suppkey`` values holds 2,200 rows (and
their 2,200 key ints), and one row object may stand for many records, on one
side of a query or on both.  Sharing is safe because a row is never written.

A row is a read-only :class:`collections.abc.Mapping`: ``row["suppkey"]``,
``dict(row)``, ``.items()`` and ``row == {"suppkey": 5}`` behave as for the
dict it replaces, a field it does not have is a ``KeyError``, and neither
items nor attributes can be set.  A predicate reads a row's key as the
attribute of that name (:mod:`repro.joins.predicates`), one C call, so key
extraction on the hot path never enters the Python ``__getitem__`` here.

A row holds no reference to anything but its values, so rows make no
reference cycles.  It pickles as a call of its type on its values, and the
type pickles by name: ``row_types.suppkey`` here is ``row_type(("suppkey",))``,
built on first use in the process that loads it.  Per pickle the name costs
about 30 B more than a dict's key string; per one-field row, 8 B against a
one-key dict's 7 B (the args tuple a call needs); per two-field row, 10 B
against 12 B.
"""

from __future__ import annotations

import functools
from collections.abc import Mapping
from operator import attrgetter
from typing import Any, Iterator


class Row(Mapping):
    """Base of every row type; build one with :func:`row_type`."""

    __slots__ = ()

    #: The field names, in order (set on each row type).
    _fields: tuple[str, ...] = ()

    def __getitem__(self, key: str) -> Any:
        if key in self._fields:
            return getattr(self, key)
        raise KeyError(key)

    def __iter__(self) -> Iterator[str]:
        return iter(self._fields)

    def __len__(self) -> int:
        return len(self._fields)

    def __contains__(self, key: object) -> bool:
        return key in self._fields

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"a row is read-only; cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"a row is read-only; cannot delete {name!r}")

    def __repr__(self) -> str:
        return "Row(" + ", ".join(f"{name}={value!r}" for name, value in self.items()) + ")"


class _RowTypes:
    """The module-level namespace a row type pickles through by name:
    attribute ``"f1,f2"`` is ``row_type(("f1", "f2"))``."""

    def __getattr__(self, name: str) -> type[Row]:
        try:
            return row_type(tuple(name.split(",")))
        except ValueError:
            raise AttributeError(name) from None


row_types = _RowTypes()


class RowPool(dict):
    """The shared rows of one row type, keyed by value.

    ``pool[value]`` for a one-field type, ``pool[values]`` (the value tuple,
    in field order) for a wider one, is the one row holding those values: a
    missing key builds it once (``__missing__``), and a key already seen is
    a plain dict lookup with no Python call, so a builder pays for a row per
    distinct value, not per record.  A pool is meant to live as long as one
    build (one query, one table) and then be dropped; the rows it handed out
    stay alive in the records that hold them.
    """

    __slots__ = ("fields", "_build")

    def __init__(self, fields: tuple[str, ...]) -> None:
        super().__init__()
        row = row_type(fields)
        self.fields = fields
        self._build = row if len(fields) == 1 else lambda values: row(*values)

    def __missing__(self, key: Any) -> Row:
        row = self[key] = self._build(key)
        return row


@functools.cache
def row_type(fields: tuple[str, ...]) -> type[Row]:
    """The row type holding ``fields``, built once per field tuple.

    Its constructor takes the values positionally, in ``fields`` order.

    Raises:
        ValueError: for no field, a repeated one, a name that is not an
            identifier or starts with ``_``, or one that would hide a
            ``Mapping`` method (``keys``, ``get``, ...).
    """
    if not fields:
        raise ValueError("a row needs at least one field")
    for name in fields:
        if not (isinstance(name, str) and name.isidentifier()) or name.startswith("_"):
            raise ValueError(f"row field {name!r} must be an identifier not starting with '_'")
        if hasattr(Row, name):
            raise ValueError(f"row field {name!r} would hide the Mapping method of that name")
    if len(set(fields)) != len(fields):
        raise ValueError(f"repeated row field in {fields}")
    cls = type(
        "Row",
        (Row,),
        {
            "__slots__": fields,
            "__module__": __name__,
            "__qualname__": "row_types." + ",".join(fields),
            "_fields": fields,
        },
    )
    # The constructor sets each slot through its descriptor's setter (the
    # one write ``Row.__setattr__`` does not refuse), written out per field
    # as namedtuple and dataclasses do: a loop over the fields would cost
    # more than the row itself.
    namespace = {f"_set{i}": getattr(cls, name).__set__ for i, name in enumerate(fields)}
    params = "".join(f", _{i}" for i in range(len(fields)))
    body = "".join(f"    _set{i}(self, _{i})\n" for i in range(len(fields)))
    exec(f"def __init__(self{params}):\n{body}", namespace)
    cls.__init__ = namespace["__init__"]
    # The checkpoint journal pickles a row per logged tuple: its values come
    # from one C getter, and the type is pickled by name.
    values = attrgetter(*fields)
    if len(fields) == 1:
        def __reduce_ex__(self, protocol):
            return cls, (values(self),)
    else:
        def __reduce_ex__(self, protocol):
            return cls, values(self)
    cls.__reduce_ex__ = __reduce_ex__
    return cls
