"""Columnar, array-backed storage for high-volume observability data.

The observability layer's default containers are Python lists of
boxed objects — one heap allocation (and one GC-tracked object) per
trace event, lock-hold sample or cost entry.  On a saturation run that
is millions of allocations that exist only to be folded into a
histogram or scanned once by a report.  This module provides the
columnar fast path: homogeneous fields live in
``array``-module typed buffers (8 bytes per float instead of a 24-byte
float object plus list slot), and repeated strings — node names,
message types, record types — are interned to small integers once.

Two layers build on the same primitives:

* :class:`FloatColumn` / :class:`IntColumn` — growable typed buffers
  with list-compatible reads (iteration, slicing, equality against
  plain lists), used by
  :class:`~repro.metrics.collector.MetricsCollector`
  for lock-hold and force-latency samples;
* :class:`PairColumn` — an interned-string + float pair stream that
  still iterates as ``(name, value)`` tuples.

Results are identical to the list-backed containers; only the memory
and allocation profile changes.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterable, Iterator, List, Optional, Tuple


def positions_of(column: array, value) -> List[int]:
    """Every index of ``column`` holding ``value``, ascending (C-level
    scans between hits)."""
    find = column.index
    positions: List[int] = []
    start = 0
    while True:
        try:
            start = find(value, start)
        except ValueError:
            return positions
        positions.append(start)
        start += 1


class StringInterner:
    """Bidirectional string <-> small-int mapping.

    ``None`` interns to -1 so optional fields fit the same int column.
    """

    __slots__ = ("_ids", "_strings")

    def __init__(self) -> None:
        self._ids: Dict[str, int] = {}
        self._strings: List[str] = []

    def intern(self, value: Optional[str]) -> int:
        if value is None:
            return -1
        ident = self._ids.get(value)
        if ident is None:
            ident = len(self._strings)
            self._ids[value] = ident
            self._strings.append(value)
        return ident

    def find(self, value: str) -> Optional[int]:
        """The id ``value`` interned to, or None if it never was."""
        return self._ids.get(value)

    def lookup(self, ident: int) -> Optional[str]:
        return None if ident < 0 else self._strings[ident]

    def __len__(self) -> int:
        return len(self._strings)


class _TypedColumn:
    """Growable typed buffer: an ``array``, appended to in C.

    ``append`` is the buffer's own bound method, stored on the column,
    so recording a sample never enters a Python frame.
    """

    __slots__ = ("_buf", "append")

    _typecode = "d"

    def __init__(self, values: Iterable = ()) -> None:
        self._buf = array(self._typecode, values)
        self.append = self._buf.append

    def __reduce__(self):
        return type(self), (self._buf,)

    def extend(self, values: Iterable) -> None:
        self._buf.extend(values)

    def __len__(self) -> int:
        return len(self._buf)

    def __bool__(self) -> bool:
        return len(self._buf) > 0

    def __iter__(self) -> Iterator:
        return iter(self._buf)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return type(self)(self._buf[index])
        return self._buf[index]

    def __eq__(self, other) -> bool:
        if isinstance(other, (_TypedColumn, list, tuple)):
            return len(self) == len(other) and all(
                mine == theirs for mine, theirs in zip(self, other))
        return NotImplemented

    def __repr__(self) -> str:
        return f"<{type(self).__name__} n={len(self._buf)}>"

    def to_list(self) -> list:
        return self._buf.tolist()


class FloatColumn(_TypedColumn):
    """Append-only float64 column (lock holds, latency samples)."""

    __slots__ = ()
    _typecode = "d"


class IntColumn(_TypedColumn):
    """Append-only int64 column (counts, interned string ids)."""

    __slots__ = ()
    _typecode = "q"


class PairColumn:
    """(name, value) sample stream with the name column interned.

    Reads exactly like a list of 2-tuples — iteration, slicing,
    equality — but stores one interned int and one float per sample.
    """

    __slots__ = ("_names", "_values", "_interner")

    def __init__(self, pairs: Iterable[Tuple[str, float]] = (),
                 interner: Optional[StringInterner] = None) -> None:
        self._interner = interner or StringInterner()
        self._names = IntColumn()
        self._values = FloatColumn()
        for pair in pairs:
            self.append(pair)

    def append(self, pair: Tuple[str, float]) -> None:
        name, value = pair
        self._names.append(self._interner.intern(name))
        self._values.append(value)

    def __len__(self) -> int:
        return len(self._values)

    def __bool__(self) -> bool:
        return bool(self._values)

    def __iter__(self) -> Iterator[Tuple[str, float]]:
        lookup = self._interner.lookup
        for ident, value in zip(self._names, self._values):
            yield (lookup(ident), value)

    def __getitem__(self, index):
        if isinstance(index, slice):
            clone = PairColumn(interner=self._interner)
            clone._names = self._names[index]
            clone._values = self._values[index]
            return clone
        return (self._interner.lookup(self._names[index]),
                self._values[index])

    def __eq__(self, other) -> bool:
        if isinstance(other, (PairColumn, list, tuple)):
            return len(self) == len(other) and all(
                mine == tuple(theirs)
                for mine, theirs in zip(self, other))
        return NotImplemented

    def __repr__(self) -> str:
        return f"<PairColumn n={len(self)}>"

