"""Columnar, array-backed storage for high-volume observability data.

The observability layer's default containers are Python lists of
boxed objects — one heap allocation (and one GC-tracked object) per
trace event, lock-hold sample or cost entry.  On a saturation run that
is millions of allocations that exist only to be folded into a
histogram or scanned once by a report.  This module provides the
columnar fast path: homogeneous fields live in preallocated
``array``-module typed buffers (8 bytes per float instead of a 24-byte
float object plus list slot), and repeated strings — node names,
message types, record types — are interned to small integers once.

Three layers build on the same primitives:

* :class:`FloatColumn` / :class:`IntColumn` — growable typed buffers
  with list-compatible reads (iteration, slicing, equality against
  plain lists), used by
  :class:`~repro.metrics.collector.MetricsCollector`
  for lock-hold and force-latency samples;
* :class:`PairColumn` — an interned-string + float pair stream that
  still iterates as ``(name, value)`` tuples;
* :class:`ColumnarTraceLog` — drop-in storage for
  :class:`~repro.trace.recorder.Tracer` events
  (``Tracer(columnar=True)``) that materializes ``TraceEvent`` objects
  only when an event is actually inspected;
* :class:`CostTape` — an append-only (time, txn, node, kind) tape the
  :class:`~repro.obs.ledger.CostLedger` can carry for post-hoc cost
  timelines without per-event objects.

Results are identical to the list-backed containers; only the memory
and allocation profile changes.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

#: Initial element capacity of a typed buffer; doubles on overflow.
_INITIAL_CAPACITY = 256


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
    """Growable typed buffer: preallocated array, doubling growth."""

    __slots__ = ("_buf", "_len")

    _typecode = "d"
    _zero: object = 0.0

    def __init__(self, values: Iterable = ()) -> None:
        self._buf = array(self._typecode,
                          [self._zero]) * _INITIAL_CAPACITY
        self._len = 0
        for value in values:
            self.append(value)

    def append(self, value) -> None:
        n = self._len
        buf = self._buf
        if n == len(buf):
            buf.extend(buf)     # double capacity in one C-level copy
        buf[n] = value
        self._len = n + 1

    def extend(self, values: Iterable) -> None:
        for value in values:
            self.append(value)

    def __len__(self) -> int:
        return self._len

    def __bool__(self) -> bool:
        return self._len > 0

    def __iter__(self) -> Iterator:
        buf = self._buf
        for index in range(self._len):
            yield buf[index]

    def __getitem__(self, index):
        if isinstance(index, slice):
            start, stop, step = index.indices(self._len)
            clone = type(self)()
            clone.extend(self._buf[start:stop:step])
            return clone
        if index < 0:
            index += self._len
        if not 0 <= index < self._len:
            raise IndexError("column index out of range")
        return self._buf[index]

    def __eq__(self, other) -> bool:
        if isinstance(other, (_TypedColumn, list, tuple)):
            return len(self) == len(other) and all(
                mine == theirs for mine, theirs in zip(self, other))
        return NotImplemented

    def __repr__(self) -> str:
        return f"<{type(self).__name__} n={self._len}>"

    def to_list(self) -> list:
        return self._buf[:self._len].tolist()


class FloatColumn(_TypedColumn):
    """Append-only float64 column (lock holds, latency samples)."""

    __slots__ = ()
    _typecode = "d"
    _zero = 0.0


class IntColumn(_TypedColumn):
    """Append-only int64 column (counts, interned string ids)."""

    __slots__ = ()
    _typecode = "q"
    _zero = 0


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


class ColumnarTraceLog:
    """Columnar storage for :class:`~repro.trace.recorder.TraceEvent`.

    Protocol traces are extremely repetitive — a handful of node
    names, message types and note strings repeated per transaction —
    so every string field interns to an int column and the whole event
    costs ~26 bytes instead of a 100+-byte dataclass.  Events are
    materialized lazily: ``log[i]`` and iteration rebuild real
    ``TraceEvent`` objects, so diagram rendering and tests see the
    exact objects the list-backed tracer would have produced.
    """

    __slots__ = ("_time", "_kind", "_node", "_text", "_dst", "_forced",
                 "_txn", "_interner")

    def __init__(self) -> None:
        self._interner = StringInterner()
        self._time = array("d")
        self._kind = array("i")
        self._node = array("i")
        self._text = array("i")
        self._dst = array("i")
        self._forced = array("b")   # -1 none / 0 false / 1 true
        self._txn = array("i")

    def append_fields(self, time: float, kind: str, node: str, text: str,
                      dst: Optional[str], forced: Optional[bool],
                      txn_id: Optional[str]) -> None:
        intern = self._interner.intern
        self._time.append(time)
        self._kind.append(intern(kind))
        self._node.append(intern(node))
        self._text.append(intern(text))
        self._dst.append(intern(dst))
        self._forced.append(-1 if forced is None else int(forced))
        self._txn.append(intern(txn_id))

    def append(self, event) -> None:
        """List-compatible append of an already-built TraceEvent."""
        self.append_fields(event.time, event.kind, event.node, event.text,
                           event.dst, event.forced, event.txn_id)

    def _materialize(self, index: int):
        from repro.trace.recorder import TraceEvent
        lookup = self._interner.lookup
        forced = self._forced[index]
        return TraceEvent(
            time=self._time[index],
            kind=lookup(self._kind[index]),
            node=lookup(self._node[index]),
            text=lookup(self._text[index]),
            dst=lookup(self._dst[index]),
            forced=None if forced < 0 else bool(forced),
            txn_id=lookup(self._txn[index]))

    def __len__(self) -> int:
        return len(self._time)

    def __bool__(self) -> bool:
        return len(self._time) > 0

    def __iter__(self) -> Iterator:
        for index in range(len(self._time)):
            yield self._materialize(index)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._materialize(i)
                    for i in range(*index.indices(len(self._time)))]
        if index < 0:
            index += len(self._time)
        if not 0 <= index < len(self._time):
            raise IndexError("trace index out of range")
        return self._materialize(index)


class CostTape:
    """Append-only (time, txn, node, kind) tape of ledger cost events.

    One row per cost the :class:`~repro.obs.ledger.CostLedger`
    attributes — message send, delivery, log write, hardening — in
    arrival order, four small scalars wide.  Lets a report reconstruct
    *when* a transaction paid each cost without the ledger keeping a
    per-event object alive.
    """

    __slots__ = ("_time", "_txn", "_node", "_kind", "_interner")

    def __init__(self) -> None:
        self._interner = StringInterner()
        self._time = array("d")
        self._txn = array("i")
        self._node = array("i")
        self._kind = array("i")

    def record(self, time: float, txn_id: Optional[str],
               node: Optional[str], kind: str) -> None:
        intern = self._interner.intern
        self._time.append(time)
        self._txn.append(intern(txn_id))
        self._node.append(intern(node))
        self._kind.append(intern(kind))

    def __len__(self) -> int:
        return len(self._time)

    def rows(self) -> Iterator[Tuple[float, Optional[str],
                                     Optional[str], str]]:
        lookup = self._interner.lookup
        for index in range(len(self._time)):
            yield (self._time[index], lookup(self._txn[index]),
                   lookup(self._node[index]), lookup(self._kind[index]))

    def for_txn(self, txn_id: str) -> List[Tuple[float, str, str]]:
        """(time, node, kind) rows for one transaction, in order."""
        return [(time, node, kind) for time, txn, node, kind in self.rows()
                if txn == txn_id]

    def counts_by_kind(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        lookup = self._interner.lookup
        for ident in self._kind:
            kind = lookup(ident)
            counts[kind] = counts.get(kind, 0) + 1
        return counts
