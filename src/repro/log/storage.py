"""Stable storage: the part of the log that survives crashes.

Hardened records are kept as columns, not as objects: one typed slot
per field (:mod:`repro.metrics.columns`), transaction ids and the
(node, type, forced) triple interned to small integers, and the payload
as a value tuple under a shared key tuple.  Protocol records repeat the
same few payloads transaction after transaction, so those tuples are
pooled; data (``LRM_*``) records carry per-transaction values and are
stored as they are.  :class:`~repro.log.records.LogRecord` objects are
materialised on read.
"""

from __future__ import annotations

from array import array
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.log.records import LogRecord, LogRecordType
from repro.metrics.columns import StringInterner, positions_of

_SCALARS = frozenset((str, bool, int, float, type(None)))


class _ListValue(tuple):
    """A payload value that was a list of scalars (thawed on read)."""

    __slots__ = ()


def _pack(payload: Dict[str, Any],
          pool: Dict[tuple, tuple]) -> Tuple[object, bool]:
    """``(keys, value, ...)`` for a flat payload (``keys`` shared
    through ``pool``), else a copy of the dict; and whether equal
    payloads may share one packed tuple (ints and floats are left out:
    ``1 == True`` would conflate them)."""
    keys = tuple(payload)
    packed: List[object] = [pool.setdefault(keys, keys)]
    poolable = True
    for value in payload.values():
        kind = type(value)
        if kind is list:
            if value:
                if not all(type(item) in _SCALARS for item in value):
                    return dict(payload), False
                poolable = poolable and all(type(item) is str
                                            for item in value)
            value = _ListValue(value)
        elif kind is int or kind is float:
            poolable = False
        elif kind not in _SCALARS:
            return dict(payload), False
        packed.append(value)
    return tuple(packed), poolable


def _unpack(packed: object) -> Dict[str, Any]:
    if type(packed) is dict:
        return dict(packed)
    return {key: list(value) if type(value) is _ListValue else value
            for key, value in zip(packed[0], packed[1:])}


class StableStorage:
    """An append-only record store that survives simulated crashes."""

    def __init__(self) -> None:
        self._reset_columns()

    def _reset_columns(self) -> None:
        self._lsn = array("q")
        self._txn = array("i")           # interned transaction id
        self._kind = array("H")          # interned (node, type, forced)
        self._written_at = array("d")
        self._payload: List[object] = []
        self._txn_ids = StringInterner()
        #: (node, record type value, forced) -> kind id; keyed by the
        #: type's value, which hashes in C (an Enum member does not).
        self._kinds: Dict[Tuple[str, str, bool], int] = {}
        self._kind_list: List[Tuple[str, LogRecordType, bool]] = []
        #: Payload key tuples, and packed payloads of protocol
        #: records: one shared copy of each.
        self._pool: Dict[tuple, tuple] = {}

    def append(self, records: Iterable[LogRecord]) -> None:
        self._store(records)

    def _store(self, records: Iterable[LogRecord]) -> None:
        lsns, kinds, pool = self._lsn, self._kinds, self._pool
        intern = self._txn_ids.intern
        for record in records:
            lsn, record_type = record.lsn, record.record_type
            if lsns and lsn <= lsns[-1]:
                raise ValueError(
                    f"out-of-order append: lsn {lsn} after "
                    f"{self.durable_lsn}")
            kind_key = (record.node, record_type._value_, record.forced)
            kind = kinds.get(kind_key)
            if kind is None:
                kind = kinds[kind_key] = len(self._kind_list)
                self._kind_list.append(
                    (record.node, record_type, record.forced))
            packed, poolable = _pack(record.payload, pool)
            if poolable and record_type.is_tm_record:
                packed = pool.setdefault(packed, packed)
            lsns.append(lsn)
            self._txn.append(intern(record.txn_id))
            self._kind.append(kind)
            self._written_at.append(record.written_at)
            self._payload.append(packed)

    def _materialize(self, index: int) -> LogRecord:
        node, record_type, forced = self._kind_list[self._kind[index]]
        return LogRecord(
            lsn=self._lsn[index],
            txn_id=self._txn_ids.lookup(self._txn[index]),
            record_type=record_type, node=node, forced=forced,
            written_at=self._written_at[index],
            payload=_unpack(self._payload[index]))

    def _indexes_for(self, txn_id: str) -> List[int]:
        ident = self._txn_ids.find(txn_id)
        return [] if ident is None else positions_of(self._txn, ident)

    def records(self, start: int = 0) -> List[LogRecord]:
        """Every record from position ``start`` on, in append order."""
        return [self._materialize(index)
                for index in range(start, len(self._payload))]

    def records_for(self, txn_id: str) -> List[LogRecord]:
        return [self._materialize(index)
                for index in self._indexes_for(txn_id)]

    def last_record_for(self, txn_id: str,
                        record_type: Optional[LogRecordType] = None
                        ) -> Optional[LogRecord]:
        for index in reversed(self._indexes_for(txn_id)):
            if record_type is None or \
                    self._kind_list[self._kind[index]][1] is record_type:
                return self._materialize(index)
        return None

    def has_record(self, txn_id: str, record_type: LogRecordType) -> bool:
        return self.last_record_for(txn_id, record_type) is not None

    def remembers(self, txn_id: str) -> bool:
        """Whether any record of the transaction was ever hardened here
        (one dictionary probe; the enrollment path asks on every
        transaction)."""
        return self._txn_ids.find(txn_id) is not None

    def last_position_of(self, record_type: LogRecordType) -> Optional[int]:
        """Position of the newest record of ``record_type``, if any."""
        return max((position for ident, key in enumerate(self._kind_list)
                    if key[1] is record_type
                    for position in positions_of(self._kind, ident)),
                   default=None)

    def truncate_before(self, position: int) -> None:
        """Drop every record before ``position`` (log compaction); what
        the dropped records interned goes with them."""
        kept = self.records(position)
        self._reset_columns()
        self._store(kept)

    @property
    def durable_lsn(self) -> int:
        return self._lsn[-1] if self._payload else 0

    def __len__(self) -> int:
        return len(self._payload)
