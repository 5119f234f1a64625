"""A small multi-dimensional counter."""

from __future__ import annotations

from collections import Counter
from struct import Struct
from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Tuple

Key = Tuple[Hashable, ...]

#: The dimension stored as a partition (see :class:`TaggedCounter`).
PARTITION_DIMENSION = "txn"

_pack_id = Struct("I").pack


class TaggedCounter:
    """Counts events keyed by a tuple of tags, queryable by partial key.

    Example::

        c = TaggedCounter(("phase", "type", "src"))
        c.add(("commit", "prepare", "coord"))
        c.total(phase="commit")            # match on position 0

    A ``txn`` dimension takes one new value per transaction, so keying
    a dictionary by the full tuple would grow by a dozen tuples per
    transaction for as long as the process runs.  It is stored as a
    partition instead: counts are kept by the *other* tags (a handful
    of combinations, however long the run), and each transaction keeps
    only a packed array of the small ids of its events' tag
    combinations.  Queries that do not name a transaction never touch
    the partition.
    """

    def __init__(self, dimensions: Tuple[str, ...]) -> None:
        if not dimensions:
            raise ValueError("a TaggedCounter needs at least one dimension")
        self.dimensions = dimensions
        self._axis: Optional[int] = (
            dimensions.index(PARTITION_DIMENSION)
            if PARTITION_DIMENSION in dimensions else None)
        #: Counts by every tag but the partition dimension.
        self._counts: Dict[Key, int] = {}
        #: Partition: value -> its events' tag-combination ids, one
        #: packed uint32 per event (read through ``_ids_of``).
        self._members: Dict[Hashable, bytes] = {}
        self._tag_ids: Dict[Key, int] = {}
        self._tags: List[Key] = []
        #: Distinct (transaction, tags) pairs recorded so far.
        self._pairs = 0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def add(self, key: Key, count: int = 1) -> None:
        if len(key) != len(self.dimensions):
            raise ValueError(
                f"key {key!r} does not match dimensions {self.dimensions!r}")
        axis = self._axis
        if axis is None:
            self._counts[key] = self._counts.get(key, 0) + count
            return
        if count < 1:
            raise ValueError(f"count must be positive, got {count}")
        member = key[axis]
        tags = key[:axis] + key[axis + 1:]
        self._counts[tags] = self._counts.get(tags, 0) + count
        tag_id = self._tag_ids.get(tags)
        if tag_id is None:
            tag_id = self._tag_ids[tags] = len(self._tags)
            self._tags.append(tags)
        events = self._members.get(member, b"")
        if tag_id not in self._ids_of(events):
            self._pairs += 1
        self._members[member] = events + _pack_id(tag_id) * count

    @staticmethod
    def _ids_of(events: bytes) -> memoryview:
        return memoryview(events).cast("I")

    def _full_key(self, member: Hashable, tag_id: int) -> Key:
        tags = self._tags[tag_id]
        return tags[:self._axis] + (member,) + tags[self._axis:]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _matching(self, match: Dict[str, Hashable],
                  split_members: bool = False) -> Iterable[Tuple[Key, int]]:
        """(full key, count) rows whose tags match.  Unless the query
        names a transaction (or ``split_members`` asks for each one's
        rows), the aggregate rows answer it, with a placeholder None in
        the partition position."""
        unknown = set(match) - set(self.dimensions)
        if unknown:
            raise ValueError(f"unknown dimensions: {sorted(unknown)}")
        positions = {self.dimensions.index(name): value
                     for name, value in match.items()}
        axis = self._axis
        if axis is None:
            rows: Iterable[Tuple[Key, int]] = self._counts.items()
        elif axis in positions:
            rows = self._member_rows(positions[axis])
        elif split_members:
            rows = self
        else:
            rows = ((tags[:axis] + (None,) + tags[axis:], count)
                    for tags, count in self._counts.items())
        return [(key, count) for key, count in rows
                if all(key[pos] == value for pos, value in positions.items())]

    def _member_rows(self, member: Hashable) -> Iterator[Tuple[Key, int]]:
        events = self._members.get(member, b"")
        for tag_id, count in Counter(self._ids_of(events)).items():
            yield self._full_key(member, tag_id), count

    def total(self, **match: Hashable) -> int:
        """Sum counts whose tags match every given dimension value."""
        return sum(count for _key, count in self._matching(match))

    def group_by(self, dimension: str, **match: Hashable) -> Dict[Hashable, int]:
        """Totals split by one dimension, optionally filtered by others."""
        if dimension not in self.dimensions:
            raise ValueError(f"unknown dimension: {dimension}")
        axis = self.dimensions.index(dimension)
        result: Dict[Hashable, int] = {}
        for key, count in self._matching(match,
                                         split_members=axis == self._axis):
            result[key[axis]] = result.get(key[axis], 0) + count
        return result

    def snapshot(self) -> Dict[Key, int]:
        return dict(self)

    def diff(self, earlier: Dict[Key, int]) -> "TaggedCounter":
        """Counter holding only increments since ``earlier``."""
        delta = TaggedCounter(self.dimensions)
        for key, count in self:
            change = count - earlier.get(key, 0)
            if change > 0:
                delta.add(key, change)
        return delta

    def __iter__(self) -> Iterator[Tuple[Key, int]]:
        if self._axis is None:
            return iter(self._counts.items())
        return (row for member in self._members
                for row in self._member_rows(member))

    def __len__(self) -> int:
        return len(self._counts) if self._axis is None else self._pairs
