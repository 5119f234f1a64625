"""A small multi-dimensional counter."""

from __future__ import annotations

from array import array
from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Tuple

Key = Tuple[Hashable, ...]


class TaggedCounter:
    """Counts events keyed by a tuple of tags, queryable by partial key.

    Example::

        c = TaggedCounter(("phase", "type", "src"))
        c.add(("commit", "prepare", "coord"))
        c.total(phase="commit")            # match on position 0

    Counts only grow: :meth:`add` takes a positive count and
    :meth:`diff` reports increments.

    ``partition`` names a dimension that takes one new value per unit
    of work (the collector's ``txn``).  Keying a dictionary by the full
    tuple would grow by a dozen tuples per transaction for as long as
    the process runs, so counts are kept by the *other* tags (a handful
    of combinations, however long the run) and each value of the
    partition dimension keeps only a small array of (tag-combination
    id, count) pairs.  Queries that do not name the partition dimension
    never touch the arrays; an :meth:`add` costs the same however many
    events came before it.
    """

    def __init__(self, dimensions: Tuple[str, ...],
                 partition: Optional[str] = None) -> None:
        if not dimensions:
            raise ValueError("a TaggedCounter needs at least one dimension")
        self.dimensions = dimensions
        self.partition = partition
        self._axis: Optional[int] = (
            None if partition is None else dimensions.index(partition))
        #: Counts by every tag but the partition dimension's.
        self._counts: Dict[Key, int] = {}
        #: Partition value -> flat uint32 (tag-combination id, count)
        #: pairs of its events.
        self._members: Dict[Hashable, array] = {}
        self._tag_ids: Dict[Key, int] = {}
        self._tags: List[Key] = []
        #: Distinct full keys recorded so far.
        self._pairs = 0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def add(self, key: Key, count: int = 1) -> None:
        if len(key) != len(self.dimensions):
            raise ValueError(
                f"key {key!r} does not match dimensions {self.dimensions!r}")
        if count < 1:
            raise ValueError(f"count must be positive, got {count}")
        axis = self._axis
        tags = key if axis is None else key[:axis] + key[axis + 1:]
        seen = self._counts.get(tags, 0)
        self._counts[tags] = seen + count
        if axis is None:
            if not seen:
                self._pairs += 1
            return
        tag_id = self._tag_ids.get(tags)
        if tag_id is None:
            tag_id = self._tag_ids[tags] = len(self._tags)
            self._tags.append(tags)
        pairs = self._members.get(key[axis])
        if pairs is None:
            pairs = self._members[key[axis]] = array("I")
        ids = pairs[::2]
        if tag_id in ids:
            pairs[2 * ids.index(tag_id) + 1] += count
        else:
            pairs.extend((tag_id, count))
            self._pairs += 1

    def _key(self, tags: Key, member: Hashable = None) -> Key:
        """The full key: ``tags`` with ``member`` at the partition
        dimension's position."""
        axis = self._axis
        if axis is None:
            return tags
        return tags[:axis] + (member,) + tags[axis:]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _matching(self, match: Dict[str, Hashable],
                  split_members: bool = False) -> Iterable[Tuple[Key, int]]:
        """(full key, count) rows whose tags match.  Unless the query
        names a partition value (or ``split_members`` asks for each
        one's rows), the aggregate rows answer it, with a placeholder
        None in the partition position."""
        unknown = set(match) - set(self.dimensions)
        if unknown:
            raise ValueError(f"unknown dimensions: {sorted(unknown)}")
        positions = {self.dimensions.index(name): value
                     for name, value in match.items()}
        if self._axis in positions:
            rows: Iterable[Tuple[Key, int]] = self._member_rows(
                positions[self._axis])
        elif split_members:
            rows = self
        else:
            rows = ((self._key(tags), count)
                    for tags, count in self._counts.items())
        return [(key, count) for key, count in rows
                if all(key[pos] == value for pos, value in positions.items())]

    def _member_rows(self, member: Hashable) -> Iterator[Tuple[Key, int]]:
        pairs = self._members.get(member, ())
        for index in range(0, len(pairs), 2):
            yield self._key(self._tags[pairs[index]], member), pairs[index + 1]

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
        delta = TaggedCounter(self.dimensions, self.partition)
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
        return self._pairs
