"""Unit tests for the columnar observability storage layer."""

import copy
import pickle

import pytest

from repro.metrics.columns import (
    FloatColumn,
    IntColumn,
    PairColumn,
    StringInterner,
)
from repro.metrics.histogram import Histogram


class TestTypedColumns:
    def test_reads_like_a_list(self):
        column = FloatColumn([1.0, 2.5, 3.0])
        assert len(column) == 3
        assert list(column) == [1.0, 2.5, 3.0]
        assert column[1] == 2.5
        assert column[-1] == 3.0
        assert column == [1.0, 2.5, 3.0]
        assert column != [1.0, 2.5]
        assert bool(column)
        assert not bool(FloatColumn())

    def test_slice_returns_column(self):
        column = FloatColumn([float(i) for i in range(10)])
        window = column[4:]
        assert isinstance(window, FloatColumn)
        assert window == [4.0, 5.0, 6.0, 7.0, 8.0, 9.0]

    def test_growth_past_initial_capacity(self):
        column = IntColumn()
        for value in range(10_000):
            column.append(value)
        assert len(column) == 10_000
        assert column[9_999] == 9_999
        assert sum(column) == sum(range(10_000))

    def test_index_errors(self):
        column = FloatColumn([1.0])
        with pytest.raises(IndexError):
            column[1]
        with pytest.raises(IndexError):
            column[-2]

    def test_to_list(self):
        assert FloatColumn([0.5, 1.5]).to_list() == [0.5, 1.5]

    def test_copies_append_to_their_own_buffer(self):
        column = FloatColumn([0.5])
        for clone in (copy.copy(column), copy.deepcopy(column),
                      pickle.loads(pickle.dumps(column))):
            clone.append(1.5)
            assert clone == [0.5, 1.5]
        assert column == [0.5]


class TestStringInterner:
    def test_roundtrip_and_none(self):
        interner = StringInterner()
        a = interner.intern("n0")
        b = interner.intern("n1")
        assert interner.intern("n0") == a != b
        assert interner.lookup(a) == "n0"
        assert interner.intern(None) == -1
        assert interner.lookup(-1) is None
        assert len(interner) == 2


class TestPairColumn:
    def test_reads_like_tuple_list(self):
        pairs = PairColumn([("a", 1.0), ("b", 2.0), ("a", 3.0)])
        assert len(pairs) == 3
        assert list(pairs) == [("a", 1.0), ("b", 2.0), ("a", 3.0)]
        assert pairs == [("a", 1.0), ("b", 2.0), ("a", 3.0)]
        assert pairs[1] == ("b", 2.0)

    def test_slice_shares_interner(self):
        pairs = PairColumn([("n", float(i)) for i in range(6)])
        window = pairs[4:]
        assert isinstance(window, PairColumn)
        assert window == [("n", 4.0), ("n", 5.0)]


class TestHistogramTypedCounts:
    def test_serialisation_roundtrip(self):
        histogram = Histogram()
        for value in (0.01, 0.5, 2.0, 2.0, 150.0):
            histogram.record(value)
        clone = Histogram.from_dict(histogram.to_dict())
        assert list(clone.counts) == list(histogram.counts)
        assert clone.summary() == histogram.summary()
        merged = Histogram().merge(histogram).merge(clone)
        assert merged.count == 10
