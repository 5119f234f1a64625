"""Tests for the statistics helpers."""

import pytest

from repro.analysis.stats import mean, normal_ci, stddev


def test_mean_and_stddev():
    assert mean([1.0, 2.0, 3.0]) == pytest.approx(2.0)
    assert stddev([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]) == \
        pytest.approx(2.138, abs=1e-3)


def test_empty_rejected():
    with pytest.raises(ValueError):
        mean([])
    with pytest.raises(ValueError):
        normal_ci([])


def test_stddev_degenerate_cases():
    assert stddev([]) == 0.0
    assert stddev([5.0]) == 0.0
    assert stddev([3.0, 3.0, 3.0]) == 0.0


def test_normal_ci_contains_mean_and_shrinks_with_n():
    small = normal_ci([1.0, 2.0, 3.0, 4.0] * 2)
    large = normal_ci([1.0, 2.0, 3.0, 4.0] * 50)
    for summary in (small, large):
        assert summary.low <= summary.mean <= summary.high
    assert (large.high - large.low) < (small.high - small.low)


def test_normal_ci_zero_spread():
    summary = normal_ci([7.0] * 10)
    assert summary.low == summary.high == summary.mean == 7.0


def test_summary_str():
    summary = normal_ci([1.0, 2.0, 3.0])
    assert "[" in str(summary) and "]" in str(summary)
