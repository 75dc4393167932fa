"""The quantile rule, self-time subtraction and FIFO queue matching."""

import pytest

from stats import FifoMatcher, self_times, tail_quantile


def test_quantile_is_an_observed_sample_at_nearest_rank():
    values = [float(v) for v in range(1000, 0, -1)]
    assert tail_quantile(values, 99.0) == (99.0, 990.0, 1000)
    assert tail_quantile(values, 50.0) == (50.0, 500.0, 1000)


def test_quantile_never_exceeds_the_maximum():
    values = [0.001] * 980 + [5.0] * 20
    pct, value, n = tail_quantile(values, 99.0)
    assert (pct, value, n) == (99.0, 5.0, 1000)
    assert value <= max(values)


def test_quantile_falls_back_to_the_highest_percentile_with_ten_beyond():
    values = list(range(1, 501))
    pct, value, n = tail_quantile(values, 99.0)
    assert n == 500
    assert pct == pytest.approx(98.0)
    assert value == 490
    assert sum(1 for v in values if v > value) == 10


def test_quantile_needs_more_than_ten_samples():
    assert tail_quantile(list(range(10)), 50.0) is None
    pct, value, _ = tail_quantile(list(range(1, 12)), 50.0)
    assert (pct, value) == (100.0 / 11, 1)


def test_quantile_rejects_a_bad_percentile():
    with pytest.raises(ValueError):
        tail_quantile([1.0] * 100, 100.0)


def test_self_time_subtracts_direct_children_only():
    spans = [
        (0.0, 10.0, -1),  # root
        (1.0, 5.0, 0),  # child
        (2.0, 3.0, 1),  # grandchild: counts against the child, not the root
        (6.0, 8.0, 0),  # second child
    ]
    assert self_times(spans) == [10.0 - 4.0 - 2.0, 4.0 - 1.0, 1.0, 2.0]


def test_self_time_counts_overlapping_children_once():
    spans = [
        (0.0, 10.0, -1),
        (1.0, 4.0, 0),
        (3.0, 6.0, 0),  # overlaps the first child on [3, 4]
        (5.0, 5.5, 0),  # inside the second child
        (8.0, 9.0, 0),
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_self_time_clips_children_to_the_parent():
    spans = [
        (2.0, 6.0, -1),
        (0.0, 3.0, 0),  # starts before the parent
        (5.0, 9.0, 0),  # ends after it
        (7.0, 8.0, 0),  # wholly outside
    ]
    assert self_times(spans)[0] == pytest.approx(4.0 - 1.0 - 1.0)


def test_fifo_matching_pairs_each_session_in_arrival_order():
    m = FifoMatcher()
    m.arrive("a", 1.0)
    m.arrive("b", 2.0)
    m.arrive("a", 3.0)
    assert m.depart("a", 4.0) == 3.0  # the oldest of session a: t=1
    assert m.depart("b", 4.5) == 2.5
    assert m.depart("a", 6.0) == 3.0  # then a's second arrival: t=3
    assert m.waits == [3.0, 2.5, 3.0]
    assert m.pending == 0


def test_fifo_matching_counts_departures_without_an_arrival():
    m = FifoMatcher()
    assert m.depart("a", 1.0) is None
    m.arrive("a", 2.0)
    m.arrive("a", 2.5)
    assert m.depart("a", 3.0) == 1.0
    assert (m.unmatched, m.pending) == (1, 1)
