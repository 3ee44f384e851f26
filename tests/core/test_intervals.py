"""Unit and property tests for the interval set used in reassembly."""

import bisect

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.intervals import IntervalSet


class TestIntervalSetBasics:
    def test_empty(self):
        intervals = IntervalSet()
        assert intervals.total_bytes == 0
        assert intervals.contiguous_from(0) == 0
        assert not intervals.contains_range(0, 1)

    def test_single_add(self):
        intervals = IntervalSet()
        assert intervals.add(10, 20) == 10
        assert intervals.total_bytes == 10
        assert intervals.contains_range(10, 20)
        assert intervals.contains_range(12, 15)
        assert not intervals.contains_range(5, 12)

    def test_duplicate_add_returns_zero(self):
        intervals = IntervalSet()
        intervals.add(0, 100)
        assert intervals.add(20, 50) == 0

    def test_overlap_merges(self):
        intervals = IntervalSet()
        intervals.add(0, 10)
        intervals.add(5, 15)
        assert list(intervals) == [(0, 15)]

    def test_adjacent_merges(self):
        intervals = IntervalSet()
        intervals.add(0, 10)
        intervals.add(10, 20)
        assert list(intervals) == [(0, 20)]

    def test_disjoint_stay_separate(self):
        intervals = IntervalSet()
        intervals.add(0, 10)
        intervals.add(20, 30)
        assert list(intervals) == [(0, 10), (20, 30)]

    def test_bridge_merges_three(self):
        intervals = IntervalSet()
        intervals.add(0, 10)
        intervals.add(20, 30)
        assert intervals.add(10, 20) == 10
        assert list(intervals) == [(0, 30)]

    def test_empty_range_is_noop(self):
        intervals = IntervalSet()
        assert intervals.add(5, 5) == 0
        assert intervals.total_bytes == 0

    def test_contiguous_from_origin(self):
        intervals = IntervalSet()
        intervals.add(0, 100)
        intervals.add(200, 300)
        assert intervals.contiguous_from(0) == 100
        assert intervals.contiguous_from(200) == 300
        assert intervals.contiguous_from(150) == 150

    def test_missing_within(self):
        intervals = IntervalSet()
        intervals.add(10, 20)
        intervals.add(30, 40)
        assert intervals.missing_within(0, 50) == [(0, 10), (20, 30), (40, 50)]
        assert intervals.missing_within(10, 20) == []
        assert intervals.missing_within(12, 18) == []
        assert intervals.missing_within(15, 35) == [(20, 30)]


@st.composite
def range_lists(draw):
    count = draw(st.integers(min_value=1, max_value=30))
    ranges = []
    for _ in range(count):
        start = draw(st.integers(min_value=0, max_value=500))
        length = draw(st.integers(min_value=1, max_value=60))
        ranges.append((start, start + length))
    return ranges


class TestIntervalSetProperties:
    @given(range_lists())
    @settings(max_examples=150)
    def test_matches_naive_set_model(self, ranges):
        intervals = IntervalSet()
        model = set()
        for start, end in ranges:
            added = intervals.add(start, end)
            new_units = set(range(start, end)) - model
            assert added == len(new_units)
            model |= set(range(start, end))
        assert intervals.total_bytes == len(model)

    @given(range_lists())
    @settings(max_examples=100)
    def test_intervals_sorted_and_disjoint(self, ranges):
        intervals = IntervalSet()
        for start, end in ranges:
            intervals.add(start, end)
        spans = list(intervals)
        for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
            assert e1 < s2  # disjoint and non-adjacent after merging

    @given(range_lists(), st.integers(0, 600), st.integers(0, 600))
    @settings(max_examples=100)
    def test_contains_range_matches_model(self, ranges, a, b):
        lo, hi = min(a, b), max(a, b) + 1
        intervals = IntervalSet()
        model = set()
        for start, end in ranges:
            intervals.add(start, end)
            model |= set(range(start, end))
        assert intervals.contains_range(lo, hi) == set(range(lo, hi)).issubset(model)

    @given(range_lists())
    @settings(max_examples=100)
    def test_missing_within_complements_content(self, ranges):
        intervals = IntervalSet()
        model = set()
        for start, end in ranges:
            intervals.add(start, end)
            model |= set(range(start, end))
        gaps = intervals.missing_within(0, 600)
        gap_units = set()
        for start, end in gaps:
            gap_units |= set(range(start, end))
        assert gap_units == set(range(600)) - model


class _RescanIntervalSet(IntervalSet):
    """The pre-fast-path ``add``: re-sum the whole set before and after.

    Kept as the reference the in-order fast paths and the
    "merged span minus replaced intervals" return value are checked
    against.
    """

    def add(self, start, end):
        if end <= start:
            return 0
        before = self.total_bytes
        lo = bisect.bisect_left(self._ends, start)
        hi = bisect.bisect_right(self._starts, end)
        if lo < hi:
            start = min(start, self._starts[lo])
            end = max(end, self._ends[hi - 1])
        self._starts[lo:hi] = [start]
        self._ends[lo:hi] = [end]
        return self.total_bytes - before


@st.composite
def arrival_patterns(draw):
    """Mostly in-order segments with holes, fills, overlaps and repeats."""
    ranges = []
    cursor = 0
    for _ in range(draw(st.integers(min_value=1, max_value=40))):
        kind = draw(st.sampled_from(
            ["next", "next", "next", "skip", "repeat", "inside", "any"]
        ))
        length = draw(st.integers(min_value=0, max_value=30))
        if kind == "next":
            start = cursor
        elif kind == "skip":
            start = cursor + draw(st.integers(min_value=1, max_value=40))
        elif kind == "repeat" and ranges:
            start, end = draw(st.sampled_from(ranges))
            length = end - start
        elif kind == "inside" and cursor > 0:
            start = draw(st.integers(min_value=0, max_value=cursor - 1))
        else:
            start = draw(st.integers(min_value=0, max_value=cursor + 50))
        ranges.append((start, start + length))
        cursor = max(cursor, start + length)
    return ranges


class TestAddAgainstRescanReference:
    @given(arrival_patterns(), st.integers(min_value=0, max_value=80))
    @settings(max_examples=300, deadline=None)
    def test_every_step_matches_reference_and_set_model(self, ranges, origin):
        fast, reference, model = IntervalSet(), _RescanIntervalSet(), set()
        for start, end in ranges:
            units = set(range(start, end))
            added = fast.add(start, end)
            assert added == reference.add(start, end) == len(units - model)
            model |= units
            assert list(fast) == list(reference)
            assert fast.total_bytes == len(model)
            run_end = origin
            while run_end in model:
                run_end += 1
            assert fast.contiguous_from(origin) == run_end
            gaps = fast.missing_within(start - 5, end + 5)
            assert gaps == reference.missing_within(start - 5, end + 5)
            missing = set()
            for gap_start, gap_end in gaps:
                assert gap_start < gap_end
                missing |= set(range(gap_start, gap_end))
            assert missing == set(range(start - 5, end + 5)) - model
