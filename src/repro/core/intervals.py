"""Disjoint half-open integer interval set.

Used for connection-level (data-sequence) reassembly, where duplicate
and overlapping ranges arrive whenever MPTCP reinjects data onto a
second subflow after a failover.
"""

import bisect
from typing import Iterator, List, Tuple

__all__ = ["IntervalSet"]


class IntervalSet:
    """A set of non-overlapping, sorted ``[start, end)`` intervals."""

    def __init__(self) -> None:
        self._starts: List[int] = []
        self._ends: List[int] = []

    def __len__(self) -> int:
        return len(self._starts)

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        return iter(zip(self._starts, self._ends))

    @property
    def total_bytes(self) -> int:
        """Sum of interval lengths."""
        return sum(end - start for start, end in self)

    def add(self, start: int, end: int) -> int:
        """Insert ``[start, end)``, merging overlaps.

        Returns the number of *new* units added (0 if the range was
        entirely duplicate): the merged span minus the lengths of the
        intervals it replaced, so the cost is that of the intervals
        touched, never of the whole set.
        """
        if end <= start:
            return 0
        starts = self._starts
        ends = self._ends
        # In-order arrival (the common case by far): the range starts
        # inside, at the edge of, or beyond the last interval.
        if not starts or start > ends[-1]:
            starts.append(start)
            ends.append(end)
            return end - start
        if start >= starts[-1]:
            last_end = ends[-1]
            if end <= last_end:
                return 0
            ends[-1] = end
            return end - last_end
        # Find all intervals overlapping or adjacent to [start, end).
        lo = bisect.bisect_left(ends, start)
        hi = bisect.bisect_right(starts, end)
        replaced = 0
        if lo < hi:
            start = min(start, starts[lo])
            end = max(end, ends[hi - 1])
            for index in range(lo, hi):
                replaced += ends[index] - starts[index]
        starts[lo:hi] = [start]
        ends[lo:hi] = [end]
        return end - start - replaced

    def contains_range(self, start: int, end: int) -> bool:
        """True if every unit of ``[start, end)`` is present."""
        if end <= start:
            return True
        index = bisect.bisect_right(self._starts, start) - 1
        if index < 0:
            return False
        return self._ends[index] >= end

    def missing_within(self, start: int, end: int) -> List[Tuple[int, int]]:
        """Sub-ranges of ``[start, end)`` not present in the set."""
        gaps: List[Tuple[int, int]] = []
        cursor = start
        for istart, iend in self:
            if iend <= cursor:
                continue
            if istart >= end:
                break
            if istart > cursor:
                gaps.append((cursor, min(istart, end)))
            cursor = max(cursor, iend)
            if cursor >= end:
                break
        if cursor < end:
            gaps.append((cursor, end))
        return gaps

    def contiguous_from(self, origin: int) -> int:
        """End of the contiguous run starting at ``origin`` (or ``origin``)."""
        index = bisect.bisect_right(self._starts, origin) - 1
        if index < 0:
            return origin
        if self._ends[index] < origin:
            return origin
        return self._ends[index]

    def __repr__(self) -> str:
        spans = ", ".join(f"[{s},{e})" for s, e in self)
        return f"IntervalSet({spans})"
