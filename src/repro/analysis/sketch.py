"""Mergeable streaming sketches for crowd-scale aggregation.

A million-user sweep cannot afford to hold a million samples per
metric just to draw a CDF.  :class:`QuantileSketch` summarizes a
stream of values in O(log(range)/alpha) memory with a guaranteed
relative accuracy, and merges exactly: the sketch of a partition is
bit-identical to the sketch of the whole, regardless of how the
stream was split across batches, shards, or worker processes.

The design is in the t-digest family of mergeable quantile sketches
but uses *deterministic log-spaced buckets* (the DDSketch construction)
rather than adaptive centroids: a value ``x > 0`` lands in bucket
``ceil(log(x) / log(gamma))`` with ``gamma = (1 + alpha)/(1 - alpha)``,
so any value reported for a quantile is within relative error
``alpha`` of a true sample value.  Negative values get their own
mirrored bucket family and near-zeros an exact counter.  Because
buckets are fixed by ``alpha`` alone and counts are integers, merging
is a per-bucket integer addition — commutative, associative, and
independent of partitioning, which is what makes crowd-scale results
bit-identical across batch sizes, shard counts, and executors.

Sketches serialize to plain JSON (:meth:`QuantileSketch.to_dict`) so
shard partials can cross the :mod:`repro.parallel` wire and land in
the result cache.

:class:`LabeledCounters` is the companion for exact statistics —
labeled integer counters (runs, wins, filter drops) that merge the
same way.
"""

import math
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.errors import ConfigurationError, json_field, require

__all__ = ["QuantileSketch", "LabeledCounters"]

#: Magnitudes below this are indistinguishable from zero for the
#: paper's metrics (Mbit/s, milliseconds) and get an exact counter.
ZERO_EPSILON = 1e-9


class QuantileSketch:
    """A mergeable quantile sketch with bounded relative error.

    Parameters
    ----------
    alpha:
        Relative-accuracy target in (0, 1).  Any quantile estimate
        ``v`` satisfies ``|v - v_true| <= alpha * |v_true|`` for true
        sample values with magnitude above :data:`ZERO_EPSILON`.
    """

    __slots__ = ("alpha", "_gamma", "_log_gamma", "_pos", "_neg",
                 "_zero", "_count", "_min", "_max")

    def __init__(self, alpha: float = 0.01):
        if not 0.0 < alpha < 1.0:
            raise ConfigurationError(f"alpha must be in (0, 1): {alpha}")
        self.alpha = alpha
        self._gamma = (1.0 + alpha) / (1.0 - alpha)
        self._log_gamma = math.log(self._gamma)
        self._pos: Dict[int, int] = {}
        self._neg: Dict[int, int] = {}
        self._zero = 0
        self._count = 0
        self._min = math.inf
        self._max = -math.inf

    # -- ingestion -------------------------------------------------------
    def add(self, value: float, count: int = 1) -> None:
        """Fold ``count`` occurrences of ``value`` into the sketch."""
        self.add_many((value,), count)

    def add_many(self, values: Iterable[float], count: int = 1) -> None:
        """Fold ``count`` occurrences of every value (the one ingest loop)."""
        if isinstance(count, bool) or not isinstance(count, int) or count <= 0:
            # Counts are integers so merges are exact and from_dict reads them.
            raise ConfigurationError(f"count must be a positive int: {count!r}")
        pos, neg, log_gamma = self._pos, self._neg, self._log_gamma
        log, ceil = math.log, math.ceil
        zero = total = 0
        low, high = self._min, self._max
        try:
            for value in values:
                if value != value:  # NaN
                    raise ConfigurationError("cannot sketch NaN")
                if value > ZERO_EPSILON:
                    key = ceil(log(value) / log_gamma)
                    pos[key] = pos.get(key, 0) + count
                elif value < -ZERO_EPSILON:
                    key = ceil(log(-value) / log_gamma)
                    neg[key] = neg.get(key, 0) + count
                else:
                    zero += count
                total += count
                if value < low:
                    low = value
                if value > high:
                    high = value
        except OverflowError:  # ceil(log(inf)), before the inf is folded in
            raise ConfigurationError("cannot sketch inf") from None
        finally:  # a NaN or an inf leaves everything before it folded in
            self._zero += zero
            self._count += total
            self._min, self._max = low, high

    # -- queries ---------------------------------------------------------
    def __len__(self) -> int:
        return self._count

    @property
    def count(self) -> int:
        return self._count

    @property
    def min(self) -> float:
        if not self._count:
            raise ConfigurationError("empty sketch has no minimum")
        return self._min

    @property
    def max(self) -> float:
        if not self._count:
            raise ConfigurationError("empty sketch has no maximum")
        return self._max

    @property
    def bucket_count(self) -> int:
        """Live buckets — the memory footprint, independent of count."""
        return len(self._pos) + len(self._neg) + (1 if self._zero else 0)

    def _bucket_value(self, key: int) -> float:
        # Midpoint of (gamma^(k-1), gamma^k] in the relative sense:
        # within alpha of every value the bucket can hold.
        return 2.0 * self._gamma ** key / (self._gamma + 1.0)

    def _ascending(self) -> Iterable[Tuple[float, int]]:
        """(representative value, count) in ascending value order."""
        for key in sorted(self._neg, reverse=True):
            yield -self._bucket_value(key), self._neg[key]
        if self._zero:
            yield 0.0, self._zero
        for key in sorted(self._pos):
            yield self._bucket_value(key), self._pos[key]

    def quantile(self, q: float) -> float:
        """Value at quantile ``q`` in [0, 1] (within relative alpha)."""
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError(f"quantile out of range: {q}")
        if not self._count:
            raise ConfigurationError("empty sketch has no quantiles")
        rank = q * (self._count - 1)
        seen = 0
        for value, count in self._ascending():
            seen += count
            if seen > rank:
                return min(max(value, self._min), self._max)
        return self._max

    def percentile(self, q: float) -> float:
        """Value at percentile ``q`` in [0, 100]."""
        if not 0.0 <= q <= 100.0:
            raise ConfigurationError(f"percentile out of range: {q}")
        return self.quantile(q / 100.0)

    @property
    def median(self) -> float:
        return self.quantile(0.5)

    def fraction_below(self, threshold: float) -> float:
        """Approximate P(X < threshold) (exact at zero for diffs)."""
        if not self._count:
            raise ConfigurationError("empty sketch is undefined below")
        below = 0
        for value, count in self._ascending():
            if value < threshold:
                below += count
            else:
                break
        return below / self._count

    def fraction_above(self, threshold: float) -> float:
        """Approximate P(X > threshold) (exact at zero for diffs)."""
        if not self._count:
            raise ConfigurationError("empty sketch is undefined above")
        above = 0
        for value, count in self._ascending():
            if value > threshold:
                above += count
        return above / self._count

    def points(self, max_points: int = 200) -> List[Tuple[float, float]]:
        """(x, F(x)) pairs for plotting, one per bucket, downsampled."""
        pairs: List[Tuple[float, float]] = []
        seen = 0
        for value, count in self._ascending():
            seen += count
            pairs.append((value, seen / self._count))
        if len(pairs) <= max_points:
            return pairs
        step = (len(pairs) - 1) / (max_points - 1)
        indices = sorted({round(i * step) for i in range(max_points)})
        return [pairs[i] for i in indices]

    # -- merge -----------------------------------------------------------
    def merge(self, other: "QuantileSketch") -> "QuantileSketch":
        """Fold ``other`` into ``self`` (returns ``self``).

        Exact: merging per-partition sketches in any order and any
        grouping yields bit-identical state to sketching the full
        stream, because buckets are fixed by ``alpha`` and counts add.
        """
        if not isinstance(other, QuantileSketch):
            raise ConfigurationError(
                f"cannot merge {type(other).__name__} into a QuantileSketch"
            )
        if other.alpha != self.alpha:
            raise ConfigurationError(
                f"alpha mismatch: {self.alpha} vs {other.alpha}"
            )
        for key, count in other._pos.items():
            self._pos[key] = self._pos.get(key, 0) + count
        for key, count in other._neg.items():
            self._neg[key] = self._neg.get(key, 0) + count
        self._zero += other._zero
        self._count += other._count
        if other._count:
            if other._min < self._min:
                self._min = other._min
            if other._max > self._max:
                self._max = other._max
        return self

    # -- serialization ---------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """JSON-safe state: survives the parallel wire and the cache."""
        out: Dict[str, object] = {
            "alpha": self.alpha,
            "count": self._count,
            "zero": self._zero,
            "pos": {str(k): v for k, v in sorted(self._pos.items())},
            "neg": {str(k): v for k, v in sorted(self._neg.items())},
        }
        if self._count:
            out["min"] = self._min
            out["max"] = self._max
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "QuantileSketch":
        """Inverse of :meth:`to_dict`.

        Shard partials come back over the wire and out of the cache: a
        missing or malformed field, a negative or boolean count, or a
        ``count`` the buckets do not add up to raises
        :class:`ConfigurationError` naming the field.
        """
        where = "QuantileSketch"
        require(isinstance(data, dict), where,
                f"expected a JSON object, got {type(data).__name__}")
        alpha = json_field(data, "alpha", float, where)
        require(0.0 < alpha < 1.0, where, f"field 'alpha' is not in (0, 1): {alpha}")
        sketch = cls(alpha)
        sketch._pos = json_field(data, "pos", _buckets, where)
        sketch._neg = json_field(data, "neg", _buckets, where)
        sketch._zero = json_field(data, "zero", _tally, where)
        sketch._count = json_field(data, "count", _tally, where)
        held = sketch._zero + sum(sketch._pos.values()) + sum(sketch._neg.values())
        require(sketch._count == held, where,
                f"field 'count' is {sketch._count}, the buckets hold {held}")
        if sketch._count:
            sketch._min = json_field(data, "min", _finite, where)
            sketch._max = json_field(data, "max", _finite, where)
            require(sketch._min <= sketch._max, where,
                    f"field 'min' {sketch._min} exceeds 'max' {sketch._max}")
        return sketch

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QuantileSketch):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __repr__(self) -> str:
        if not self._count:
            return f"QuantileSketch(alpha={self.alpha}, empty)"
        return (
            f"QuantileSketch(alpha={self.alpha}, n={self._count}, "
            f"buckets={self.bucket_count}, median={self.median:.3g})"
        )


class LabeledCounters:
    """Exact labeled integer counters that merge like sketches.

    The counts a crowd-scale run must keep *exactly* (run totals,
    LTE-win tallies, filter drops) are integers, so shard partials can
    be summed in any order with a bit-identical result.
    """

    __slots__ = ("_counts",)

    def __init__(self, counts: Optional[Dict[str, int]] = None):
        self._counts: Dict[str, int] = dict(counts or {})

    def inc(self, key: str, count: int = 1) -> None:
        if count < 0:
            raise ConfigurationError(f"counter increment negative: {count}")
        self._counts[key] = self._counts.get(key, 0) + count

    def get(self, key: str) -> int:
        return self._counts.get(key, 0)

    def __getitem__(self, key: str) -> int:
        return self._counts.get(key, 0)

    def __len__(self) -> int:
        return len(self._counts)

    def items(self):
        return sorted(self._counts.items())

    def fraction(self, numerator: str, denominator: str) -> float:
        """``counts[numerator] / counts[denominator]`` (0 when empty)."""
        total = self._counts.get(denominator, 0)
        if total <= 0:
            return 0.0
        return self._counts.get(numerator, 0) / total

    def merge(self, other: "LabeledCounters") -> "LabeledCounters":
        for key, count in other._counts.items():
            self._counts[key] = self._counts.get(key, 0) + count
        return self

    def to_dict(self) -> Dict[str, int]:
        return dict(sorted(self._counts.items()))

    @classmethod
    def from_dict(cls, data: Dict[str, int]) -> "LabeledCounters":
        """Inverse of :meth:`to_dict`; a count that is not an int >= 0
        raises :class:`ConfigurationError` naming its key."""
        require(isinstance(data, dict), "LabeledCounters",
                f"expected a JSON object, got {type(data).__name__}")
        return cls({str(key): json_field(data, key, _tally, "LabeledCounters")
                    for key in data})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LabeledCounters):
            return NotImplemented
        return self._counts == other._counts

    def __repr__(self) -> str:
        return f"LabeledCounters({len(self._counts)} keys)"


def _tally(value: object) -> int:
    """A decoded count: an int >= 0 (a bool is not a count)."""
    if type(value) is not int or value < 0:
        raise ValueError(value)
    return value


def _buckets(value: object) -> Dict[int, int]:
    """Decoded buckets: integer keys, each holding a count >= 1."""
    if not isinstance(value, dict):
        raise TypeError(value)
    buckets = {int(key): count for key, count in value.items()}
    if any(type(count) is not int or count < 1 for count in buckets.values()):
        raise ValueError(value)
    return buckets


def _finite(value: object) -> float:
    """A decoded ``min``/``max``: a finite number."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(value)
    if not math.isfinite(value):
        raise ValueError(value)
    return float(value)
