"""Tests for the mergeable quantile sketch and labeled counters."""

import json
import math
import random

import pytest

from repro.analysis.cdf import Cdf, SketchCdf
from repro.analysis.sketch import LabeledCounters, QuantileSketch
from repro.analysis.stats import (
    fraction_above,
    fraction_below,
    median,
    percentile,
)
from repro.core.errors import ConfigurationError


def _lognormal_samples(n, seed=7):
    rng = random.Random(seed)
    return [math.exp(rng.gauss(1.0, 0.8)) for _ in range(n)]


def _mixed_samples(n, seed=11):
    """Positive/negative/zero mix, like throughput differences."""
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        roll = rng.random()
        if roll < 0.05:
            out.append(0.0)
        elif roll < 0.55:
            out.append(math.exp(rng.gauss(0.5, 1.0)))
        else:
            out.append(-math.exp(rng.gauss(0.2, 1.2)))
    return out


def _sketch_of(samples, alpha=0.01):
    sketch = QuantileSketch(alpha=alpha)
    sketch.add_many(samples)
    return sketch


def _copy(sketch):
    return QuantileSketch.from_dict(sketch.to_dict())


class TestQuantileAccuracy:
    # n = 5001 makes rank = q * (n - 1) an integer for the probed
    # quantiles, so the sketch and the sorted list agree on which
    # order statistic is being asked for.
    QUANTILES = (0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99)

    def _check_error_bound(self, samples, alpha):
        sketch = _sketch_of(samples, alpha=alpha)
        exact = sorted(samples)
        for q in self.QUANTILES:
            rank = q * (len(exact) - 1)
            assert rank == int(rank)
            true = exact[int(rank)]
            got = sketch.quantile(q)
            # DDSketch guarantee: within relative alpha of the true
            # order statistic.
            assert abs(got - true) <= alpha * abs(true) + 1e-9

    def test_relative_error_bound_positive(self):
        self._check_error_bound(_lognormal_samples(5001), alpha=0.01)

    def test_relative_error_bound_signed(self):
        self._check_error_bound(_mixed_samples(5001), alpha=0.01)

    def test_relative_error_bound_tight_alpha(self):
        self._check_error_bound(_lognormal_samples(5001, seed=2),
                                alpha=0.001)

    def test_tracks_exact_cdf(self):
        # Against the repo's exact Cdf on the same data.
        samples = _lognormal_samples(2001, seed=3)
        cdf = Cdf(samples)
        sketch = _sketch_of(samples, alpha=0.005)
        for pct in (10, 25, 50, 75, 90):
            exact = cdf.percentile(pct)
            assert sketch.percentile(pct) == pytest.approx(exact, rel=0.02)

    def test_min_max_exact(self):
        samples = _mixed_samples(500)
        sketch = _sketch_of(samples)
        assert sketch.min == min(samples)
        assert sketch.max == max(samples)
        # Extreme quantiles clamp to the tracked extrema, so they are
        # within alpha of the true min/max like any other quantile.
        assert sketch.quantile(0.0) == pytest.approx(min(samples), rel=0.011)
        assert sketch.quantile(1.0) == pytest.approx(max(samples), rel=0.011)

    def test_fraction_below_above_exact_at_zero(self):
        samples = _mixed_samples(2000)
        sketch = _sketch_of(samples)
        below = sum(1 for v in samples if v < 0) / len(samples)
        above = sum(1 for v in samples if v > 0) / len(samples)
        assert sketch.fraction_below(0.0) == pytest.approx(below)
        assert sketch.fraction_above(0.0) == pytest.approx(above)
        assert fraction_below(sketch, 0.0) == pytest.approx(below)
        assert fraction_above(sketch, 0.0) == pytest.approx(above)

    def test_stats_helpers_dispatch_on_sketch(self):
        sketch = _sketch_of(_lognormal_samples(1000, seed=5))
        assert percentile(sketch, 50.0) == sketch.percentile(50.0)
        assert median(sketch) == sketch.median

    def test_empty_sketch_raises(self):
        with pytest.raises(ConfigurationError):
            QuantileSketch().quantile(0.5)
        with pytest.raises(ConfigurationError):
            QuantileSketch().fraction_below(0.0)

    def test_rejects_nan_and_bad_alpha(self):
        with pytest.raises(ConfigurationError):
            QuantileSketch().add(float("nan"))
        with pytest.raises(ConfigurationError):
            QuantileSketch(alpha=1.5)


class TestAddMany:
    """``add_many`` is ``add`` in one loop — same state, bit for bit."""

    SAMPLES = _mixed_samples(3000) + [
        0.0, -0.0, 5e-10, -5e-10, 1e-9, -1e-9,  # the exact-zero band
        2e-9, -2e-9, 1e-300, 1e300, -1e300,
    ]

    def test_equals_repeated_add(self):
        for alpha in (0.01, 0.005):
            one_by_one = QuantileSketch(alpha=alpha)
            for value in self.SAMPLES:
                one_by_one.add(value)
            batched = QuantileSketch(alpha=alpha)
            batched.add_many(self.SAMPLES[:1000])
            batched.add_many(iter(self.SAMPLES[1000:]))  # any iterable
            batched.add_many([])
            assert batched.to_dict() == one_by_one.to_dict()
            assert batched.min == one_by_one.min
            assert batched.max == one_by_one.max

    def test_weighted_batch_equals_weighted_adds(self):
        one_by_one, batched = QuantileSketch(), QuantileSketch()
        for value in self.SAMPLES[:200]:
            one_by_one.add(value, 3)
        batched.add_many(self.SAMPLES[:200], 3)
        assert batched.to_dict() == one_by_one.to_dict()
        for bad in (0, -1, 1.5, True):
            with pytest.raises(ConfigurationError):
                batched.add_many([1.0], bad)
            with pytest.raises(ConfigurationError):
                batched.add(1.0, bad)
        assert batched.to_dict() == one_by_one.to_dict()

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_raises_and_keeps_what_came_before(self, bad):
        batched = QuantileSketch()
        with pytest.raises(ConfigurationError):
            batched.add_many([1.0, -2.0, 0.0, float(bad), 3.0])
        with pytest.raises(ConfigurationError):
            batched.add(float(bad))
        one_by_one = QuantileSketch()
        for value in (1.0, -2.0, 0.0):
            one_by_one.add(value)
        assert batched.to_dict() == one_by_one.to_dict()


class TestMergeAlgebra:
    def test_merge_commutative(self):
        a = _sketch_of(_lognormal_samples(800, seed=1))
        b = _sketch_of(_mixed_samples(800, seed=2))
        ab = _copy(a).merge(_copy(b))
        ba = _copy(b).merge(_copy(a))
        assert ab == ba

    def test_merge_associative(self):
        a = _sketch_of(_mixed_samples(500, seed=1))
        b = _sketch_of(_mixed_samples(500, seed=2))
        c = _sketch_of(_mixed_samples(500, seed=3))
        left = _copy(a).merge(_copy(b)).merge(_copy(c))
        right = _copy(a).merge(_copy(b).merge(_copy(c)))
        assert left == right

    def test_merge_equals_single_pass(self):
        # Partition invariance: sharded aggregation must be
        # indistinguishable from one pass over all samples.
        samples = _mixed_samples(3000, seed=9)
        whole = _sketch_of(samples)
        merged = QuantileSketch(alpha=0.01)
        for lo in range(0, len(samples), 700):
            merged.merge(_sketch_of(samples[lo:lo + 700]))
        assert merged == whole

    def test_merge_alpha_mismatch_raises(self):
        with pytest.raises(ConfigurationError):
            QuantileSketch(alpha=0.01).merge(QuantileSketch(alpha=0.02))

    def test_merge_rejects_non_sketch(self):
        with pytest.raises(ConfigurationError):
            QuantileSketch().merge([1.0, 2.0])


class TestSerialization:
    def test_json_round_trip(self):
        sketch = _sketch_of(_mixed_samples(1500, seed=4), alpha=0.007)
        payload = json.loads(json.dumps(sketch.to_dict()))
        restored = QuantileSketch.from_dict(payload)
        assert restored == sketch
        assert restored.quantile(0.5) == sketch.quantile(0.5)
        assert restored.min == sketch.min
        assert restored.max == sketch.max

    def test_empty_round_trip(self):
        sketch = QuantileSketch()
        assert QuantileSketch.from_dict(sketch.to_dict()) == sketch

    @pytest.mark.parametrize("change", [
        None, [], {"alpha": None}, {"alpha": 1.5}, {"count": -5},
        {"count": 2}, {"count": True}, {"zero": -1}, {"zero": 1.0},
        {"pos": [1]}, {"pos": {"x": 1}}, {"pos": {"0": 0}}, {"neg": {"3": -2}},
        {"min": "nan"}, {"min": float("nan")}, {"max": float("inf")},
        {"min": 9.0}, {"max": None},
    ], ids=repr)
    def test_corrupt_partial_fails_typed(self, change):
        # Partials come back over the wire and out of the cache.
        payload = _sketch_of([1.0, -2.0, 0.0, 5.0]).to_dict()
        if isinstance(change, dict):
            payload.update(change)
            payload = {k: v for k, v in payload.items() if v is not None}
        else:
            payload = change
        with pytest.raises(ConfigurationError, match="QuantileSketch"):
            QuantileSketch.from_dict(payload)


class TestSketchCdf:
    def test_matches_sketch(self):
        samples = _lognormal_samples(1000, seed=12)
        sketch = _sketch_of(samples)
        cdf = SketchCdf(sketch)
        assert len(cdf) == len(samples)
        assert cdf.median == sketch.median
        assert cdf.percentile(75.0) == sketch.percentile(75.0)
        assert cdf.fraction_below(0.0) == 0.0
        assert (cdf.min, cdf.max) == (min(samples), max(samples))
        assert cdf.points()[-1][1] == pytest.approx(1.0)

    def test_empty_raises(self):
        with pytest.raises(ConfigurationError):
            SketchCdf(QuantileSketch())


class TestLabeledCounters:
    def test_inc_get_fraction(self):
        counters = LabeledCounters()
        counters.inc("wins", 3)
        counters.inc("runs", 4)
        assert counters["wins"] == 3
        assert counters.get("missing") == 0
        assert counters.fraction("wins", "runs") == pytest.approx(0.75)
        assert counters.fraction("wins", "missing") == 0.0

    def test_negative_increment_raises(self):
        with pytest.raises(ConfigurationError):
            LabeledCounters().inc("x", -1)

    def test_merge_and_round_trip(self):
        a = LabeledCounters({"x": 2})
        b = LabeledCounters({"x": 1, "y": 4})
        merged = a.merge(b)
        assert merged["x"] == 3 and merged["y"] == 4
        restored = LabeledCounters.from_dict(
            json.loads(json.dumps(merged.to_dict()))
        )
        assert restored == merged

    @pytest.mark.parametrize("payload", [
        {"a": -3}, {"a": True}, {"a": 1.5}, {"a": "2"}, ["a"], None,
    ], ids=repr)
    def test_corrupt_counters_fail_typed(self, payload):
        with pytest.raises(ConfigurationError, match="LabeledCounters"):
            LabeledCounters.from_dict(payload)
