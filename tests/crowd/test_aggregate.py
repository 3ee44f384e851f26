"""Tests for the batched sketch sink (layer 3).

``CrowdSketch.observe_columns`` folds a whole batch at a time; the
row-at-a-time fold it replaced is kept here as the reference, and the
two must agree on every bucket and every counter key.
"""

import pytest

from repro.analysis.sketch import LabeledCounters, QuantileSketch
from repro.crowd.aggregate import (
    DEFAULT_ALPHA,
    SKETCH_NAMES,
    CrowdSketch,
    SketchSink,
)
from repro.crowd.sampling import (
    TECHNOLOGIES,
    CrowdSampler,
    PopulationSpec,
    RunColumns,
)


def fold_rows(cols, site_names, operator_names, app_names):
    """One ``add()`` per value, one ``inc()`` per event, row by row."""
    sk = {name: QuantileSketch(DEFAULT_ALPHA) for name in SKETCH_NAMES}
    counters = LabeledCounters()
    inc = counters.inc
    inc("runs", len(cols))
    for i in range(len(cols)):
        if not (cols.wifi_ok[i] and cols.cell_ok[i]):
            inc("runs_partial")
            continue
        inc("runs_complete")
        if cols.tech[i] == 2:
            inc("runs_filtered_3g")
            continue
        inc("runs_analysis")
        site_name = site_names[cols.site[i]]
        op_name = operator_names[cols.operator[i]]
        app_name = app_names[cols.app[i]]
        inc(f"site_runs[{site_name}]")
        inc(f"op_runs[{op_name}]")
        inc(f"app_runs[{app_name}]")
        inc(f"tech_runs[{TECHNOLOGIES[cols.tech[i]]}]")

        d_down = cols.wifi_down[i] - cols.cell_down[i]
        d_up = cols.wifi_up[i] - cols.cell_up[i]
        d_rtt = cols.wifi_rtt[i] - cols.cell_rtt[i]
        sk["down_diff"].add(d_down)
        sk["up_diff"].add(d_up)
        sk["rtt_diff"].add(d_rtt)
        sk["wifi_down"].add(cols.wifi_down[i])
        sk["cell_down"].add(cols.cell_down[i])
        sk["app_down_diff"].add(cols.app_wifi_down[i] - cols.app_cell_down[i])
        if d_down < 0:
            inc("wins_down")
            inc(f"site_wins_down[{site_name}]")
            inc(f"op_wins_down[{op_name}]")
        if d_up < 0:
            inc("wins_up")
        if d_rtt > 0:
            inc("wins_rtt")
        if cols.app_cell_down[i] > cols.app_wifi_down[i]:
            inc(f"app_wins[{app_name}]")
    return {
        "alpha": DEFAULT_ALPHA,
        "sketches": {name: sk[name].to_dict() for name in sorted(sk)},
        "counters": counters.to_dict(),
    }


@pytest.fixture(scope="module")
def sink(crowd_world):
    return SketchSink(crowd_world, PopulationSpec(users=5_000))


@pytest.fixture(scope="module")
def columns(crowd_world):
    spec = PopulationSpec(users=5_000)
    return CrowdSampler(crowd_world, spec).sample_batch(0, 5_000)


def _names(sink):
    return sink.site_names, sink.operator_names, sink.app_names


class TestObserveColumns:
    def test_equals_row_by_row_fold(self, sink, columns):
        # The sample must exercise every filter branch.
        complete = [w and c for w, c in zip(columns.wifi_ok, columns.cell_ok)]
        assert not all(complete)
        assert any(t == 2 and ok for t, ok in zip(columns.tech, complete))
        sketch = CrowdSketch()
        sketch.observe_columns(columns, *_names(sink))
        assert sketch.to_dict() == fold_rows(columns, *_names(sink))

    def test_batches_accumulate_like_rows(self, sink, columns):
        lists = columns.to_lists()
        sketch = CrowdSketch()
        for lo in range(0, 5_000, 700):
            sketch.observe_columns(
                RunColumns.from_lists(
                    {k: v[lo:lo + 700] for k, v in lists.items()}),
                *_names(sink),
            )
        assert sketch.to_dict() == fold_rows(columns, *_names(sink))

    def test_no_counter_key_without_an_event(self, sink, columns):
        # Counter keys appear on first increment only: a batch with no
        # complete run must not leave zero-valued keys behind (they
        # would break equality with a shard that never saw one).
        lists = columns.to_lists()
        partial = [i for i in range(len(columns))
                   if not (columns.wifi_ok[i] and columns.cell_ok[i])][:20]
        only_partial = RunColumns.from_lists(
            {k: [v[i] for i in partial] for k, v in lists.items()})
        for cols in (RunColumns(), only_partial):
            sketch = CrowdSketch()
            sketch.observe_columns(cols, *_names(sink))
            assert sketch.to_dict() == fold_rows(cols, *_names(sink))
        assert sketch.counters.to_dict() == {"runs": 20, "runs_partial": 20}
