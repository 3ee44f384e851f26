"""Tests for measurement runs, dataset filters, and CSV round-trips."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crowd.dataset import Dataset, MeasurementRun
from repro.crowd.geo import GeoPoint


def _run(wifi_down=10.0, cell_down=5.0, technology="LTE", complete=True,
         wifi_up=5.0, cell_up=3.0, wifi_rtt=30.0, cell_rtt=70.0):
    run = MeasurementRun(
        user_id=1, point=GeoPoint(42.0, -71.0), timestamp=0.0,
        cellular_technology=technology,
    )
    run.wifi_down_mbps = wifi_down
    run.wifi_up_mbps = wifi_up
    run.wifi_rtt_ms = wifi_rtt
    if complete:
        run.cell_down_mbps = cell_down
        run.cell_up_mbps = cell_up
        run.cell_rtt_ms = cell_rtt
    else:
        run.cellular_technology = None
    return run


class TestMeasurementRun:
    def test_complete_detection(self):
        assert _run().complete
        assert not _run(complete=False).complete

    def test_diff_signs(self):
        run = _run(wifi_down=10, cell_down=5)
        assert run.downlink_diff_mbps() == 5.0
        assert not run.lte_wins_downlink
        run = _run(wifi_down=3, cell_down=5)
        assert run.lte_wins_downlink

    def test_high_speed_filter_accepts_hspa(self):
        assert _run(technology="LTE").is_high_speed_cell
        assert _run(technology="HSPA+").is_high_speed_cell
        assert not _run(technology="3G").is_high_speed_cell

    def test_rtt_diff(self):
        run = _run(wifi_rtt=100.0, cell_rtt=60.0)
        assert run.rtt_diff_ms() == pytest.approx(40.0)


class TestDatasetFilters:
    def test_analysis_set_applies_both_filters(self):
        dataset = Dataset([
            _run(),                       # kept
            _run(technology="3G"),        # dropped: legacy cell
            _run(complete=False),         # dropped: partial
            _run(technology="HSPA+"),     # kept
        ])
        analysis = dataset.analysis_set()
        assert len(analysis) == 2

    def test_win_fractions(self):
        dataset = Dataset([
            _run(wifi_down=10, cell_down=5, wifi_up=2, cell_up=4),
            _run(wifi_down=3, cell_down=6, wifi_up=5, cell_up=2),
        ])
        assert dataset.lte_win_fraction_downlink() == 0.5
        assert dataset.lte_win_fraction_uplink() == 0.5
        assert dataset.lte_win_fraction_combined() == 0.5

    def test_empty_dataset_fractions_zero(self):
        assert Dataset([]).lte_win_fraction_combined() == 0.0

    def test_column_extractors(self):
        dataset = Dataset([_run(wifi_down=10, cell_down=4)])
        assert dataset.downlink_diffs() == [6.0]


class TestCsvRoundTrip:
    def test_roundtrip_preserves_values(self):
        dataset = Dataset([_run(), _run(complete=False)])
        text = dataset.to_csv()
        parsed = Dataset.from_csv(text)
        assert len(parsed) == 2
        assert parsed.runs[0].complete
        assert not parsed.runs[1].complete
        assert parsed.runs[0].wifi_down_mbps == pytest.approx(10.0)

    @given(st.lists(
        st.tuples(
            st.floats(min_value=0.1, max_value=100, allow_nan=False),
            st.floats(min_value=0.1, max_value=100, allow_nan=False),
            st.sampled_from(["LTE", "HSPA+", "3G"]),
        ),
        min_size=0, max_size=10,
    ))
    @settings(max_examples=40)
    def test_roundtrip_any_dataset(self, rows):
        dataset = Dataset([
            _run(wifi_down=wifi, cell_down=cell, technology=tech)
            for wifi, cell, tech in rows
        ])
        parsed = Dataset.from_csv(dataset.to_csv())
        assert len(parsed) == len(dataset)
        for original, loaded in zip(dataset.runs, parsed.runs):
            assert loaded.cellular_technology == original.cellular_technology
            assert loaded.wifi_down_mbps == pytest.approx(
                original.wifi_down_mbps, abs=1e-3
            )
