"""Tests for the heterogeneity axes (layer 1: operators, diurnal, apps)."""

import math
from dataclasses import replace

import pytest

from repro.core.errors import ConfigurationError
from repro.crowd.operators import (
    AppProfile,
    DEFAULT_APP_MIX,
    DEFAULT_CELL_DIURNAL,
    DEFAULT_OPERATORS,
    DEFAULT_WIFI_DIURNAL,
    DiurnalCurve,
    OperatorProfile,
)
from repro.crowd.world import CrowdWorld, TABLE1_SITES


class TestOperatorProfiles:
    def test_default_shares_sum_to_one(self):
        assert sum(op.share for op in DEFAULT_OPERATORS) == pytest.approx(1.0)

    def test_default_offsets_are_share_weighted_neutral(self):
        # Heterogeneity must not shift the calibrated medians: the
        # share-weighted mean log offset is ~0 on both axes.
        tput = sum(op.share * op.tput_log_offset for op in DEFAULT_OPERATORS)
        rtt = sum(op.share * op.rtt_log_offset for op in DEFAULT_OPERATORS)
        assert tput == pytest.approx(0.0, abs=0.01)
        assert rtt == pytest.approx(0.0, abs=0.01)

    def test_round_trip(self):
        op = OperatorProfile("op-X", 0.5, 0.1, -0.05)
        assert OperatorProfile.from_dict(op.to_dict()) == op


class TestDiurnalCurves:
    def test_capacity_dips_at_peak(self):
        curve = DiurnalCurve(amplitude=0.2, peak_hour=19.0)
        assert curve.capacity_mult(19.0) == pytest.approx(math.exp(-0.2))
        assert curve.capacity_mult(7.0) == pytest.approx(math.exp(0.2))

    def test_rtt_rises_with_load(self):
        curve = DiurnalCurve(amplitude=0.2, peak_hour=19.0, rtt_coupling=0.5)
        assert curve.rtt_mult(19.0) > 1.0 > curve.rtt_mult(7.0)

    def test_log_mean_neutral_over_day(self):
        # The cosine shape integrates to zero in log space, so the
        # daily geometric-mean capacity multiplier is 1.
        for curve in (DEFAULT_WIFI_DIURNAL, DEFAULT_CELL_DIURNAL):
            mean_log = sum(
                curve.log_load(h / 4.0) for h in range(96)
            ) / 96.0
            assert mean_log == pytest.approx(0.0, abs=1e-9)

    def test_round_trip(self):
        curve = DiurnalCurve(amplitude=0.3, peak_hour=12.0, rtt_coupling=0.7)
        assert DiurnalCurve.from_dict(curve.to_dict()) == curve


class TestAppProfiles:
    def test_default_mix_sums_to_one(self):
        assert sum(app.weight for app in DEFAULT_APP_MIX) == pytest.approx(1.0)

    def test_round_trip(self):
        app = AppProfile("game", 0.1, 65536, 4096)
        assert AppProfile.from_dict(app.to_dict()) == app


#: A valid profile of each kind and its float fields.
FLOAT_FIELDS = [
    (OperatorProfile("op-X", 0.5, 0.1, -0.05),
     ("share", "tput_log_offset", "rtt_log_offset")),
    (DiurnalCurve(amplitude=0.3, peak_hour=12.0, rtt_coupling=0.7),
     ("amplitude", "peak_hour", "rtt_coupling")),
    (AppProfile("game", 0.1, 65536, 4096), ("weight",)),
]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("profile, field", [
    (profile, field) for profile, fields in FLOAT_FIELDS for field in fields
], ids=lambda x: x if isinstance(x, str) else type(x).__name__)
def test_profiles_refuse_non_finite_fields(profile, field, value):
    # Constructed directly, not only through CrowdWorld.from_profile_dict:
    # a NaN operator offset once calibrated Israel's LTE to 583 Mbit/s.
    with pytest.raises(ConfigurationError, match="non-finite"):
        replace(profile, **{field: value})


class TestCrowdWorld:
    def test_pick_distributions_follow_weights(self, crowd_world):
        picks = [crowd_world.pick_operator(i / 10_000.0)
                 for i in range(10_000)]
        for idx, op in enumerate(crowd_world.operators):
            got = picks.count(idx) / len(picks)
            assert got == pytest.approx(op.share, abs=0.01)

    def test_modifiers_positive_and_deterministic(self, crowd_world):
        for hour in (0.0, 6.5, 13.0, 19.0, 23.9):
            for op in range(len(crowd_world.operators)):
                mods = crowd_world.modifiers(op, hour)
                assert len(mods) == 4
                assert all(m > 0 for m in mods)
                assert mods == crowd_world.modifiers(op, hour)

    def test_profile_round_trip_preserves_calibration(self, crowd_world):
        clone = CrowdWorld.from_profile_dict(
            crowd_world.profile_dict(), seed=crowd_world.seed
        )
        for site in TABLE1_SITES:
            assert clone.site_medians(site.name) == (
                crowd_world.site_medians(site.name)
            )

    def test_unknown_site_rejected(self, crowd_world):
        with pytest.raises(ConfigurationError):
            crowd_world.site_medians("Atlantis")

    def test_crowd_calibration_leaves_wifi_untouched(self, crowd_world):
        # The second calibration pass only moves the LTE knobs; WiFi
        # medians and the zero-win sites' ordering stay put.
        for site in TABLE1_SITES:
            wifi, lte, wifi_rtt, lte_rtt = crowd_world.site_medians(site.name)
            base_wifi, base_lte, base_wrtt, base_lrtt = (
                crowd_world._site_params[site.name]
            )
            assert wifi == base_wifi
            assert wifi_rtt == base_wrtt
            assert lte > 0 and lte_rtt > 0
