"""The synthetic world behind the Cell vs WiFi app.

Each :class:`SiteProfile` corresponds to one row of the paper's
Table 1: a geographic anchor, a number of complete measurement runs,
and the fraction of those runs in which LTE beat WiFi.
:class:`CrowdWorld` turns the profiles into per-site medians of
(WiFi, LTE) throughput and ping RTT, from which the sampler
(:mod:`repro.crowd.sampling`) draws every run:

* log-throughputs are jointly normal; the LTE-vs-WiFi log-median gap
  per site is chosen by a probit inversion so the probability that
  LTE wins matches the site's Table-1 percentage;
* uplink gets a small extra LTE tilt (the paper measured 42 % LTE wins
  on the uplink vs 35 % on the downlink);
* RTT log-differences are calibrated so LTE has the lower ping RTT in
  ~20 % of runs overall (Fig. 4).
"""

import math
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.errors import ConfigurationError
from repro.core.rng import DEFAULT_SEED, RngStreams
from repro.crowd.geo import GeoPoint
from repro.crowd.operators import (
    AppProfile,
    DEFAULT_APP_MIX,
    DEFAULT_CELL_DIURNAL,
    DEFAULT_OPERATORS,
    DEFAULT_WIFI_DIURNAL,
    DiurnalCurve,
    OperatorProfile,
)
from repro.crowd.tcpmodel import ONE_MBYTE, count_wins, ramp_table

__all__ = ["SiteProfile", "TABLE1_SITES", "CrowdWorld", "NOISE_SIGMA"]

#: Multiplicative measurement noise (log-sigma) on one throughput
#: probe: the sampler's default and the noise both calibration passes
#: assume.
NOISE_SIGMA = 0.12

#: The keys of :meth:`CrowdWorld.profile_dict`, all required.
_PROFILE_KEYS = ("operators", "wifi_diurnal", "cell_diurnal", "apps")


@dataclass(frozen=True)
class SiteProfile:
    """One Table-1 location: anchor point, run count, LTE-win rate."""

    name: str
    lat: float
    lon: float
    runs: int
    lte_win_fraction: float

    def __post_init__(self) -> None:
        if self.runs < 0:
            raise ConfigurationError(f"negative run count for {self.name}")
        if not 0.0 <= self.lte_win_fraction <= 1.0:
            raise ConfigurationError(
                f"lte_win_fraction out of range for {self.name}"
            )

    @property
    def point(self) -> GeoPoint:
        return GeoPoint(self.lat, self.lon)


#: The paper's Table 1, verbatim: name, (lat, lon), complete runs, and
#: the percentage of runs where LTE throughput beat WiFi.
TABLE1_SITES: List[SiteProfile] = [
    SiteProfile("US (Boston, MA)", 42.4, -71.1, 884, 0.10),
    SiteProfile("Israel", 31.8, 35.0, 276, 0.55),
    SiteProfile("US (Portland)", 45.6, -122.7, 164, 0.45),
    SiteProfile("Estonia", 59.4, 27.4, 124, 0.71),
    SiteProfile("South Korea", 37.5, 126.9, 108, 0.66),
    SiteProfile("US (Orlando)", 28.4, -81.4, 92, 0.35),
    SiteProfile("US (Miami)", 26.0, -80.2, 84, 0.52),
    SiteProfile("Malaysia", 4.24, 103.4, 76, 0.68),
    SiteProfile("Brazil", -23.6, -46.8, 56, 0.04),
    SiteProfile("Germany", 52.5, 13.3, 40, 0.20),
    SiteProfile("Spain", 28.0, -16.7, 40, 0.80),
    SiteProfile("Thailand (Phichit)", 16.1, 100.2, 40, 0.80),
    SiteProfile("US (New York)", 40.9, -73.8, 24, 0.33),
    SiteProfile("Japan", 36.4, 139.3, 16, 0.25),
    SiteProfile("Sweden", 59.6, 18.6, 16, 0.00),
    SiteProfile("Thailand (Chiang Mai)", 18.8, 99.0, 16, 0.75),
    SiteProfile("US (Chicago)", 42.0, -88.2, 16, 0.25),
    SiteProfile("Hungary", 47.4, 16.8, 8, 0.00),
    SiteProfile("Italy", 44.2, 8.3, 8, 0.00),
    SiteProfile("US (Salt Lake City)", 40.8, -111.9, 8, 0.00),
    SiteProfile("Colombia", 7.1, -70.7, 4, 0.00),
    SiteProfile("US (Santa Fe)", 35.9, -106.3, 4, 0.00),
]


def _probit(p: float) -> float:
    """Inverse standard-normal CDF (Acklam's rational approximation)."""
    p = min(max(p, 1e-6), 1.0 - 1e-6)
    # Coefficients for the central region approximation.
    a = [-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
         1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00]
    b = [-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
         6.680131188771972e+01, -1.328068155288572e+01]
    c = [-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
         -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00]
    d = [7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
         3.754408661907416e+00]
    p_low = 0.02425
    if p < p_low:
        q = math.sqrt(-2.0 * math.log(p))
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
        )
    if p > 1.0 - p_low:
        q = math.sqrt(-2.0 * math.log(1.0 - p))
        return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
        )
    q = p - 0.5
    r = q * q
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / (
        ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0
    )


class CrowdWorld:
    """The synthetic world: Table-1 sites, operators, diurnal load, apps.

    Each site's medians come from two calibration passes, both
    bisections on a Monte-Carlo'd *measured* LTE-win fraction.  The
    **base** pass (:meth:`_calibrate_base_site`) fits the LTE rate
    median to the site's Table-1 win rate under 1-MB TCP probes.  The
    **crowd** pass re-fits the LTE medians under three axes of
    heterogeneity layered on top, each designed to be
    *log-mean-neutral*:

    * **operators** — each user subscribes to one cellular carrier
      whose log offsets widen the LTE spread (Malandrino et al.);
    * **diurnal load** — a 24 h capacity/RTT cycle per technology,
      cellular swinging harder than WiFi;
    * **apps** — a per-app traffic mix; the experienced throughput of
      an app's flow size is derived with the same TCP model as the
      paper's 1-MB probe (MopEye's per-app framing).

    Log-mean-neutral is necessary but not sufficient: at high-LTE-win
    sites the base pass parks the LTE median deep in the 1-MB TCP
    saturation regime, where the measured log-gap over WiFi is small
    (~0.1) with small effective variance — mean-zero operator and
    diurnal offsets of comparable size then regress wins toward 0.5
    (observed: Chiang Mai 0.75 → 0.60).  The crowd pass bisects a
    joint knob ``t`` that scales the LTE rate median by ``e^t`` and
    the LTE RTT median by ``e^{-t/2}``.  The RTT half keeps the knob
    monotone inside saturation (where the measured value tracks 1/RTT,
    not rate); sites already within MC tolerance of their target keep
    their base medians verbatim.

    The sampler (:mod:`repro.crowd.sampling`) reads this model through
    :meth:`site_medians` and inlines :meth:`modifiers` and
    :meth:`pick_operator` over the same tables.
    """

    #: Per-technology log-throughput spread within one site.
    SIGMA = 0.55
    #: Extra uplink tilt toward LTE, in log space (the paper saw more
    #: LTE wins on the uplink: 42 % vs 35 %).
    UPLINK_LTE_TILT = 0.35
    #: RTT spread in log space.
    RTT_SIGMA = 0.45
    #: Fraction of cellular runs on a non-LTE technology (filtered out
    #: by the paper's network-type check).
    NON_LTE_FRACTION = 0.15
    #: Monte-Carlo draws for the crowd recalibration pass.
    CROWD_CALIBRATION_DRAWS = 800
    #: Sites whose heterogeneous win fraction already lands within
    #: this of the Table-1 target keep their base medians unchanged.
    CROWD_CALIBRATION_TOL = 0.01

    def __init__(
        self,
        seed: int = DEFAULT_SEED,
        operators: Tuple[OperatorProfile, ...] = DEFAULT_OPERATORS,
        wifi_diurnal: DiurnalCurve = DEFAULT_WIFI_DIURNAL,
        cell_diurnal: DiurnalCurve = DEFAULT_CELL_DIURNAL,
        apps: Tuple[AppProfile, ...] = DEFAULT_APP_MIX,
    ):
        if not operators:
            raise ConfigurationError("need at least one operator")
        if not apps:
            raise ConfigurationError("need at least one app profile")
        self.seed = seed
        self._streams = RngStreams(seed).fork("crowd.world")
        self.operators = tuple(operators)
        self.wifi_diurnal = wifi_diurnal
        self.cell_diurnal = cell_diurnal
        self.apps = tuple(apps)
        self._operator_cum = _cumulative([op.share for op in operators])
        #: Per operator, ``(exp(tput_log_offset), exp(rtt_log_offset))``.
        self._operator_exps = [
            (math.exp(op.tput_log_offset), math.exp(op.rtt_log_offset))
            for op in self.operators
        ]
        self._app_cum = _cumulative([app.weight for app in apps])
        self._site_params = {
            site.name: self._calibrate_base_site(site)
            for site in TABLE1_SITES
        }
        self._crowd_params = {
            site.name: self._calibrate_crowd_site(site)
            for site in TABLE1_SITES
        }

    def _calibrate_base_site(
        self, site: SiteProfile
    ) -> Tuple[float, float, float, float]:
        """Draw one site's base medians and fit its LTE rate median.

        Raw link rates would undershoot measured LTE wins: the app
        measures 1-MB TCP flows, handicapped by the technology's RTT.
        So the whole measurement pipeline is Monte-Carlo'd and a
        log-space multiplier bisected.  The WiFi side does not depend
        on the candidate, so each draw's WiFi measurement is taken
        once and becomes the LTE side's rival.
        """
        rng = self._streams.get(f"site.{site.name}")
        wifi_median = rng.uniform(4.0, 14.0)
        sigma_diff = math.sqrt(2.0) * self.SIGMA
        gap = _probit(site.lte_win_fraction) * sigma_diff
        lte_median = wifi_median * math.exp(gap)
        # RTT: LTE lower ~20 % overall; per-site jitter around that.
        rtt_target = min(max(0.24 + rng.uniform(-0.10, 0.10), 0.02), 0.6)
        wifi_rtt_median = rng.uniform(25.0, 80.0)
        rtt_gap = -_probit(rtt_target) * math.sqrt(2.0) * self.RTT_SIGMA
        lte_rtt_median = wifi_rtt_median * math.exp(rtt_gap)

        rows = self._calibration_rows(
            self._streams.get(f"calibrate.{site.name}"), 400, wifi_median,
            wifi_rtt_median, crowd=False)
        lo, hi = lte_median * 0.2, lte_median * 8.0
        for _ in range(18):
            mid = math.sqrt(lo * hi)
            wins = count_wins(rows, mid, lte_rtt_median)
            if wins / len(rows) < site.lte_win_fraction:
                lo = mid
            else:
                hi = mid
        return (wifi_median, math.sqrt(lo * hi), wifi_rtt_median,
                lte_rtt_median)

    def _calibrate_crowd_site(
        self, site: SiteProfile
    ) -> Tuple[float, float, float, float]:
        """Re-fit one site's LTE medians under full heterogeneity.

        Bisects ``t`` in ``lte_rate *= e^t``, ``lte_rtt *= e^{-t/2}``
        so the Monte-Carlo'd *measured* win fraction — operators,
        diurnal hour, TCP saturation, measurement noise, the exact
        clamps of the sampler — matches Table 1.  Monotone in ``t``
        in both the rate-limited and RTT-limited regimes.
        """
        wifi_med, lte_med, wifi_rtt_med, lte_rtt_med = (
            self._site_params[site.name]
        )
        rows = self._calibration_rows(
            self._streams.get(f"crowd.calibrate.{site.name}"),
            self.CROWD_CALIBRATION_DRAWS, wifi_med, wifi_rtt_med, crowd=True)
        exp = math.exp

        def win_fraction(t: float) -> float:
            wins = count_wins(rows, lte_med * exp(t),
                              lte_rtt_med * exp(-0.5 * t),
                              rate_floor=0.1, rtt_floor=15.0, rtt_cap=1200.0)
            return wins / len(rows)

        if abs(win_fraction(0.0) - site.lte_win_fraction) <= (
            self.CROWD_CALIBRATION_TOL
        ):
            return self._site_params[site.name]
        lo, hi = -4.0, 4.0
        for _ in range(24):
            mid = 0.5 * (lo + hi)
            if win_fraction(mid) < site.lte_win_fraction:
                lo = mid
            else:
                hi = mid
        t = 0.5 * (lo + hi)
        return (
            wifi_med,
            lte_med * math.exp(t),
            wifi_rtt_med,
            lte_rtt_med * math.exp(-0.5 * t),
        )

    def _calibration_rows(
        self, rng: random.Random, draws: int, wifi_med: float,
        wifi_rtt_med: float, crowd: bool,
    ) -> List[Tuple[float, float, float, float]]:
        """``draws`` :func:`count_wins` rows for one site's calibration.

        A row is the LTE side's rate, RTT and noise multipliers and the
        WiFi draw's measured 1-MB throughput, its rival; a ``crowd`` row
        also draws an operator and an hour and clamps WiFi as the sampler
        does.  ``rng.gauss(0, 1)`` ×6, :meth:`pick_operator`,
        :meth:`modifiers` and :func:`estimate_tcp_throughput_mbps` are
        inlined with their floating-point operations in the same order,
        so every row is what the calls would give, to the bit.  A normal
        is CPython's ``gauss`` pair off ``rng.random`` (angle, then
        radius; cos term, then sin term): six are three whole pairs, so
        no ``gauss_next`` carries across rows, and ``gauss``'s ``0 + z*1``
        only turns ``-0.0`` into ``0.0``, which ``exp`` cannot tell.

        A base row (``crowd=False``) is a crowd row with unit modifiers
        and clamps that never fire (floors 0.0, cap ``inf``) and without
        the operator/hour draws: ``x * 1.0 == x`` and a lognormal draw is
        never below 0.0 or above ``inf``, so the base pass is bit-equal
        to its own loop.  An edit to either branch must keep that true.
        """
        rand = rng.random
        exp, log, sqrt, cos, sin = math.exp, math.log, math.sqrt, math.cos, math.sin
        two_pi = 2.0 * math.pi
        sigma, rtt_sigma, noise = self.SIGMA, self.RTT_SIGMA, NOISE_SIGMA
        op_cum, op_exps = self._operator_cum, self._operator_exps
        last_op = len(op_cum) - 1
        wifi, cell = self.wifi_diurnal, self.cell_diurnal
        wifi_amp, wifi_peak, wifi_coupling = wifi.amplitude, wifi.peak_hour, wifi.rtt_coupling
        cell_amp, cell_peak, cell_coupling = cell.amplitude, cell.peak_hour, cell.rtt_coupling
        rate_floor, rtt_floor, rtt_cap = (
            (0.1, 5.0, 1200.0) if crowd else (0.0, 0.0, math.inf))
        w_cap = c_cap = w_rtt_m = c_rtt_m = 1.0
        (cwnds, ramp_rtts, drain), nbytes = ramp_table(ONE_MBYTE), float(ONE_MBYTE)
        rows = []
        for _ in range(draws):
            if crowd:
                # A zero amplitude's load is +-0.0 here, 0.0 in log_load: exp gives 1.0.
                op_tput, op_rtt = op_exps[min(bisect_right(op_cum, rand()), last_op)]
                hour = rand() * 24.0
                wifi_load = wifi_amp * cos(two_pi * (hour - wifi_peak) / 24.0)
                cell_load = cell_amp * cos(two_pi * (hour - cell_peak) / 24.0)
                w_cap, c_cap = exp(-wifi_load), op_tput * exp(-cell_load)
                w_rtt_m = exp(wifi_coupling * wifi_load)
                c_rtt_m = op_rtt * exp(cell_coupling * cell_load)
            angle, radius = rand() * two_pi, sqrt(-2.0 * log(1.0 - rand()))
            rate = wifi_med * w_cap * exp(sigma * (cos(angle) * radius))
            rate_mult = c_cap * exp(sigma * (sin(angle) * radius))
            angle, radius = rand() * two_pi, sqrt(-2.0 * log(1.0 - rand()))
            rtt = wifi_rtt_med * w_rtt_m * exp(rtt_sigma * (cos(angle) * radius))
            rtt_mult = c_rtt_m * exp(rtt_sigma * (sin(angle) * radius))
            if rate < rate_floor:
                rate = rate_floor
            if rtt < rtt_floor:
                rtt = rtt_floor
            elif rtt > rtt_cap:
                rtt = rtt_cap
            rate_bps, rtt_s = rate * 1e6 / 8.0, rtt / 1000.0
            k = bisect_left(cwnds, rate_bps * rtt_s / 1448.0)
            angle, radius = rand() * two_pi, sqrt(-2.0 * log(1.0 - rand()))
            rows.append((rate_mult, rtt_mult, exp(noise * (sin(angle) * radius)),
                         nbytes / (rtt_s * ramp_rtts[k] + drain[k] / rate_bps)
                         * 8.0 / 1e6 * exp(noise * (cos(angle) * radius))))
        return rows

    # -- lookups used by the vectorized sampler ------------------------
    def site_medians(self, site_name: str) -> Tuple[float, float, float, float]:
        """Crowd-calibrated (wifi_mbps, lte_mbps, wifi_rtt_ms, lte_rtt_ms)."""
        try:
            return self._crowd_params[site_name]
        except KeyError:
            raise ConfigurationError(f"unknown Table-1 site: {site_name!r}")

    def pick_operator(self, u: float) -> int:
        """Operator index for a uniform draw ``u`` (share-weighted)."""
        return _pick(self._operator_cum, u)

    def modifiers(
        self, operator_index: int, hour: float
    ) -> Tuple[float, float, float, float]:
        """Multipliers (wifi_cap, cell_cap, wifi_rtt, cell_rtt).

        Composes the operator's log offsets with both diurnal curves
        at local ``hour``.  Pure and deterministic — the sampler inlines
        the same operations in the same order, once per run.
        """
        tput_mult, rtt_mult = self._operator_exps[operator_index]
        exp = math.exp
        wifi_load = self.wifi_diurnal.log_load(hour)
        cell_load = self.cell_diurnal.log_load(hour)
        return (
            exp(-wifi_load),
            tput_mult * exp(-cell_load),
            exp(self.wifi_diurnal.rtt_coupling * wifi_load),
            rtt_mult * exp(self.cell_diurnal.rtt_coupling * cell_load),
        )

    def profile_dict(self) -> dict:
        """JSON-safe description of the heterogeneity axes."""
        return {
            "operators": [op.to_dict() for op in self.operators],
            "wifi_diurnal": self.wifi_diurnal.to_dict(),
            "cell_diurnal": self.cell_diurnal.to_dict(),
            "apps": [app.to_dict() for app in self.apps],
        }

    @classmethod
    def from_profile_dict(
        cls, data: Optional[dict], seed: int = DEFAULT_SEED
    ) -> "CrowdWorld":
        """Inverse of :meth:`profile_dict`; ``None`` or ``{}`` is the default.

        The profile arrives over the wire inside a population spec, so
        anything malformed raises :class:`ConfigurationError`.
        """
        if data is not None and not isinstance(data, dict):
            raise ConfigurationError(f"world_profile: not an object: {data!r}")
        if not data:
            return cls(seed=seed)
        if set(data) != set(_PROFILE_KEYS):
            raise ConfigurationError(f"world_profile: keys {list(data)}, "
                                     f"need exactly {list(_PROFILE_KEYS)}")
        try:
            parts = {
                "operators": tuple(
                    OperatorProfile.from_dict(op) for op in data["operators"]
                ),
                "wifi_diurnal": DiurnalCurve.from_dict(data["wifi_diurnal"]),
                "cell_diurnal": DiurnalCurve.from_dict(data["cell_diurnal"]),
                "apps": tuple(AppProfile.from_dict(app) for app in data["apps"]),
            }
        except (AttributeError, KeyError, TypeError, ValueError,
                ConfigurationError) as exc:
            raise ConfigurationError(f"world_profile: malformed: {exc!r}")
        return cls(seed=seed, **parts)


def _cumulative(weights: List[float]) -> List[float]:
    total = sum(weights)
    if total <= 0:
        raise ConfigurationError("weights must sum to a positive value")
    cum, acc = [], 0.0
    for weight in weights:
        acc += weight / total
        cum.append(acc)
    cum[-1] = 1.0  # guard float drift so u=0.999999... always lands
    return cum


def _pick(cumulative: List[float], u: float) -> int:
    return min(bisect_right(cumulative, u), len(cumulative) - 1)
