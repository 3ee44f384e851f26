"""The Cell vs WiFi measurement app's collection state machine (Fig. 2).

One collection run walks the paper's flowchart:

1. *Start measurement* — triggered by the user or a periodic timer.
2. If WiFi is on and association succeeds, measure WiFi: a 1-MByte TCP
   upload and download against the MIT server, plus 10 pings.
3. Turn WiFi off; if cellular data is enabled, measure the cellular
   network the same way.
4. Upload the run (user id, location, traces) to the server.

Runs can be partial — WiFi association fails, the user disabled
cellular data, or the user configured WiFi-only measurement — and the
cellular side may come up on a 3G network that the paper's
network-type filter later discards.  All of those paths are modelled
so the §2.2 filtering steps have something to filter.
"""

import math
from typing import Iterator, List, Optional

from repro.core.rng import DEFAULT_SEED, RngStreams
from repro.crowd.dataset import Dataset, MeasurementRun
from repro.crowd.tcpmodel import estimate_tcp_throughput_mbps
from repro.crowd.world import RunConditions, SiteProfile, TABLE1_SITES, WorldModel

__all__ = ["CellVsWifiApp", "collect_site_runs"]

ONE_MBYTE = 1_048_576


class CellVsWifiApp:
    """Generates the crowdsourced dataset by running the app's flowchart."""

    #: Probability WiFi is unavailable / association fails (Fig. 2's
    #: "Scan and Associate — Success?" branch).
    WIFI_FAILURE_P = 0.08
    #: Probability the user has cellular data disabled.
    CELL_DISABLED_P = 0.06
    #: Probability the user configured a WiFi-only or cell-only run
    #: ("some users use this app to measure only WiFi or LTE").
    SINGLE_TECH_P = 0.06
    #: Multiplicative measurement noise (log-sigma) on throughput.
    NOISE_SIGMA = 0.12
    #: Number of pings averaged per RTT measurement.
    PING_COUNT = 10
    #: Bytes one full cellular measurement consumes (1 MB up + 1 MB down).
    CELL_BYTES_PER_RUN = 2 * ONE_MBYTE

    def __init__(
        self,
        world: Optional[WorldModel] = None,
        seed: int = DEFAULT_SEED,
        cellular_budget_bytes: Optional[int] = None,
    ) -> None:
        """``cellular_budget_bytes`` models the app's data-cap setting.

        The paper: "Users can also set an upper bound on the amount of
        cellular data that the app can consume".  When a user's
        cumulative cellular usage would exceed the budget, the cellular
        half of the run is skipped (producing a partial run).
        """
        self.world = world if world is not None else WorldModel(seed)
        self._streams = RngStreams(seed).fork("crowd.app")
        self.cellular_budget_bytes = cellular_budget_bytes
        self._cellular_used: dict = {}

    # ------------------------------------------------------------------
    # One run of the Fig. 2 flowchart
    # ------------------------------------------------------------------
    def _measure_throughput(self, rate_mbps: float, rtt_ms: float, rng) -> float:
        clean = estimate_tcp_throughput_mbps(rate_mbps, rtt_ms, ONE_MBYTE)
        return clean * math.exp(self.NOISE_SIGMA * rng.gauss(0.0, 1.0))

    def _measure_rtt(self, rtt_ms: float, rng) -> float:
        pings = [
            max(1.0, rtt_ms * math.exp(0.08 * rng.gauss(0.0, 1.0)))
            for _ in range(self.PING_COUNT)
        ]
        return sum(pings) / len(pings)

    def collect_run(
        self, site: SiteProfile, run_index: int, user_id: int
    ) -> MeasurementRun:
        """Execute one measurement-collection run at ``site``."""
        conditions: RunConditions = self.world.draw_run(site, run_index)
        rng = self._streams.get(f"collect.{site.name}.{run_index}")
        run = MeasurementRun(
            user_id=user_id,
            point=conditions.point,
            timestamp=float(run_index) * 3600.0,
            cellular_technology=conditions.cellular_technology,
        )
        single_tech: Optional[str] = None
        if rng.random() < self.SINGLE_TECH_P:
            single_tech = rng.choice(["wifi", "cell"])

        # Step 2: WiFi measurement.
        wifi_possible = single_tech in (None, "wifi")
        if wifi_possible and rng.random() >= self.WIFI_FAILURE_P:
            run.wifi_down_mbps = self._measure_throughput(
                conditions.wifi_down_mbps, conditions.wifi_rtt_ms, rng
            )
            run.wifi_up_mbps = self._measure_throughput(
                conditions.wifi_up_mbps, conditions.wifi_rtt_ms, rng
            )
            run.wifi_rtt_ms = self._measure_rtt(conditions.wifi_rtt_ms, rng)

        # Step 3: cellular measurement (WiFi interface turned off).
        cell_possible = single_tech in (None, "cell")
        if cell_possible and self.cellular_budget_bytes is not None:
            used = self._cellular_used.get(user_id, 0)
            if used + self.CELL_BYTES_PER_RUN > self.cellular_budget_bytes:
                cell_possible = False  # user's data cap reached
        if cell_possible and rng.random() >= self.CELL_DISABLED_P:
            self._cellular_used[user_id] = (
                self._cellular_used.get(user_id, 0) + self.CELL_BYTES_PER_RUN
            )
            run.cell_down_mbps = self._measure_throughput(
                conditions.lte_down_mbps, conditions.lte_rtt_ms, rng
            )
            run.cell_up_mbps = self._measure_throughput(
                conditions.lte_up_mbps, conditions.lte_rtt_ms, rng
            )
            run.cell_rtt_ms = self._measure_rtt(conditions.lte_rtt_ms, rng)
        else:
            run.cellular_technology = None

        # Step 4: upload — i.e., return the record.
        return run

    # ------------------------------------------------------------------
    # Whole-dataset collection
    # ------------------------------------------------------------------
    def iter_site(self, site: SiteProfile) -> Iterator[MeasurementRun]:
        """Yield runs until the site has its Table-1 count of usable runs.

        "Usable" means the run survives the paper's filters (complete
        and LTE/HSPA+); failed attempts stay in the stream as the
        partial runs the filters exist to remove.  The generator form
        lets sinks consume runs one at a time — nothing here holds the
        site's worth of records.
        """
        rng = self._streams.get(f"users.{site.name}")
        usable = 0
        run_index = 0
        # A site is covered by a handful of distinct users.
        user_pool = [rng.randrange(10 ** 9) for _ in range(max(1, site.runs // 12))]
        while usable < site.runs and run_index < site.runs * 4 + 40:
            user_id = user_pool[run_index % len(user_pool)]
            run = self.collect_run(site, run_index, user_id)
            if run.complete and run.is_high_speed_cell:
                usable += 1
            run_index += 1
            yield run

    def collect_site(self, site: SiteProfile) -> List[MeasurementRun]:
        """:meth:`iter_site`, materialized (the historical surface)."""
        return list(self.iter_site(site))

    def iter_all(
        self, sites: Optional[List[SiteProfile]] = None
    ) -> Iterator[MeasurementRun]:
        """Stream every site's runs in Table-1 order, O(1) records held."""
        sites = sites if sites is not None else TABLE1_SITES
        for site in sites:
            yield from self.iter_site(site)

    def collect_all(self, sites: Optional[List[SiteProfile]] = None) -> Dataset:
        """Collect the full crowdsourced dataset (all Table-1 sites).

        Materializes every run; for aggregate statistics prefer
        :meth:`iter_all` with :func:`repro.crowd.dataset.stream_stats`
        (or, at crowd scale, :func:`repro.crowd.pipeline.simulate`).
        """
        return Dataset(self.iter_all(sites))


def collect_site_runs(site_name: str, seed: int = DEFAULT_SEED) -> list:
    """Sweep-task entry point: collect one Table-1 site's runs.

    Site collection is independent by construction: every RNG stream
    the app and world model draw from is named after the site, so
    collecting sites in parallel and concatenating in site order is
    bit-identical to :meth:`CellVsWifiApp.collect_all`.
    """
    by_name = {site.name: site for site in TABLE1_SITES}
    if site_name not in by_name:
        raise KeyError(f"unknown Table-1 site: {site_name!r}")
    return CellVsWifiApp(seed=seed).collect_site(by_name[site_name])
