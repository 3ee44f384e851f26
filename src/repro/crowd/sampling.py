"""Vectorized batch sampling of crowd-scale measurement runs.

Layer 2 of the crowd-scale pipeline: turn a :class:`PopulationSpec`
plus a :class:`~repro.crowd.world.CrowdWorld` into measurement-run
draws, in configurable batches of *columns* (parallel lists, one per
field) rather than one Python object per user.  A million-user sweep
never materializes a million ``MeasurementRun`` instances — a batch
of 8192 runs is ~20 short lists that are recycled after the sink
consumes them.

Determinism contract: run ``i`` of the population is a pure function
of ``(population, world, i)``.  One :class:`random.Random` is seeded
(:func:`~repro.core.rng.derive_seed`) per block of 64 run indices and
one per block of 64 users for the per-user attributes; in its block's
stream a run owns a fixed slice of 20 uniforms (a user 4), drawn in a
frozen slot order whether or not a branch uses them, and a batch that
starts mid-block winds the stream forward to its slice.  So

* batch boundaries cannot matter: sampling ``[0, n)`` in one batch or
  in any partition of batches yields bit-identical columns
  (``tests/crowd/test_sampling.py`` asserts this), and
* the scalar reference path :meth:`CrowdSampler.sample_run` — one
  run, one small record — is bit-identical to the batched path by
  construction *and* by test.

Normal variates are Box-Muller pairs computed inline from two slots.
The layout is not versioned in :class:`PopulationSpec`: the sweep
cache key carries the code fingerprint, so shards drawn by an older
layout are never served.
"""

import math
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.core.errors import ConfigurationError, checked_kwargs, require
from repro.core.rng import DEFAULT_SEED, derive_seed
from repro.crowd.dataset import MeasurementRun
from repro.crowd.geo import GeoPoint
from repro.crowd.tcpmodel import ONE_MBYTE, ramp_table
from repro.crowd.world import NOISE_SIGMA, TABLE1_SITES, CrowdWorld, _cumulative

__all__ = ["PopulationSpec", "RunColumns", "CrowdRun", "CrowdSampler",
           "ONE_MBYTE"]

#: Cellular technology codes used in columns (index into this tuple).
TECHNOLOGIES = ("LTE", "HSPA+", "3G")


@dataclass(frozen=True)
class PopulationSpec:
    """Declarative description of a synthetic user population.

    Defaults scale the paper's world: users are spread over the
    Table-1 sites proportionally to each site's run count, carry the
    app's partial-run probabilities, and measure once each.  The spec
    is JSON-round-trippable so it can ride in a
    :class:`~repro.parallel.SimTask`'s kwargs (and hence the result
    cache key) unchanged.
    """

    users: int
    seed: int = DEFAULT_SEED
    runs_per_user: int = 1
    site_names: Tuple[str, ...] = tuple(s.name for s in TABLE1_SITES)
    site_weights: Tuple[float, ...] = tuple(
        float(s.runs) for s in TABLE1_SITES
    )
    #: Fig. 2's branch probabilities: WiFi association fails, the user
    #: has cellular data off, the user measures one technology only.
    wifi_failure_p: float = 0.08
    cell_disabled_p: float = 0.06
    single_tech_p: float = 0.06
    noise_sigma: float = NOISE_SIGMA
    world_profile: Optional[dict] = None

    def __post_init__(self) -> None:
        for name in ("users", "seed", "runs_per_user"):
            value = getattr(self, name)
            require(isinstance(value, int) and not isinstance(value, bool),
                    f"PopulationSpec.{name}", f"expected an int, got {value!r}")
        if self.users < 1:
            raise ConfigurationError(f"users must be >= 1: {self.users}")
        if self.runs_per_user < 1:
            raise ConfigurationError(
                f"runs_per_user must be >= 1: {self.runs_per_user}"
            )
        if len(self.site_names) != len(self.site_weights):
            raise ConfigurationError(
                "site_names and site_weights length mismatch"
            )
        if not self.site_names:
            raise ConfigurationError("population needs at least one site")
        known = {site.name for site in TABLE1_SITES}
        for name, weight in zip(self.site_names, self.site_weights):
            if not (isinstance(name, str) and name in known):
                raise ConfigurationError(f"site_names: unknown site {name!r}")
            if not (_is_number(weight) and 0.0 <= weight < math.inf):
                raise ConfigurationError(
                    f"site_weights: {name!r} has weight {weight!r}, need >= 0"
                )
        for p in (self.wifi_failure_p, self.cell_disabled_p,
                  self.single_tech_p):
            if not (_is_number(p) and 0.0 <= p <= 1.0):
                raise ConfigurationError(f"probability out of [0, 1]: {p!r}")
        require(_is_number(self.noise_sigma) and self.noise_sigma >= 0.0
                and math.isfinite(self.noise_sigma),
                "PopulationSpec.noise_sigma",
                f"need a finite value >= 0, got {self.noise_sigma!r}")
        require(self.world_profile is None
                or isinstance(self.world_profile, dict),
                "PopulationSpec.world_profile",
                f"expected a JSON object, got {self.world_profile!r}")

    @property
    def total_runs(self) -> int:
        return self.users * self.runs_per_user

    def to_dict(self) -> dict:
        out = {
            "users": self.users,
            "seed": self.seed,
            "runs_per_user": self.runs_per_user,
            "site_names": list(self.site_names),
            "site_weights": list(self.site_weights),
            "wifi_failure_p": self.wifi_failure_p,
            "cell_disabled_p": self.cell_disabled_p,
            "single_tech_p": self.single_tech_p,
        }
        if self.world_profile is not None:
            out["world_profile"] = self.world_profile
        if self.noise_sigma != NOISE_SIGMA:
            out["noise_sigma"] = self.noise_sigma
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "PopulationSpec":
        """Inverse of :meth:`to_dict`; an absent key takes its default.

        The spec arrives over the wire as sweep-task kwargs, so a
        missing ``users``, an unknown key or a value of the wrong type
        raises :class:`ConfigurationError`.
        """
        kwargs = checked_kwargs(cls, data, "PopulationSpec")
        require("users" in kwargs, "PopulationSpec.users", "missing")
        for name in ("site_names", "site_weights"):
            if name in kwargs:
                require(isinstance(kwargs[name], (list, tuple)),
                        f"PopulationSpec.{name}", "expected a list")
                kwargs[name] = tuple(kwargs[name])
        return cls(**kwargs)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


#: Column order of :class:`RunColumns` — frozen; tests and sinks index
#: by these names.
COLUMN_NAMES = (
    "user_id", "site", "operator", "app", "hour", "lat", "lon", "tech",
    "wifi_ok", "cell_ok",
    "wifi_down", "wifi_up", "cell_down", "cell_up",
    "wifi_rtt", "cell_rtt",
    "app_wifi_down", "app_cell_down",
)


@dataclass
class RunColumns:
    """One batch of runs in array-of-columns layout (no row objects)."""

    user_id: List[int] = field(default_factory=list)
    site: List[int] = field(default_factory=list)
    operator: List[int] = field(default_factory=list)
    app: List[int] = field(default_factory=list)
    hour: List[float] = field(default_factory=list)
    lat: List[float] = field(default_factory=list)
    lon: List[float] = field(default_factory=list)
    tech: List[int] = field(default_factory=list)
    wifi_ok: List[bool] = field(default_factory=list)
    cell_ok: List[bool] = field(default_factory=list)
    wifi_down: List[float] = field(default_factory=list)
    wifi_up: List[float] = field(default_factory=list)
    cell_down: List[float] = field(default_factory=list)
    cell_up: List[float] = field(default_factory=list)
    wifi_rtt: List[float] = field(default_factory=list)
    cell_rtt: List[float] = field(default_factory=list)
    app_wifi_down: List[float] = field(default_factory=list)
    app_cell_down: List[float] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.user_id)

    def row(self, i: int) -> "CrowdRun":
        return CrowdRun(*(getattr(self, name)[i] for name in COLUMN_NAMES))

    def rows(self) -> Iterator["CrowdRun"]:
        for i in range(len(self)):
            yield self.row(i)

    def to_lists(self) -> Dict[str, list]:
        """Plain picklable/JSON-able payload for crossing the wire."""
        return {name: getattr(self, name) for name in COLUMN_NAMES}

    @classmethod
    def from_lists(cls, data: Dict[str, list]) -> "RunColumns":
        return cls(**{name: list(data[name]) for name in COLUMN_NAMES})

    def extend(self, other: "RunColumns") -> None:
        for name in COLUMN_NAMES:
            getattr(self, name).extend(getattr(other, name))

    def to_measurement_runs(self) -> List[MeasurementRun]:
        """Materialize app-upload records, the :class:`Dataset` shape.

        O(len) objects — for Table-1-size datasets
        (:func:`repro.crowd.pipeline.table1_runs`), not for crowds.
        """
        runs = []
        for i in range(len(self)):
            wifi_ok, cell_ok = self.wifi_ok[i], self.cell_ok[i]
            runs.append(MeasurementRun(
                user_id=self.user_id[i],
                point=GeoPoint(self.lat[i], self.lon[i]),
                timestamp=self.hour[i] * 3600.0,
                cellular_technology=(
                    TECHNOLOGIES[self.tech[i]] if cell_ok else None
                ),
                wifi_down_mbps=self.wifi_down[i] if wifi_ok else None,
                wifi_up_mbps=self.wifi_up[i] if wifi_ok else None,
                cell_down_mbps=self.cell_down[i] if cell_ok else None,
                cell_up_mbps=self.cell_up[i] if cell_ok else None,
                wifi_rtt_ms=self.wifi_rtt[i] if wifi_ok else None,
                cell_rtt_ms=self.cell_rtt[i] if cell_ok else None,
            ))
        return runs


@dataclass(frozen=True)
class CrowdRun:
    """Scalar reference record: one run, same fields as the columns."""

    user_id: int
    site: int
    operator: int
    app: int
    hour: float
    lat: float
    lon: float
    tech: int
    wifi_ok: bool
    cell_ok: bool
    wifi_down: float
    wifi_up: float
    cell_down: float
    cell_up: float
    wifi_rtt: float
    cell_rtt: float
    app_wifi_down: float
    app_cell_down: float


class CrowdSampler:
    """Draw population runs, batched or one at a time (bit-identical)."""

    #: Effective log-sigma of a 10-ping average (0.08 / sqrt(10)).
    PING_AVG_SIGMA = 0.0253
    #: Runs (users) per seeded stream and uniforms each owns in it:
    #: part of the determinism contract, not tunables.
    BLOCK = 64
    RUN_SLOTS = 20
    USER_SLOTS = 4

    def __init__(self, world: CrowdWorld, population: PopulationSpec):
        self.world = world
        self.population = population
        self._base = derive_seed(population.seed, "crowd.scale")
        self._site_cum = _cumulative(list(population.site_weights))
        by_name = {site.name: site for site in TABLE1_SITES}
        self._sites = [by_name[name] for name in population.site_names]
        self._medians = [world.site_medians(name)
                         for name in population.site_names]

    # ------------------------------------------------------------------
    def sample_run(self, index: int) -> CrowdRun:
        """Reference path: the one-run scalar record for ``index``."""
        batch = RunColumns()
        self._sample_into(batch, index, 1)
        return batch.row(0)

    def sample_batch(self, start: int, count: int) -> RunColumns:
        """Batched path: columns for runs ``[start, start + count)``."""
        if start < 0 or count < 0:
            raise ConfigurationError("negative batch bounds")
        end = min(start + count, self.population.total_runs)
        batch = RunColumns()
        if end > start:
            self._sample_into(batch, start, end - start)
        return batch

    def batches(self, start: int, count: int,
                batch: int) -> Iterator[RunColumns]:
        """Yield ``[start, start+count)`` as batches of ``batch`` runs."""
        if batch < 1:
            raise ConfigurationError(f"batch must be >= 1: {batch}")
        end = min(start + count, self.population.total_runs)
        cursor = start
        while cursor < end:
            step = min(batch, end - cursor)
            yield self.sample_batch(cursor, step)
            cursor += step

    # ------------------------------------------------------------------
    def _stream(self, kind: str, index: int, slots: int) -> Callable[[], float]:
        """``random()`` of ``index``'s block stream, wound to its slice."""
        block, offset = divmod(index, self.BLOCK)
        rand = random.Random(derive_seed(self._base, f"{kind}.{block}")).random
        for _ in range(offset * slots):
            rand()
        return rand

    def _sample_into(self, cols: RunColumns, start: int, count: int) -> None:
        """The single frozen draw path both surfaces share.

        One kernel on tables bound once: the weighted picks, the
        world's :meth:`~CrowdWorld.modifiers` and the TCP probes
        (:func:`~repro.crowd.tcpmodel.estimate_tcp_throughput_mbps`)
        are inlined with their floating-point operations in the same
        order, so every column is what the calls would give, to the
        bit.  Every run draws its ``RUN_SLOTS`` uniforms up front, used
        or not, and every user its ``USER_SLOTS``; the slot order below
        is part of the determinism contract — never reorder it.  A
        Box-Muller pair takes two slots (``u_*`` the radius, ``v_*``
        the angle).
        """
        pop = self.population
        world = self.world
        block = self.BLOCK
        runs_per_user = pop.runs_per_user
        sites = self._sites
        medians = self._medians
        sigma = world.SIGMA
        rtt_sigma = world.RTT_SIGMA
        uplink_tilt = math.exp(world.UPLINK_LTE_TILT)
        noise_sigma = pop.noise_sigma
        ping_sigma = self.PING_AVG_SIGMA
        non_lte = world.NON_LTE_FRACTION
        single_tech_p = pop.single_tech_p
        wifi_failure_p = pop.wifi_failure_p
        cell_disabled_p = pop.cell_disabled_p
        exp, log, sqrt = math.exp, math.log, math.sqrt
        cos, sin = math.cos, math.sin
        two_pi = 2.0 * math.pi
        # Weighted picks: bisect_right, clamped to the last entry.
        site_cum, op_cum, app_cum = self._site_cum, world._operator_cum, world._app_cum
        last_site, last_op, last_app = (
            len(site_cum) - 1, len(op_cum) - 1, len(app_cum) - 1)
        op_exps = world._operator_exps
        wifi_curve, cell_curve = world.wifi_diurnal, world.cell_diurnal
        wifi_amp, wifi_peak, wifi_coupling = (
            wifi_curve.amplitude, wifi_curve.peak_hour, wifi_curve.rtt_coupling)
        cell_amp, cell_peak, cell_coupling = (
            cell_curve.amplitude, cell_curve.peak_hour, cell_curve.rtt_coupling)
        # Probe tables: 1 MB for both directions, the app's flow size down.
        (mb_cwnds, mb_rtts, mb_drain), mb_bytes = ramp_table(ONE_MBYTE), float(ONE_MBYTE)
        app_tables = [(ramp_table(app.down_bytes), float(app.down_bytes))
                      for app in world.apps]

        columns = [getattr(cols, name) for name in COLUMN_NAMES]
        rows: List[tuple] = []
        current_user = -1
        end = start + count
        while start < end:
            # One run-block stream at a time; its rows are transposed
            # into the columns when the block (or the batch) ends.
            rand = self._stream("runs", start, self.RUN_SLOTS)
            stop = min(end, start - start % block + block)
            for index in range(start, stop):
                (u_hour, u_geo, v_geo, u_rate, v_rate, u_wifi_up, u_cell_up,
                 u_rtt, v_rtt, u_tech, u_single, u_which, u_wifi_fail,
                 u_cell_off, u_wifi, v_wifi, u_cell, v_cell, u_ping, v_ping) = (
                    rand(), rand(), rand(), rand(), rand(), rand(), rand(),
                    rand(), rand(), rand(), rand(), rand(), rand(), rand(),
                    rand(), rand(), rand(), rand(), rand(), rand(),
                )

                # -- user attributes (identical across a user's runs: the
                # attribute stream is keyed on the user alone) ------------
                user, run_of_user = divmod(index, runs_per_user)
                if user != current_user:
                    if user % block == 0 or current_user < 0:
                        user_rand = self._stream("users", user, self.USER_SLOTS)
                    current_user = user
                    site_idx = min(bisect_right(site_cum, user_rand()), last_site)
                    op_idx = min(bisect_right(op_cum, user_rand()), last_op)
                    app_idx = min(bisect_right(app_cum, user_rand()), last_app)
                    hour_base = user_rand() * 24.0
                    site = sites[site_idx]
                    wifi_med, lte_med, wifi_rtt_med, lte_rtt_med = medians[site_idx]
                    op_tput, op_rtt = op_exps[op_idx]
                    (app_cwnds, app_rtts, app_drain), app_bytes = app_tables[app_idx]

                # -- run-level ground truth; world.modifiers inline (a zero
                # amplitude gives a load of +-0.0, and exp(+-0.0) is 1.0)
                hour = (hour_base + 5.0 * run_of_user + 3.0 * u_hour - 1.5) % 24.0
                wifi_load = wifi_amp * cos(two_pi * (hour - wifi_peak) / 24.0)
                cell_load = cell_amp * cos(two_pi * (hour - cell_peak) / 24.0)
                wifi_cap, cell_cap = exp(-wifi_load), op_tput * exp(-cell_load)
                wifi_rtt_m = exp(wifi_coupling * wifi_load)
                cell_rtt_m = op_rtt * exp(cell_coupling * cell_load)
                radius = 0.15 * sqrt(-2.0 * log(1.0 - u_geo))
                lat = site.lat + radius * cos(two_pi * v_geo)
                lon = site.lon + radius * sin(two_pi * v_geo)
                radius = sigma * sqrt(-2.0 * log(1.0 - u_rate))
                wifi_down = wifi_med * wifi_cap * exp(radius * cos(two_pi * v_rate))
                cell_down = lte_med * cell_cap * exp(radius * sin(two_pi * v_rate))
                wifi_up = wifi_down * (0.35 + 0.45 * u_wifi_up)
                cell_up = cell_down * (0.3 + 0.4 * u_cell_up) * uplink_tilt
                radius = rtt_sigma * sqrt(-2.0 * log(1.0 - u_rtt))
                wifi_rtt = (wifi_rtt_med * wifi_rtt_m
                            * exp(radius * cos(two_pi * v_rtt)))
                cell_rtt = (lte_rtt_med * cell_rtt_m
                            * exp(radius * sin(two_pi * v_rtt)))

                if u_tech < non_lte / 2.0:
                    tech = 2  # 3G: legacy cellular, much slower
                    cell_down *= 0.15
                    cell_up *= 0.15
                    cell_rtt *= 2.0
                elif u_tech < non_lte:
                    tech = 1  # HSPA+
                else:
                    tech = 0  # LTE
                wifi_down = wifi_down if wifi_down > 0.1 else 0.1
                wifi_up = wifi_up if wifi_up > 0.05 else 0.05
                cell_down = cell_down if cell_down > 0.1 else 0.1
                cell_up = cell_up if cell_up > 0.05 else 0.05
                wifi_rtt = min(max(5.0, wifi_rtt), 1200.0)
                cell_rtt = min(max(15.0, cell_rtt), 1200.0)

                # -- the Fig. 2 flowchart branches -------------------------
                single = u_single < single_tech_p
                single_cell = single and u_which < 0.5
                wifi_ok = not single_cell and u_wifi_fail >= wifi_failure_p
                cell_ok = (single_cell or not single) and (
                    u_cell_off >= cell_disabled_p
                )

                # -- measured values: per link, the TCP probes (1 MB each
                # way and the app's flow size, same ground truth) with
                # noise; the ping average is one lognormal draw of the mean
                radius = ping_sigma * sqrt(-2.0 * log(1.0 - u_ping))
                # Each probe is estimate_tcp_throughput_mbps inline; the
                # clamps above keep rates and RTTs positive, so its input
                # checks cannot fire.
                if wifi_ok:
                    rtt_s = wifi_rtt / 1000.0
                    rate = wifi_down * 1e6 / 8.0
                    bdp = rate * rtt_s / 1448.0
                    k = bisect_left(mb_cwnds, bdp)
                    down = mb_bytes / (rtt_s * mb_rtts[k] + mb_drain[k] / rate) * 8.0 / 1e6
                    k = bisect_left(app_cwnds, bdp)
                    app_wifi = app_bytes / (rtt_s * app_rtts[k] + app_drain[k] / rate) * 8.0 / 1e6
                    rate = wifi_up * 1e6 / 8.0
                    k = bisect_left(mb_cwnds, rate * rtt_s / 1448.0)
                    up = mb_bytes / (rtt_s * mb_rtts[k] + mb_drain[k] / rate) * 8.0 / 1e6
                    noise = noise_sigma * sqrt(-2.0 * log(1.0 - u_wifi))
                    meas_wifi_down = down * exp(noise * cos(two_pi * v_wifi))
                    meas_wifi_up = up * exp(noise * sin(two_pi * v_wifi))
                    meas_wifi_rtt = wifi_rtt * exp(radius * cos(two_pi * v_ping))
                else:
                    meas_wifi_down = meas_wifi_up = meas_wifi_rtt = app_wifi = 0.0
                if cell_ok:
                    rtt_s = cell_rtt / 1000.0
                    rate = cell_down * 1e6 / 8.0
                    bdp = rate * rtt_s / 1448.0
                    k = bisect_left(mb_cwnds, bdp)
                    down = mb_bytes / (rtt_s * mb_rtts[k] + mb_drain[k] / rate) * 8.0 / 1e6
                    k = bisect_left(app_cwnds, bdp)
                    app_cell = app_bytes / (rtt_s * app_rtts[k] + app_drain[k] / rate) * 8.0 / 1e6
                    rate = cell_up * 1e6 / 8.0
                    k = bisect_left(mb_cwnds, rate * rtt_s / 1448.0)
                    up = mb_bytes / (rtt_s * mb_rtts[k] + mb_drain[k] / rate) * 8.0 / 1e6
                    noise = noise_sigma * sqrt(-2.0 * log(1.0 - u_cell))
                    meas_cell_down = down * exp(noise * cos(two_pi * v_cell))
                    meas_cell_up = up * exp(noise * sin(two_pi * v_cell))
                    meas_cell_rtt = cell_rtt * exp(radius * sin(two_pi * v_ping))
                else:
                    meas_cell_down = meas_cell_up = meas_cell_rtt = app_cell = 0.0

                rows.append((
                    user, site_idx, op_idx, app_idx, hour, lat, lon, tech,
                    wifi_ok, cell_ok,
                    meas_wifi_down, meas_wifi_up, meas_cell_down, meas_cell_up,
                    meas_wifi_rtt, meas_cell_rtt, app_wifi, app_cell,
                ))
            for column, values in zip(columns, zip(*rows)):
                column.extend(values)
            rows.clear()
            start = stop
