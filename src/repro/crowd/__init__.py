"""Synthetic Cell vs WiFi crowdsourced dataset (paper §2).

The paper's dataset came from 750 users of the *Cell vs WiFi* Android
app across 16 countries.  The dataset itself is not redistributable
here, so this package provides a *world model*: per-location WiFi/LTE
condition distributions calibrated against every aggregate the paper
publishes (Table 1 run counts and LTE-win percentages, the Fig. 3
throughput-difference CDFs, the Fig. 4 RTT-difference CDF), plus one
generator that walks the app's measurement-collection flowchart
(Fig. 2) for every run, partial runs included, so the §2.2 filters
have something to filter.

The layers: :class:`CrowdWorld` is the calibrated world with
operator/diurnal/app heterogeneity, :class:`PopulationSpec` describes
a synthetic population, :class:`CrowdSampler` draws its runs, and
:func:`simulate` runs it at any size — vectorized sampling into
streaming sketches, sharded across the sweep engine.
:func:`table1_runs` reads the paper's 2104-run dataset off the front
of the default population.
"""

from repro.crowd.geo import GeoPoint, haversine_km
from repro.crowd.world import CrowdWorld, SiteProfile, TABLE1_SITES
from repro.crowd.dataset import Dataset, MeasurementRun
from repro.crowd.kmeans import GeoCluster, cluster_runs
from repro.crowd.operators import AppProfile, DiurnalCurve, OperatorProfile
from repro.crowd.sampling import CrowdSampler, PopulationSpec, RunColumns
from repro.crowd.aggregate import CrowdSketch, SketchSink, make_sink
from repro.crowd.pipeline import CrowdResult, simulate, table1_runs

__all__ = [
    "GeoPoint",
    "haversine_km",
    "SiteProfile",
    "TABLE1_SITES",
    "CrowdWorld",
    "MeasurementRun",
    "Dataset",
    "GeoCluster",
    "cluster_runs",
    "OperatorProfile",
    "DiurnalCurve",
    "AppProfile",
    "CrowdSampler",
    "PopulationSpec",
    "RunColumns",
    "CrowdSketch",
    "SketchSink",
    "make_sink",
    "CrowdResult",
    "simulate",
    "table1_runs",
]
