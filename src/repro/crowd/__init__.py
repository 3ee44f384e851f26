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

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "GeoPoint": ".geo", "haversine_km": ".geo",
    "SiteProfile": ".world", "TABLE1_SITES": ".world", "CrowdWorld": ".world",
    "MeasurementRun": ".dataset", "Dataset": ".dataset",
    "GeoCluster": ".kmeans", "cluster_runs": ".kmeans",
    "OperatorProfile": ".operators", "DiurnalCurve": ".operators",
    "AppProfile": ".operators",
    "CrowdSampler": ".sampling", "PopulationSpec": ".sampling",
    "RunColumns": ".sampling",
    "CrowdSketch": ".aggregate", "SketchSink": ".aggregate",
    "make_sink": ".aggregate",
    "CrowdResult": ".pipeline", "simulate": ".pipeline",
    "table1_runs": ".pipeline",
})
