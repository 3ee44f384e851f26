"""Analysis toolkit: CDFs, paper metrics, timelines, and reports."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "Cdf": ".cdf", "SketchCdf": ".cdf",
    "QuantileSketch": ".sketch", "LabeledCounters": ".sketch",
    "median": ".stats", "percentile": ".stats",
    "relative_difference": ".stats", "relative_ratio": ".stats",
    "fraction_below": ".stats", "fraction_above": ".stats",
    "average_throughput_series": ".throughput",
    "instantaneous_throughput_series": ".throughput",
    "ascii_cdf": ".plotting", "ascii_series": ".plotting",
    "ascii_timeline": ".plotting",
    "Table": ".report",
    "BootstrapResult": ".bootstrap", "bootstrap_ci": ".bootstrap",
    "jain_fairness_index": ".bootstrap",
    "write_dat": ".export", "write_series_files": ".export",
    "gnuplot_script": ".export",
})
