"""Mahimahi-analog link emulation.

The paper replays app traffic over emulated WiFi and LTE links using
Mahimahi's trace-driven shells.  This package provides the same
abstractions in-simulator:

* :mod:`repro.linkem.traces` — synthetic LTE/WiFi delivery-opportunity
  traces (Mahimahi file format compatible);
* :mod:`repro.linkem.shells` — :class:`PathSpec` (one emulated
  interface: LinkShell + DelayShell as data) and :func:`mpshell`, the
  MpShell analog; :class:`~repro.workload.Session` is its one caller;
* :mod:`repro.linkem.conditions` — :class:`ConditionSpec` (one
  location's interfaces) and the registry of 20 emulated network
  conditions standing in for the paper's Table 2 locations.

>>> from repro.linkem import make_conditions
>>> from repro.workload import Session
>>> with Session().network(make_conditions()[0], 7, "demo") as scenario:
...     sorted(scenario.path_names)
['lte', 'wifi']
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "synth_lte_trace": ".traces", "synth_wifi_trace": ".traces",
    "PathSpec": ".shells", "mpshell": ".shells",
    "ConditionSpec": ".conditions", "TABLE2_LOCATIONS": ".conditions",
    "make_conditions": ".conditions",
})
