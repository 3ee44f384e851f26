"""Radio energy models (paper §3.6, Fig. 16).

The paper measured tethered phones with a Monsoon power monitor; we
reproduce the observable structure instead: radio power-state machines
driven by the simulator's packet timeline.  The decisive LTE behaviour
is the ~15 s high-power *tail* after any activity — even a lone SYN or
FIN — which is why Backup mode saves almost no energy for flows
shorter than 15 s.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "RadioPowerModel": ".states", "LTE_POWER_MODEL": ".states",
    "WIFI_POWER_MODEL": ".states", "BASE_POWER_W": ".states",
    "PowerMonitor": ".monitor", "InterfaceActivityLog": ".monitor",
    "activity_logs": ".monitor",
})
