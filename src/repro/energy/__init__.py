"""Radio energy models (paper §3.6, Fig. 16).

The paper measured tethered phones with a Monsoon power monitor; we
reproduce the observable structure instead: radio power-state machines
driven by the simulator's packet timeline.  The decisive LTE behaviour
is the ~15 s high-power *tail* after any activity — even a lone SYN or
FIN — which is why Backup mode saves almost no energy for flows
shorter than 15 s.
"""

from repro.energy.states import RadioPowerModel, LTE_POWER_MODEL, WIFI_POWER_MODEL, BASE_POWER_W
from repro.energy.monitor import PowerMonitor, InterfaceActivityLog, activity_logs

__all__ = [
    "RadioPowerModel",
    "LTE_POWER_MODEL",
    "WIFI_POWER_MODEL",
    "BASE_POWER_W",
    "PowerMonitor",
    "InterfaceActivityLog",
    "activity_logs",
]
