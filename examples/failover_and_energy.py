#!/usr/bin/env python3
"""MPTCP Backup mode: failover behaviour and the LTE tail-energy trap.

Part 1 replays the paper's §3.6 failure scenarios — iproute
"multipath off" vs physically unplugging the phone — and prints packet
timelines for both interfaces.

Part 2 quantifies §3.6.2: because a lone SYN/FIN pins the LTE radio in
its ~15 s high-power tail, making LTE the backup interface saves very
little energy for flows shorter than the tail.

Run:  python examples/failover_and_energy.py
"""

from repro import MptcpOptions, PathConfig, Scenario
from repro.analysis.plotting import ascii_timeline
from repro.analysis.report import Table
from repro.energy import (
    InterfaceActivityLog,
    LTE_POWER_MODEL,
    PowerMonitor,
    WIFI_POWER_MODEL,
)
from repro.faults import FaultEvent, FaultSpec

MB = 1024 * 1024


def build(seed=1):
    scenario = Scenario(seed=seed)
    scenario.add_path(PathConfig(name="wifi", down_mbps=2.0, up_mbps=1.0,
                                 rtt_ms=50))
    scenario.add_path(PathConfig(name="lte", down_mbps=2.5, up_mbps=1.2,
                                 rtt_ms=80, queue_packets=500))
    logs = {name: InterfaceActivityLog(scenario.path(name))
            for name in ("wifi", "lte")}
    return scenario, logs


def run_failure_scenario(title, fault, horizon_s=40.0):
    scenario, logs = build()
    options = MptcpOptions(primary="lte", congestion_control="decoupled",
                           mode="backup")
    connection = scenario.mptcp(4 * MB, options=options)
    scenario.inject_faults(FaultSpec(events=(fault,)))
    connection.start()
    connection.close()
    scenario.run(until=horizon_s)
    print(f"--- {title} ---")
    print(ascii_timeline(
        {"LTE": logs["lte"].activity_times,
         "WiFi": logs["wifi"].activity_times},
        0.0, horizon_s,
    ))
    status = "completed" if connection.complete else "STALLED"
    print(f"    transfer {status}; "
          f"{connection.bytes_delivered / MB:.1f} / 4.0 MB delivered\n")


def energy_study():
    print("--- LTE radio energy: active vs backup interface ---")
    table = Table(["flow duration (s)", "LTE active (J)", "LTE backup (J)",
                   "energy saved"])
    for target_s in (3, 8, 15, 30, 60):
        nbytes = int(2e6 / 8 * target_s)
        energies = {}
        for primary, role in (("lte", "active"), ("wifi", "backup")):
            scenario, logs = build()
            options = MptcpOptions(primary=primary, mode="backup",
                                   congestion_control="decoupled")
            connection = scenario.mptcp(nbytes, options=options)
            connection.start()
            connection.close()
            scenario.run(until=target_s + 40.0)
            end = (connection.completed_at or target_s) + LTE_POWER_MODEL.tail_s
            energies[role] = PowerMonitor(
                logs["lte"], LTE_POWER_MODEL).radio_energy_j(0.0, end)
        saving = 1.0 - energies["backup"] / energies["active"]
        table.add_row([target_s, energies["active"], energies["backup"],
                       f"{100 * saving:.0f}%"])
    print(table.render())
    print("\nShort flows save little: the SYN/FIN wakeups alone keep the")
    print("LTE radio in its 15-second tail for most of the transfer.")


def main() -> None:
    run_failure_scenario(
        "iproute 'multipath off' on LTE at t=9s (stack notified, fails over)",
        FaultEvent("iface_down", "lte", at_s=9.0),
    )
    run_failure_scenario(
        "LTE phone unplugged at t=3s (silent blackhole, transfer stalls)",
        FaultEvent("blackhole", "lte", at_s=3.0),
    )
    energy_study()


if __name__ == "__main__":
    main()
