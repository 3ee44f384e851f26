"""repro — reproduction of "WiFi, LTE, or Both?" (Deng et al., IMC 2014).

A packet-level discrete-event reproduction of the paper's measurement
apparatus: single-path TCP and MPTCP stacks, Mahimahi-style link
emulation, an LTE/WiFi radio energy model, a synthetic Cell-vs-WiFi
crowdsourced dataset, and an HTTP record/replay engine — plus one
experiment module per table and figure in the paper.

Quickstart
----------
>>> from repro import Scenario, PathConfig, MptcpOptions
>>> sc = Scenario()
>>> _ = sc.add_path(PathConfig(name="wifi", down_mbps=10, up_mbps=5, rtt_ms=40))
>>> _ = sc.add_path(PathConfig(name="lte", down_mbps=15, up_mbps=8, rtt_ms=70))
>>> conn = sc.mptcp(total_bytes=1_000_000,
...                 options=MptcpOptions(primary="wifi",
...                                      congestion_control="decoupled"))
>>> result = sc.run_transfer(conn)
>>> result.completed
True
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "DEFAULT_SEED": ".core.rng",
    "PathConfig": ".net.path",
    "DeliveryTrace": ".net.trace",
    "TcpConfig": ".tcp.config",
    "TcpConnection": ".tcp.connection",
    "MptcpConnection": ".mptcp.connection", "MptcpOptions": ".mptcp.connection",
    "Scenario": ".scenario", "TransferResult": ".scenario",
})
__all__.append("__version__")
