"""Single-path TCP: congestion control, sender/receiver engines, flows.

The same machinery backs MPTCP subflows (:mod:`repro.mptcp`); a plain
TCP connection is the one-subflow special case.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "TcpConfig": ".config", "RttEstimator": ".rtt", "BulkSource": ".source",
    "Subflow": ".subflow", "SubflowState": ".subflow",
    "TcpConnection": ".connection", "ConnectionStats": ".connection",
    "CongestionControl": ".cc.base", "Reno": ".cc.reno",
    "Cubic": ".cc.cubic", "LiaCoupling": ".cc.lia", "LiaSubflowCc": ".cc.lia",
})
