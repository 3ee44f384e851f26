"""Multipath TCP over multiple client interfaces.

The model matches the Linux MPTCP v0.88 implementation measured in the
paper: the *primary subflow* is established first on the interface
chosen by the client; the second interface joins (MP_JOIN) only after
the primary handshake completes.  Congestion control is either
*decoupled* (independent Reno per subflow) or *coupled* (RFC 6356 LIA),
and the connection runs in Full-MPTCP, Backup, or Single-Path mode.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "Scheduler": ".scheduler", "MinRttScheduler": ".scheduler",
    "RoundRobinScheduler": ".scheduler", "make_scheduler": ".scheduler",
    "MptcpConnection": ".connection", "MptcpOptions": ".connection",
})
