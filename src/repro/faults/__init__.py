"""Declarative, seed-deterministic fault injection.

The paper's most interesting MPTCP findings (§3.6, Fig. 15, Backup
mode) are about *failure dynamics*: silent blackholes vs explicit
interface removal, failover round trips, reinjection.  This package
describes such episodes as data — frozen, validated,
JSON-round-trippable :class:`FaultSpec` schedules, exactly like
:mod:`repro.workload` specs — and interprets them against a live
scenario through a :class:`FaultInjector`.

Determinism contract: a fault schedule is pure data; every random
choice it needs (the Gilbert–Elliott episode) draws from a named
:class:`~repro.core.rng.RngStreams` stream keyed by the event's index
and path, never by wall-clock or worker identity.  Identical
``FaultSpec`` + seed therefore yields bit-identical transfers for any
``--workers`` count.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "AppliedFault": ".injector", "FaultInjector": ".injector",
    "FAULT_KINDS": ".spec", "FaultEvent": ".spec", "FaultSpec": ".spec",
})
