"""Core simulation substrate: event loop, packets, RNG streams, units.

Everything in :mod:`repro` that needs simulated time runs on top of
:class:`~repro.core.events.EventLoop`.  The loop is a plain
discrete-event scheduler: components register callbacks at absolute or
relative simulated times, and the loop executes them in timestamp order.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "ReproError": ".errors", "SimulationError": ".errors",
    "ConfigurationError": ".errors", "TraceFormatError": ".errors",
    "EventLoop": ".events", "Event": ".events", "Timer": ".events",
    "Packet": ".packet", "PacketFlags": ".packet",
    "RngStreams": ".rng", "DEFAULT_SEED": ".rng",
    "units": ".units",
})
