"""Network substrate: queues, links, loss models, paths.

These components implement the data plane the transport stacks run
over.  A :class:`~repro.net.path.Path` bundles an uplink and a downlink
(:class:`~repro.net.link.Link` subclasses), each with a DropTail queue,
a rate model (fixed-rate or Mahimahi-style delivery-opportunity trace),
a propagation delay, and an optional stochastic loss model.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "DropTailQueue": ".queue", "QueueStats": ".queue",
    "LossModel": ".loss", "NoLoss": ".loss", "BernoulliLoss": ".loss",
    "GilbertElliottLoss": ".loss",
    "DeliveryTrace": ".trace",
    "Link": ".link", "FixedRateLink": ".link", "TraceDrivenLink": ".link",
    "Path": ".path", "PathConfig": ".path",
})
