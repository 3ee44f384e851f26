"""Adaptive network/transport selection (the paper's §7 future work).

The paper closes with open questions: *"how can we automatically
decide when to use single path TCP and when to use MPTCP?  How should
we decide which network to use for TCP, or which network to use for a
subflow with MPTCP?"*  This package builds that decision layer on top
of the reproduction's substrate:

* :mod:`repro.policy.probes` — lightweight active measurements (pings
  and short probe transfers) a client can afford before choosing;
* :mod:`repro.policy.estimator` — per-path condition estimates with
  exponential aging;
* :mod:`repro.policy.policies` — selection policies: the static ones
  mobile OSes shipped (always-WiFi), the paper-informed adaptive rule,
  and oracle upper bounds;
* :mod:`repro.policy.evaluation` — a harness comparing policies across
  the 20 emulated locations and flow sizes.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "PathProbe": ".probes", "ProbeReport": ".probes",
    "PathEstimate": ".estimator", "ConditionEstimator": ".estimator",
    "Decision": ".policies", "SelectionPolicy": ".policies",
    "AlwaysWifiPolicy": ".policies", "AlwaysMptcpPolicy": ".policies",
    "BestPathPolicy": ".policies", "PaperAdaptivePolicy": ".policies",
    "OraclePolicy": ".policies", "STANDARD_POLICIES": ".policies",
    "PolicyEvaluation": ".evaluation", "evaluate_policies": ".evaluation",
})
