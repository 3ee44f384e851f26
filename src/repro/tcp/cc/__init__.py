"""Congestion-control algorithms.

* :class:`Reno` — classic slow start + AIMD; also the per-subflow
  algorithm of "decoupled" MPTCP in the paper (footnote 5: "the
  decoupled congestion control uses TCP Reno for each subflow").
* :class:`Cubic` — Linux's default for single-path TCP.
* :class:`LiaCoupling` / :class:`LiaSubflowCc` — the coupled Linked
  Increases Algorithm (RFC 6356) used by "coupled" MPTCP.
* :class:`OliaCoupling` — the opportunistic LIA variant (Khalili et
  al., CoNEXT'12), provided as an extension.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "CongestionControl": ".base", "Reno": ".reno", "Cubic": ".cubic",
    "LiaCoupling": ".lia", "LiaSubflowCc": ".lia",
    "OliaCoupling": ".olia", "OliaSubflowCc": ".olia",
    "CC_REGISTRY": ".registry", "CcEntry": ".registry", "cc_entry": ".registry",
    "cc_names": ".registry", "register_cc": ".registry",
    "single_path_factory": ".registry", "unknown_cc_error": ".registry",
    "validate_cc": ".registry",
})
