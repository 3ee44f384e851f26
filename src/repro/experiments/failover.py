"""Failover under injected faults: the Fig. 15 story as declarative data.

Fig. 15 injects its unplug/multipath-off events as fault schedules
into one live scenario per panel, to capture per-interface packet
activity.  This experiment sweeps the same failure modes on the same
testbed — plus two degradations the paper's testbed could not script
(bursty loss, capacity collapse) — as transfer specs: every schedule is a
:class:`~repro.faults.spec.FaultSpec` attached to a
:class:`~repro.workload.spec.TransferSpec`, so the whole campaign is
JSON-shaped data, sweeps through the hardened engine, and is
bit-identical for any ``--workers`` count.

Scenarios:

* ``blackhole`` — Backup mode (LTE primary); the LTE phone is silently
  unplugged at t = 2 s and replugged at t = 32 s.  Nothing signals the
  stack (Fig. 15g): the transfer stalls for the whole hole, then
  resumes once the hole clears.
* ``blackhole_failover`` — Backup mode (WiFi primary); WiFi blackholes
  at t = 2 s and never comes back.  With a mobile-stack retry budget
  the primary subflow exhausts its data retries, the connection fails
  over to the LTE backup, and the transfer completes.
* ``iface_down`` — Backup mode (WiFi primary); WiFi is removed *with*
  the explicit admin signal at t = 2 s (Fig. 15h): the backup takes
  over within a couple of RTOs and the transfer completes.
* ``burst_loss`` — single-path TCP through a Gilbert–Elliott bursty
  channel for 10 s: completes, but with clearly more retransmissions
  than the clean baseline.
* ``rate_collapse`` — single-path TCP whose link drops to 10 % of its
  provisioned rate for 10 s: completes, but takes longer than the
  clean baseline.
"""

from typing import Dict, List, Tuple

from repro.core.rng import DEFAULT_SEED
from repro.experiments.common import (
    Claim,
    ExperimentResult,
    _SESSION,
    mptcp_spec,
    register,
    tcp_spec,
)
from repro.experiments.fig15 import RTO_CLAMP, TESTBED
from repro.faults.spec import FaultEvent, FaultSpec
from repro.tcp.config import TcpConfig
from repro.workload.report import TransferReport
from repro.workload.spec import TransferSpec

__all__ = ["run", "build_specs"]

MB = 1024 * 1024

#: Aggressive mobile retry budget: the primary subflow gives up on a
#: blackholed path within a few seconds so failover is observable
#: inside one experiment run (Linux would take minutes at defaults).
_FAST_FAILOVER = TcpConfig(max_rto_s=4.0, max_data_retries=6)


def build_specs(seed: int, fast: bool = False) -> List[TransferSpec]:
    """The five transfers (clean baseline + four fault scenarios)."""
    nbytes = (1 * MB) if fast else (2 * MB)
    specs = [
        tcp_spec(TESTBED, "wifi", nbytes, seed=seed, deadline_s=120.0,
                 label="baseline"),
        mptcp_spec(
            TESTBED, "lte", "decoupled", nbytes, seed=seed,
            deadline_s=120.0, options={"mode": "backup"}, config=RTO_CLAMP,
            label="blackhole",
        ).with_faults(FaultSpec(
            label="silent LTE unplug (Fig. 15g)",
            events=(FaultEvent(kind="blackhole", path="lte", at_s=2.0,
                               duration_s=30.0),),
        )),
        mptcp_spec(
            TESTBED, "wifi", "decoupled", nbytes, seed=seed,
            deadline_s=120.0, options={"mode": "backup"},
            config=_FAST_FAILOVER, label="blackhole_failover",
        ).with_faults(FaultSpec(
            label="permanent WiFi blackhole, retry-exhaustion failover",
            events=(FaultEvent(kind="blackhole", path="wifi", at_s=2.0),),
        )),
        mptcp_spec(
            TESTBED, "wifi", "decoupled", nbytes, seed=seed,
            deadline_s=120.0, options={"mode": "backup"}, config=RTO_CLAMP,
            label="iface_down",
        ).with_faults(FaultSpec(
            label="detected WiFi removal (Fig. 15h)",
            events=(FaultEvent(kind="iface_down", path="wifi", at_s=2.0),),
        )),
        tcp_spec(
            TESTBED, "wifi", nbytes, seed=seed, deadline_s=120.0,
            label="burst_loss",
        ).with_faults(FaultSpec(
            label="Gilbert-Elliott burst loss",
            events=(FaultEvent(kind="burst_loss", path="wifi", at_s=1.0,
                               duration_s=10.0, p_good_to_bad=0.02,
                               p_bad_to_good=0.2, p_bad=0.3),),
        )),
        tcp_spec(
            TESTBED, "wifi", nbytes, seed=seed, deadline_s=120.0,
            label="rate_collapse",
        ).with_faults(FaultSpec(
            label="capacity collapse to 10%",
            events=(FaultEvent(kind="rate_collapse", path="wifi", at_s=1.0,
                               duration_s=10.0, factor=0.1),),
        )),
    ]
    return specs


def _progress_between(report: TransferReport, t0: float, t1: float) -> int:
    """In-order bytes delivered within ``(t0, t1]``."""
    log = report.delivery_log
    return log.delivered_by(t1) - log.delivered_by(t0)


def _outcome_line(report: TransferReport) -> str:
    if report.completed:
        outcome = (f"{report.duration_s:8.3f} s  "
                   f"{report.throughput_mbps:6.2f} Mbit/s")
    else:
        outcome = "did not complete before the deadline"
    edges = ", ".join(
        f"{entry['edge']} {entry['kind']}@{entry['t']:g}s"
        for entry in report.faults
    ) or "no faults"
    return f"  {report.label:14s} {outcome}   [{edges}]"


@register("failover", flow_capable=True)
def run(seed: int = DEFAULT_SEED, fast: bool = False) -> ExperimentResult:
    specs = build_specs(seed, fast=fast)
    reports = _SESSION.run_many(specs)
    by_label: Dict[str, Tuple[TransferSpec, TransferReport]] = {
        spec.key(): (spec, report) for spec, report in zip(specs, reports)
    }

    baseline = by_label["baseline"][1]
    blackhole = by_label["blackhole"][1]
    failover = by_label["blackhole_failover"][1]
    iface_down = by_label["iface_down"][1]
    burst = by_label["burst_loss"][1]
    collapse = by_label["rate_collapse"][1]

    metrics: Dict[str, float] = {
        "baseline_completed": float(baseline.completed),
        # Silent blackhole: zero delivery progress while the hole is
        # open (t in (4, 30]), then recovery once it clears at t=32.
        # Like Fig. 15g, recovery is about *resuming*, not finishing.
        "blackhole_stalled": float(
            _progress_between(blackhole, 4.0, 30.0) == 0
        ),
        "blackhole_resumes": float(
            _progress_between(blackhole, 32.0, 120.0) > 0
        ),
        "blackhole_fault_edges": float(len(blackhole.faults)),
        "blackhole_failover_completed": float(failover.completed),
        "iface_down_completed": float(iface_down.completed),
        "iface_down_fault_edges": float(len(iface_down.faults)),
        "burst_loss_completed": float(burst.completed),
        "burst_loss_extra_retransmits": float(
            burst.retransmits - baseline.retransmits
        ),
        "rate_collapse_completed": float(collapse.completed),
        "rate_collapse_slowdown_s": (
            (collapse.duration_s or 0.0) - (baseline.duration_s or 0.0)
        ),
    }
    claims = [
        Claim.within(metric, value)
        for metric, value in (("baseline_completed", 1.0),
                              ("blackhole_stalled", 1.0),
                              ("blackhole_resumes", 1.0),
                              ("blackhole_fault_edges", 2.0),
                              ("blackhole_failover_completed", 1.0),
                              ("iface_down_completed", 1.0),
                              ("burst_loss_completed", 1.0),
                              ("rate_collapse_completed", 1.0))
    ]
    body = "\n".join(_outcome_line(report) for report in reports)
    return ExperimentResult(
        experiment_id="failover",
        title="Failover and degradation under declarative fault schedules",
        body=body,
        metrics=metrics,
        claims=claims,
    )
