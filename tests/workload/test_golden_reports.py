"""Golden reports: the packet engine's answers, pinned across commits.

Every spec below is run at packet fidelity with a fixed seed and its
``TransferReport.to_dict()`` is digested the way the performance
ledger digests results (sha256 of canonical JSON).  The digests were
recorded *before* the packet-core hot-path rewrite (events heap,
slotted packets, interval reassembly, SACK scoreboard) and must never
move for a change that claims "same events, same order": a drift here
is a behavioural change in ``core``/``net``/``tcp``/``mptcp``, not
noise.  Re-record (``python tests/workload/test_golden_reports.py``)
only for a change that *means* to alter the simulation, and say so.
"""

import hashlib
import json

import pytest

from repro.experiments.common import MPTCP_VARIANTS
from repro.faults.spec import FaultEvent, FaultSpec
from repro.workload import ConditionSpec, PathSpec, Session, TransferSpec

#: A clean fixed-rate location and a lossy trace-driven one.
FIXED = ConditionSpec(condition_id=901, paths=(
    PathSpec(name="wifi", technology="wifi", down_mbps=3.0, up_mbps=1.2,
             rtt_ms=28.0, queue_packets=12),
    PathSpec(name="lte", technology="lte", down_mbps=2.0, up_mbps=0.8,
             rtt_ms=72.0, queue_packets=16),
))
TRACED = ConditionSpec(condition_id=902, paths=(
    PathSpec(name="wifi", technology="wifi", down_mbps=5.0, up_mbps=2.0,
             rtt_ms=40.0, loss_rate=0.015, queue_packets=25,
             trace_driven=True, temporal_sigma=0.2),
    PathSpec(name="lte", technology="lte", down_mbps=7.0, up_mbps=1.5,
             rtt_ms=85.0, loss_rate=0.008, queue_packets=60,
             trace_driven=True, temporal_sigma=0.2),
))

WARM_START = {"initial_ssthresh_segments": 12}


def _faults(**event) -> FaultSpec:
    return FaultSpec(events=(FaultEvent(**event),))


def _mptcp(label, nbytes=120_000, condition=FIXED, primary="wifi",
           cc="coupled", seed=17, **kwargs) -> TransferSpec:
    return TransferSpec(kind="mptcp", condition=condition, nbytes=nbytes,
                        primary=primary, cc=cc, seed=seed, label=label,
                        **kwargs)


def golden_specs():
    specs = []
    for tag, condition in (("fixed", FIXED), ("traced", TRACED)):
        for direction in ("down", "up"):
            # One upload rides LTE; the lossy WiFi uplink is where
            # cubic and reno uploads come apart.
            path = "lte" if (tag, direction) == ("fixed", "up") else "wifi"
            for cc in ("cubic", "reno"):
                specs.append(TransferSpec(
                    kind="tcp", condition=condition, nbytes=200_000,
                    path=path, direction=direction, cc=cc, seed=11,
                    label=f"tcp.{tag}.{direction}.{cc}",
                ))
        # Cold start on the fixed-rate location (slow-start overshoot,
        # SACK recovery, an RTO); warm start on the lossy one, where
        # LIA and Reno part ways in congestion avoidance.
        config = WARM_START if condition is TRACED else None
        for _, primary, cc in MPTCP_VARIANTS:
            specs.append(_mptcp(f"mptcp.{tag}.{primary}.{cc}",
                                nbytes=300_000, condition=condition,
                                primary=primary, cc=cc, seed=13,
                                config=config))
    specs += [
        _mptcp("backup.blackhole", options={"mode": "backup"},
               deadline_s=20.0,
               faults=_faults(kind="blackhole", path="wifi", at_s=0.12)),
        _mptcp("singlepath.iface_down", options={"mode": "singlepath"},
               faults=_faults(kind="iface_down", path="wifi", at_s=0.12)),
        _mptcp("rate_collapse", faults=_faults(
            kind="rate_collapse", path="wifi", at_s=0.1, duration_s=0.6,
            factor=0.1)),
        _mptcp("delay_spike", faults=_faults(
            kind="delay_spike", path="lte", at_s=0.15, duration_s=0.3,
            extra_delay_s=0.25)),
        _mptcp("burst_loss", condition=TRACED, faults=_faults(
            kind="burst_loss", path="wifi", at_s=0.05, duration_s=1.5,
            p_good_to_bad=0.05, p_bad=0.5)),
        _mptcp("redundant", options={"scheduler": "redundant"}),
        _mptcp("roundrobin", condition=TRACED,
               options={"scheduler": "roundrobin"}),
        _mptcp("subflows_per_path", options={"subflows_per_path": 2}),
        _mptcp("delayed_acks", config={"delayed_acks": True}),
        _mptcp("rwnd16k", condition=TRACED,
               config={"receive_window_bytes": 16 * 1024}),
        _mptcp("iw1", nbytes=10 * 1024,
               config={"initial_cwnd_segments": 1}),
    ]
    return specs


def report_digest(spec: TransferSpec) -> str:
    payload = Session().run(spec).to_dict()
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


#: label -> digest, recorded at commit 97e4edc (the parent of the
#: packet-core hot-path change).
GOLDEN = {
    "tcp.fixed.down.cubic":
        "7324d9230aec752d97a105e906a49648b2aebb491d3d70d8cf072230df34e885",
    "tcp.fixed.down.reno":
        "1764c70044104ce714808f02605a04a9e892fabccc5295b377599b3e739de1ad",
    "tcp.fixed.up.cubic":
        "9c181c2c848edffe0a0415482c950f3386b37bc6dc0239b4c9207e868aed7f43",
    "tcp.fixed.up.reno":
        "a610d34dadc32aaa0487158cd3325213a0c88772a827ff09550bed7d638b4911",
    "mptcp.fixed.lte.decoupled":
        "359e8a63c968cb70f7e00a3ecfdf445a832e6b4f3f2320352e5fcd1688dc5a37",
    "mptcp.fixed.wifi.decoupled":
        "276ddd2adcc3e709c1d616dc7209fcdbd27eca54c2dd01f2e416ed4a0dc9789d",
    "mptcp.fixed.lte.coupled":
        "00a91cd3f2a18d66a009754627543d9fc8ea8a57dec30c698b893afc7f955081",
    "mptcp.fixed.wifi.coupled":
        "83e55babfe160997afa568e48acc320a745ea434b063398f14303f93b1db183a",
    "tcp.traced.down.cubic":
        "05e71c71967637976d4eeb79c493555a6ff10578cb999b08bafc95953ad157c9",
    "tcp.traced.down.reno":
        "36c02041d082e297b1d03dd61f8114661acffd2a3eae055361937db9609418fe",
    "tcp.traced.up.cubic":
        "4f52742a4c42ba8a6b65e1b777ae059b5754d4236dfaf4391868a8d1758fd39a",
    "tcp.traced.up.reno":
        "56f81610b3e83a40a71f066cab3eb5f1dfdf26569476c81860a0f76efe1c78e2",
    "mptcp.traced.lte.decoupled":
        "7a08c58fafb7426b3e381847512947ddfe4ed56428e39e0bf5f6f25ace14347a",
    "mptcp.traced.wifi.decoupled":
        "1fc946ebb9352da3b71ae5aafbfad385671393efa386230857d5afdc34dffcc0",
    "mptcp.traced.lte.coupled":
        "88484ed097b38a033af0b0ecc13900810b4bb983dd5a19baf906618905232401",
    "mptcp.traced.wifi.coupled":
        "d83b8f92611f37d17b78821cd3e67656beb63ad75d4bc0beb8dc07fd22fd892c",
    "backup.blackhole":
        "addab59a2d7d3dad7768e254b65d57ce26b527585e5219cf7153c775d9ec5bbb",
    "singlepath.iface_down":
        "4bb9a1421647ee31ddbf0f23df99400e6511698c2fc650a55eae580745bec144",
    "rate_collapse":
        "9f91125642334634372cb599c03364e7c33f930ce631110928ec0686608dccb6",
    "delay_spike":
        "721e34c4ea68e066c543065f0938303ad9cdbba9f6907440f0fb50d27b0ed10a",
    "burst_loss":
        "19bac54eed5d756b05b2e20181944d585d35e86933a59e63a487eaecb382fe23",
    "redundant":
        "fe2e81178236c847f3c6ebc12c089fd2dfd59cd54a0f773c635d8a184a33b204",
    "roundrobin":
        "94f4267b4495359853e35e0e73c66fb1593d9147c9f856341d37a9e9c18b6122",
    "subflows_per_path":
        "98c189d28cd7f0e43b31411972160b5fa843c8a8b8c50cd708b118303d7ff2bd",
    "delayed_acks":
        "5e6ae8a0ff6fd5be312341f3d7748d3d65e2657280a2104eeb926d6df6143091",
    "rwnd16k":
        "bad1713b13fcf90c62e36e60453c3bee0974693c81d271eb532cfa4e122ba98d",
    "iw1":
        "be7f48390fa98921c661331fc11c082bdaf6eab628f2a0d4194c1fd6d85ea0fa",
}


def test_every_spec_is_pinned():
    assert sorted(GOLDEN) == sorted(spec.label for spec in golden_specs())


@pytest.mark.parametrize("spec", golden_specs(), ids=lambda spec: spec.label)
def test_report_digest_is_unchanged(spec):
    assert report_digest(spec) == GOLDEN[spec.label]


if __name__ == "__main__":  # re-record: prints the GOLDEN table
    for golden_spec in golden_specs():
        print(f'    "{golden_spec.label}":\n'
              f'        "{report_digest(golden_spec)}",')
