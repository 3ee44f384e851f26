"""Golden flow reports: the flow engine's answers, pinned across commits.

The flow-fidelity twin of ``tests/workload/test_golden_reports.py``:
every spec below is run at ``fidelity="flow"`` with a fixed seed and
its ``TransferReport.to_dict()`` is digested the way the performance
ledger digests results (sha256 of canonical JSON); for five of them the
recorder's event list is digested too, so traced output is pinned and
traced ≡ untraced stays asserted.  The digests were recorded *before*
the flow-engine hot-path rewrite (per-epoch share terms, flat
breakpoint loop, registry-free report) and must never move for a change
that claims "same breakpoints, same arithmetic": a drift here is a
behavioural change in ``repro.flow``, not noise.  Re-record
(``PYTHONPATH=src python -m tests.flow.test_golden_flow`` from the repo
root) only for a change that *means* to alter the model, and say so.
"""

import hashlib
import json

import pytest

from repro.experiments.common import MPTCP_VARIANTS
from repro.faults.spec import FaultEvent, FaultSpec
from repro.obs.trace import TraceRecorder
from repro.workload import ConditionSpec, PathSpec, Session, TransferSpec
from tests.workload.test_golden_reports import FIXED, TRACED

#: Three interfaces: per-subflow sums are order-sensitive from three
#: addends on (CPython >= 3.12 compensates ``sum()``, 3.10/3.11 do not),
#: so this spec is the one the CI version matrix has to agree on.
THREE_PATHS = ConditionSpec(condition_id=903, paths=(
    PathSpec(name="wifi", technology="wifi", down_mbps=6.3, up_mbps=2.1,
             rtt_ms=31.0, loss_rate=0.004, queue_packets=40),
    PathSpec(name="lte", technology="lte", down_mbps=4.7, up_mbps=1.3,
             rtt_ms=67.0, loss_rate=0.011, queue_packets=90),
    PathSpec(name="lte2", technology="lte", down_mbps=2.9, up_mbps=0.7,
             rtt_ms=93.0, queue_packets=150),
))

SIZES = {"30KB": 30_000, "1MB": 1_000_000, "4MB": 4_000_000}

#: Labels whose recorder event list is pinned as well.
TRACED_LABELS = ("mptcp.traced.down.1MB.wifi.coupled", "backup.failover",
                 "fault.burst_loss", "three_paths",
                 "singlepath.three_paths.failover")


def _faults(*events) -> FaultSpec:
    return FaultSpec(events=tuple(FaultEvent(**event) for event in events))


def _mptcp(label, nbytes=1_000_000, condition=FIXED, primary="wifi",
           cc="coupled", **kwargs) -> TransferSpec:
    return TransferSpec(kind="mptcp", condition=condition, nbytes=nbytes,
                        primary=primary, cc=cc, seed=19, label=label,
                        fidelity="flow", **kwargs)


def golden_specs():
    specs = []
    for tag, condition in (("fixed", FIXED), ("traced", TRACED)):
        for direction in ("down", "up"):
            for size, nbytes in SIZES.items():
                stem = f"{tag}.{direction}.{size}"
                specs.append(TransferSpec(
                    kind="tcp", condition=condition, nbytes=nbytes,
                    path="wifi", direction=direction, cc="cubic", seed=19,
                    label=f"tcp.{stem}", fidelity="flow",
                ))
                for _, primary, cc in MPTCP_VARIANTS:
                    specs.append(_mptcp(
                        f"mptcp.{stem}.{primary}.{cc}", nbytes=nbytes,
                        condition=condition, primary=primary, cc=cc,
                        direction=direction,
                    ))
    outage = dict(kind="outage", path="wifi", at_s=0.5, duration_s=1.0)
    specs += [
        _mptcp("backup.failover", options={"mode": "backup"},
               faults=_faults(outage)),
        _mptcp("singlepath.failover", options={"mode": "singlepath"},
               faults=_faults(dict(kind="iface_down", path="wifi",
                                   at_s=0.5))),
        _mptcp("simultaneous_join", condition=TRACED,
               options={"simultaneous_join": True}),
        _mptcp("warm_start", condition=TRACED,
               config={"initial_ssthresh_segments": 12}),
        _mptcp("fault.outage", faults=_faults(outage)),
        TransferSpec(kind="tcp", condition=FIXED, nbytes=1_000_000,
                     path="wifi", cc="reno", seed=19, fidelity="flow",
                     label="fault.outage.tcp", faults=_faults(outage)),
        _mptcp("fault.blackhole.detected", faults=_faults(dict(
            kind="blackhole", path="wifi", at_s=0.5, duration_s=0.8,
            detected=True))),
        _mptcp("fault.blackhole.silent", deadline_s=20.0, faults=_faults(
            dict(kind="blackhole", path="lte", at_s=0.4))),
        _mptcp("fault.iface_down", faults=_faults(dict(
            kind="iface_down", path="lte", at_s=0.3, duration_s=0.9))),
        _mptcp("fault.rate_collapse", faults=_faults(dict(
            kind="rate_collapse", path="wifi", at_s=0.3, duration_s=0.6,
            factor=0.1))),
        _mptcp("fault.delay_spike", faults=_faults(dict(
            kind="delay_spike", path="lte", at_s=0.25, duration_s=0.5,
            extra_delay_s=0.25))),
        _mptcp("fault.burst_loss", condition=TRACED, nbytes=4_000_000,
               faults=_faults(dict(
                   kind="burst_loss", path="wifi", at_s=0.2, duration_s=1.5,
                   p_good_to_bad=0.05, p_bad=0.5))),
        # Armed at t = 0: the edges apply before the subflows are built
        # (the handshake sees the spiked RTT and the collapsed rate).
        _mptcp("fault.armed_at_zero", faults=_faults(
            dict(kind="delay_spike", path="wifi", at_s=0.0, duration_s=0.4,
                 extra_delay_s=0.1),
            dict(kind="rate_collapse", path="lte", at_s=0.0, duration_s=0.7,
                 factor=0.3))),
        # Lands after WiFi has delivered its committed share, while LTE
        # still drains: the edge voids the split and it is re-derived.
        _mptcp("fault.during_drain", faults=_faults(dict(
            kind="rate_collapse", path="lte", at_s=1.72, duration_s=0.3,
            factor=0.5))),
        _mptcp("deadline", nbytes=50_000_000, deadline_s=0.9),
        _mptcp("three_paths", condition=THREE_PATHS, nbytes=4_000_000,
               cc="decoupled", faults=_faults(dict(
                   kind="rate_collapse", path="lte", at_s=1.0,
                   duration_s=0.5, factor=0.5))),
        _mptcp("three_paths.up", condition=THREE_PATHS, primary="lte2",
               direction="up"),
        # singlepath gating is not a function of the path states alone:
        # while the primary is unusable, *every* breakpoint opens the
        # next standby (the first at the edge, the second one breakpoint
        # later), so it cannot be visited on fault edges only.
        _mptcp("singlepath.three_paths.failover", condition=THREE_PATHS,
               nbytes=4_000_000, options={"mode": "singlepath"},
               faults=_faults(dict(kind="iface_down", path="wifi",
                                   at_s=0.5))),
        _mptcp("singlepath.three_paths.armed_at_zero", condition=THREE_PATHS,
               options={"mode": "singlepath"},
               faults=_faults(dict(kind="iface_down", path="wifi",
                                   at_s=0.0))),
        _mptcp("singlepath.three_paths.recovers", condition=THREE_PATHS,
               nbytes=4_000_000, options={"mode": "singlepath"},
               faults=_faults(dict(kind="outage", path="wifi", at_s=0.5,
                                   duration_s=0.05))),
    ]
    return specs


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def report_digest(spec: TransferSpec) -> str:
    return _digest(Session().run(spec).to_dict())


def traced_digests(spec: TransferSpec):
    """``(report digest, event-list digest)`` of one traced run."""
    recorder = TraceRecorder()
    report = Session().run(spec, recorder=recorder)
    return (_digest(report.to_dict()),
            _digest([event.to_dict() for event in recorder.events]))


#: label -> digest, recorded at commit 210769c (the parent of the
#: flow-engine hot-path change); CPython 3.10, 3.11, 3.12 and 3.13
#: agreed on every one.
GOLDEN = {
    "tcp.fixed.down.30KB":
        "7747c5ae7ed0447a07fe302281be3a26dfe8526deddeb55c1e80f6baa725a6b9",
    "mptcp.fixed.down.30KB.lte.decoupled":
        "9c870876d0a16981ee511bbb4701c8b5de33717b40d86b27799587600c2e929b",
    "mptcp.fixed.down.30KB.wifi.decoupled":
        "25a81eacd49c2cf2e0fdb67ddd821253d7e3b8e2919a57a667b0d8e7c0bb3b8d",
    "mptcp.fixed.down.30KB.lte.coupled":
        "165d4557f42a66dda38e48cd24920d5d0500c40f6eef54c22ae3eb6b09ee6923",
    "mptcp.fixed.down.30KB.wifi.coupled":
        "2c83c4994d557ee012beece14ee1573eaf7195132132c4a8589d0cd94afde6d1",
    "tcp.fixed.down.1MB":
        "11d487550c56ec0e4191ac01c222daf973c6e6d887daf962403672774bf3815b",
    "mptcp.fixed.down.1MB.lte.decoupled":
        "0e63363eb2b5973171de5ed6c3a2af9fb989fc24cc6da8a564c83e1c3404f504",
    "mptcp.fixed.down.1MB.wifi.decoupled":
        "85f07c33f737c8fdd51062d029e9bb0f0463f8fc0e8808636ed26a77731753e6",
    "mptcp.fixed.down.1MB.lte.coupled":
        "ccc0a7d0c3e77308b1f246743d3c62be4a43dd239fafd95f20cc54fca5fbe6e3",
    "mptcp.fixed.down.1MB.wifi.coupled":
        "fdd3e5f99c4271c172c1c2c4cc549804f994c4866be9a54438a9502253a8c482",
    "tcp.fixed.down.4MB":
        "7c32864a8ee59f4ebe9269685ea09f5f2398da955c108396f8233baec68b8339",
    "mptcp.fixed.down.4MB.lte.decoupled":
        "547297ae836eaeef5f2b10e1182b8acd212aa21649f0897ee66a041a0ec278e7",
    "mptcp.fixed.down.4MB.wifi.decoupled":
        "83cc6da09970876b53f00c927eb51280235d4a0f607f587152190c6496f696a9",
    "mptcp.fixed.down.4MB.lte.coupled":
        "650c0ba4d14b9c49d6458d95f2ffdef787fe97eb1d815490a52abbff0fa72b1b",
    "mptcp.fixed.down.4MB.wifi.coupled":
        "0cdba1f50ce3711cd8db09e5919e9f58284cce483885d1f6ba4bb16996ab9754",
    "tcp.fixed.up.30KB":
        "51fb01d25b25cb7a03c04acf7cb949c4f6b823a26e1825388954c0ada2486a55",
    "mptcp.fixed.up.30KB.lte.decoupled":
        "d63333ae5c609d0faa9fd3462b28f9aee67de2bcca71ab231cdcbde083b8bd0d",
    "mptcp.fixed.up.30KB.wifi.decoupled":
        "e969699656cba785c3047b5ba291e6aa616254fe5ee5970873bf3b91a42248e0",
    "mptcp.fixed.up.30KB.lte.coupled":
        "14a7aba6bc80df49112ffae7c03d5bbd2ff4917ba4c43add48c006a6e23b9e88",
    "mptcp.fixed.up.30KB.wifi.coupled":
        "e2c68fc72688733e191961912c456bcb255b1b6a2ce804f5bbc6cf215d9f0540",
    "tcp.fixed.up.1MB":
        "fb7dfff6f103304e7791dcb9fd3099e461ef339b7f9bdc5f8988dd00255d856e",
    "mptcp.fixed.up.1MB.lte.decoupled":
        "8a198ca273ff0353f83570c29b20b3eb13e5360f0248662a1414184c5c88db5a",
    "mptcp.fixed.up.1MB.wifi.decoupled":
        "79fddec316d63ae3f902a999846f75cfbc53ad982b73e882a8a1f601029817d8",
    "mptcp.fixed.up.1MB.lte.coupled":
        "1d982b8d0fe4b5eab816947998132d654922b2621b9dd478277d92dbadc7a783",
    "mptcp.fixed.up.1MB.wifi.coupled":
        "f5c529628c4f62788effc833076591bbc227d3a83da94bff62a27726067da8fd",
    "tcp.fixed.up.4MB":
        "c866af8bd3c59f4b3117152870246c647f6034ef505b0e8719dac9c1aab8339d",
    "mptcp.fixed.up.4MB.lte.decoupled":
        "a0567eac8fc1c85bdb54f50aa6bc91b0ed2788596a1bde0b35a7fb4ccc5146cc",
    "mptcp.fixed.up.4MB.wifi.decoupled":
        "95c8305fbf6bfaed3d9d45dfd47ead442bd29b510ccf4eb66caaeea166a2a77e",
    "mptcp.fixed.up.4MB.lte.coupled":
        "7571d118f5747a071125e18de7d1d3f6bb20dbbbfaad46ab030bb42b2a14a961",
    "mptcp.fixed.up.4MB.wifi.coupled":
        "2afc86f330fc35e1935977a5dee857929654ca2f490b7fa9247031d85e51020d",
    "tcp.traced.down.30KB":
        "13b806242fd80cea5e2b86bd59bc9d7eb9c3c146c1ed941e7e54820b8cf1a86b",
    "mptcp.traced.down.30KB.lte.decoupled":
        "d666508d5e4745a42949fe3b23f2b318079e7a899aa2b1684f5310d713f608d9",
    "mptcp.traced.down.30KB.wifi.decoupled":
        "4aae26044a70cc6531a1056d44c8c4d95d20ef7931d3bc48e795d7e38d3f7919",
    "mptcp.traced.down.30KB.lte.coupled":
        "7bc0bb52cc9423e3603b2bcca8ffda37dd5609321fe9165aa0d7f7788e7e6551",
    "mptcp.traced.down.30KB.wifi.coupled":
        "93688b154233a5cf81b77de469d5243253f1a4e6a36155665ef3f0159e6726f1",
    "tcp.traced.down.1MB":
        "68c9d2075ff342c724bd152657eb5cfd6ce045e605280f0d05a30af4543fa1e3",
    "mptcp.traced.down.1MB.lte.decoupled":
        "caf809015ed0433a8a9fb29e063e75a5fb34b851bbadb4e2aa0bfb457d05d174",
    "mptcp.traced.down.1MB.wifi.decoupled":
        "e841f49ab5a7167444a066126ad36566cf8909b14318998cca8485f2e83fe311",
    "mptcp.traced.down.1MB.lte.coupled":
        "8f93268f98441ba029baa9c036c4ba264745f9403f224ce8a16605869d291407",
    "mptcp.traced.down.1MB.wifi.coupled":
        "e49dbf48f753e7e426004eae326b0ab21f925ed72e2b9e7558f0367698fc63fa",
    "tcp.traced.down.4MB":
        "74684621791532130b31209e0646c4517e1ee891739ba1a23d2797b981bd6d3a",
    "mptcp.traced.down.4MB.lte.decoupled":
        "4b6e0a67063808dbabd70ef63ce744f96e0574f5c0af371f4a4b3c902afe9150",
    "mptcp.traced.down.4MB.wifi.decoupled":
        "d2a08cc1862cc67f1f826280b4e5d4eb8d7a74f1162f1a0cf504e886622e69b2",
    "mptcp.traced.down.4MB.lte.coupled":
        "2a968bdf35039d887c7aedfbdfdb89923330dd7b77c7c2b1722a0b4d4fec4bba",
    "mptcp.traced.down.4MB.wifi.coupled":
        "8095808164ef734e5931f50d8f68a9319684b44f1ca9fc5e271c8f88d4dc31a7",
    "tcp.traced.up.30KB":
        "d208d05fb05ca98216d08bde0e539449ff6f0d0f6e7427da3859cdb17eb7354a",
    "mptcp.traced.up.30KB.lte.decoupled":
        "185985f203be8a1e106be95e6a6c2d440dbc492eeb9b69ab77abb0c3ef81ed00",
    "mptcp.traced.up.30KB.wifi.decoupled":
        "2dc72c36277f08251b5dd3a9c42d9f1c5c3cf389d67d2aa7480936ab1d74147e",
    "mptcp.traced.up.30KB.lte.coupled":
        "719bbb55fabc9bcbb6c518c3cd49d5f9d977c9ed22bd476b99f1f42f6417b951",
    "mptcp.traced.up.30KB.wifi.coupled":
        "ba9c98ac6a92e2cb7220314b4eceee5a6c08c3d7d6e181519a53352202c73283",
    "tcp.traced.up.1MB":
        "0a171fb6e1c1aa4791928c1afd785efc39c85b498d6d3adc55d286f48919cc0a",
    "mptcp.traced.up.1MB.lte.decoupled":
        "5380d1f0dabc068120fbdfb0cd12a622c40fd894c412bf66f0454814ce159ecd",
    "mptcp.traced.up.1MB.wifi.decoupled":
        "53354a8de5d7611d990adfb9b87b429756729b11de847610182b58a3bf7376e8",
    "mptcp.traced.up.1MB.lte.coupled":
        "1f25bb6fa2ad34b366be85ae6f20357ad989908859ad5cd2c01d2d0bcfa572ae",
    "mptcp.traced.up.1MB.wifi.coupled":
        "414017bcf3f7d1d37ab210f18feffa09b4f69b4c3b922a58e5c71b2102f2f4c5",
    "tcp.traced.up.4MB":
        "8f9313c421abe464588158478118503f6a3e384fbe7bbdf7b855dcecba1f0fff",
    "mptcp.traced.up.4MB.lte.decoupled":
        "0c1e268134af4abbe0de106df14efe803f7a275ded544cfbaaff2648aece0cc4",
    "mptcp.traced.up.4MB.wifi.decoupled":
        "314e30286c0d0cdf4b24a9f2fe32da0e0ff55eade4f57ea57ac6b09722feaf8f",
    "mptcp.traced.up.4MB.lte.coupled":
        "7a00dd2512a9ddfaa9bd7a86ed8c3f9c9f80972c8008deb785b1254e60b81f8b",
    "mptcp.traced.up.4MB.wifi.coupled":
        "5e9468c9187affa170d7784c82cc6618c76fd37e1b209a7860a2a2efe51bf1a6",
    "backup.failover":
        "1bfca7f40dabd629219b2d32eec09d02df84fa166bbd311177972f569c6ebc27",
    "singlepath.failover":
        "155eb0c5fe531f5cf2991bb20348771cb4bf119c12d15d38293c2c02cf434afd",
    "simultaneous_join":
        "e85f1f519acd570c6c6a11fa5c9b8fc586c01ac0a58fa46492f7e2186b6a268c",
    "warm_start":
        "6a54ecb6d46ef33d2b84294c295a65914cf17566015fe304e9115d2964f132eb",
    "fault.outage":
        "f4de7a389726eddb52bf33379e518cac11abde9383b80dde4b099216a8691d33",
    "fault.outage.tcp":
        "08a544aebc508bccabe055702d74ce53ff96ef04a896eb4d17b7c459730c7bbb",
    "fault.blackhole.detected":
        "de892c8ca4c52596ad80f46c03681ed3c39cc92decff21b7f22cd897cb9ea9e2",
    "fault.blackhole.silent":
        "51c6556c55ffa0f5dc39d420941939c1a90c81899d6f49c6b2064b68a87f1fc6",
    "fault.iface_down":
        "c9d33f3f6b356c51742cc6d899d0b88467dc079474715eb5db3c95187ca71e5d",
    "fault.rate_collapse":
        "40387d6075295382329f360df6e0097611c60451a077a2294199599331fd6aa6",
    "fault.delay_spike":
        "e4ba27b14fd6b934f136cd6cdab97e96a983a40abe61c5b5af00c3930f694ea4",
    "fault.burst_loss":
        "152070930b9afe01d08418af455928e663d9c0f6a11e8d2932ae0d433cf3300e",
    "fault.armed_at_zero":
        "eafdeca19192daa27cd07e0e27fdbd513aad9a0f277be23b7a9fa1b1538d3b3d",
    "fault.during_drain":
        "07905276f9509eb74f6a43e89609a3aaba78da07c11895beb049865aa2f2c7f3",
    "deadline":
        "31632518ae3c7e67fb6bff2189d8ae4ffd58dec85a50cf6c4852e273d20505db",
    "three_paths":
        "c957f55cb0a14283bf802dfd13c850072a28cc0d32be6e0feac9d4e1f0070eb8",
    "three_paths.up":
        "49968ec1e124fd4ae9fc458ad9be3bd90c10feee79bb164088c921a433c1c660",
    "singlepath.three_paths.failover":
        "a009d2c7abc273d2c29fc6c2e7551e899675a654d243e5246ad050139df82043",
    "singlepath.three_paths.armed_at_zero":
        "dc264fa4300d2c626a61ffd94bb93c0229cf035b96715d27746ccebf6d5dc202",
    "singlepath.three_paths.recovers":
        "2c84a8b48d92b35f53b28cc140b5aeab559f9690f2c617cfe26fadd1319c359b",
}

#: label -> digest of the traced run's event list, same commit.
GOLDEN_EVENTS = {
    "mptcp.traced.down.1MB.wifi.coupled":
        "0c4779d7ed27e08123982b11a4d05d916e3895d5aef411b12b714bdd7608ae68",
    "backup.failover":
        "9060af485152b25d7de7be5ee732143f098bd678948b2bf98b37fb195d5c93e3",
    "fault.burst_loss":
        "fe129e5d8eb0d7737adcbfcd8ba89ad278424578019f0bdb2e51afc28e9c93b7",
    "three_paths":
        "f568008c24b0899c7694729de312b5cf3eb84e0ef31347e2332cc5ba10ff5b99",
    "singlepath.three_paths.failover":
        "259fb976fddb8541082c53a0dbcc26d050b739c840dc6b639f62599e3fd9fb58",
}


def test_every_spec_is_pinned():
    labels = [spec.label for spec in golden_specs()]
    assert sorted(GOLDEN) == sorted(labels)
    assert sorted(GOLDEN_EVENTS) == sorted(TRACED_LABELS)
    assert set(TRACED_LABELS) <= set(labels)


@pytest.mark.parametrize("spec", golden_specs(), ids=lambda spec: spec.label)
def test_flow_report_digest_is_unchanged(spec):
    assert report_digest(spec) == GOLDEN[spec.label]


@pytest.mark.parametrize(
    "spec", [s for s in golden_specs() if s.label in TRACED_LABELS],
    ids=lambda spec: spec.label,
)
def test_traced_flow_run_is_pinned_and_passive(spec):
    report, events = traced_digests(spec)
    assert report == GOLDEN[spec.label]  # traced ≡ untraced
    assert events == GOLDEN_EVENTS[spec.label]


if __name__ == "__main__":  # re-record: prints both tables
    print("GOLDEN = {")
    for golden_spec in golden_specs():
        print(f'    "{golden_spec.label}":\n'
              f'        "{report_digest(golden_spec)}",')
    print("}\n\nGOLDEN_EVENTS = {")
    for golden_spec in golden_specs():
        if golden_spec.label in TRACED_LABELS:
            print(f'    "{golden_spec.label}":\n'
                  f'        "{traced_digests(golden_spec)[1]}",')
    print("}")
