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
#: agreed on every one.  Re-recorded since, one cause at a time:
#:
#: 1. a join completing after the source drained carries nothing (it
#:    used to deliver phantom bytes): the 12 MPTCP 30 KB specs whose
#:    second subflow joins after the split.
#: 2. a window that covers a cap which cannot decay goes steady at once
#:    instead of holding once per RTT: the 15 specs that held there
#:    (traced uplinks, both three-path specs) and three_paths' events.
#: 3. a steady share delivers along its decaying cap in closed form
#:    instead of one constant-rate RTT at a time: the 21 specs in which
#:    a share reaches steady on a lossy path, and four event lists.
#:    No spec without loss on any path has moved at 2 or 3.
GOLDEN = {
    "tcp.fixed.down.30KB":
        "7747c5ae7ed0447a07fe302281be3a26dfe8526deddeb55c1e80f6baa725a6b9",
    "mptcp.fixed.down.30KB.lte.decoupled":
        "7ffc56ded4193e86c8ec9a36e1478c2283f07498fa5040376e0605172c555a65",
    "mptcp.fixed.down.30KB.wifi.decoupled":
        "25a81eacd49c2cf2e0fdb67ddd821253d7e3b8e2919a57a667b0d8e7c0bb3b8d",
    "mptcp.fixed.down.30KB.lte.coupled":
        "b2b4fe9994a8b4dcc9b4a277f85f7153910ab2a076b0f40f26b08250b51d876a",
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
        "277457c84a752d597ef8aac991b400a2b9350226dd885a4fb97df3425c0c7d59",
    "mptcp.fixed.up.30KB.wifi.decoupled":
        "9b62187671cf20631022d7ca442b51a958a73b7b4ee582ca8c9ea866cb038d4b",
    "mptcp.fixed.up.30KB.lte.coupled":
        "884dde11874447583ceb4cb429697bb1185aafd94d4fb9697414f59518eb680c",
    "mptcp.fixed.up.30KB.wifi.coupled":
        "2a83e7757296610bb05f340f4327dba8415541503a1b572facc354ac3977b183",
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
        "aae88dd01f0d68f4651491893dcc9970e2401533c678e1cff85794e8b786a938",
    "mptcp.traced.down.30KB.wifi.decoupled":
        "4aae26044a70cc6531a1056d44c8c4d95d20ef7931d3bc48e795d7e38d3f7919",
    "mptcp.traced.down.30KB.lte.coupled":
        "73e22276bde8f33c609f9b828da0ea384f52d1fa4e4f3a25328f2c08a2cc6ee0",
    "mptcp.traced.down.30KB.wifi.coupled":
        "93688b154233a5cf81b77de469d5243253f1a4e6a36155665ef3f0159e6726f1",
    "tcp.traced.down.1MB":
        "a1eea4cf1803af95a7896ebd7de83568a73713b0b367152484a4d192cc279f9e",
    "mptcp.traced.down.1MB.lte.decoupled":
        "0cb35670a87f4236224e1d22901325829574738a12d847473dbf506bdbc5cb89",
    "mptcp.traced.down.1MB.wifi.decoupled":
        "18a01ede458e769f1055e227fbaf41e7dc98c2bc4c812c7e6ff54ccd25dee7c4",
    "mptcp.traced.down.1MB.lte.coupled":
        "b3a94483b286043f36d7652e2ac3e08db23cc9fd491022b9b8868f4a5c10f014",
    "mptcp.traced.down.1MB.wifi.coupled":
        "02da474890908adac57f6c5db26b9e14a0d45a5f9904637e92d3d43a6feea463",
    "tcp.traced.down.4MB":
        "02a3d4c897d54b60ac16d491d098fcdf8f3beed058afed9a24c9fa091be43141",
    "mptcp.traced.down.4MB.lte.decoupled":
        "b9fcf760effb49128d72f51997c0609c0fb2e406b65aef77e8784ba7ba412512",
    "mptcp.traced.down.4MB.wifi.decoupled":
        "ee159d6a57850c5523bbaa121fe8f187268abfc2d989e29c95436de1952b6e11",
    "mptcp.traced.down.4MB.lte.coupled":
        "a759036e3223f6dc742d1e0e3788eb9ccbfaac9c36c354198bafaff98cb70281",
    "mptcp.traced.down.4MB.wifi.coupled":
        "b8fa563deb5c82db497f4617e87632424a4f171d3f2f1bf3ddc5e7e312134355",
    "tcp.traced.up.30KB":
        "a3751a2f0a78a8c402193acb825840bb457dc963bf08377df96f1b4a50a69ed4",
    "mptcp.traced.up.30KB.lte.decoupled":
        "97c4eb5b4a80482623bbb326215ae637f905fad65ea0401bbd99ce34a3afb01e",
    "mptcp.traced.up.30KB.wifi.decoupled":
        "104cc23a0cea03e6a943bebd9d495eecf423e4bf7cce68fee8afbd28888e350b",
    "mptcp.traced.up.30KB.lte.coupled":
        "5d2720ef57879ff28dcdec67c5b545e80378d5c0584feeefb15df2cd89a738a4",
    "mptcp.traced.up.30KB.wifi.coupled":
        "e2667a8ce1e436b16756ab7bca38c19f4d825399d95822c741f2c203683f629e",
    "tcp.traced.up.1MB":
        "27800a5d2ac05cdd1fa83161bd2161c5075914cb603ab4661816177554598153",
    "mptcp.traced.up.1MB.lte.decoupled":
        "6d82509b872b4b5adb8ffa400d1dea48317c6827f1a19ec751a4d125d2071dc7",
    "mptcp.traced.up.1MB.wifi.decoupled":
        "1de4f290030387cc624598277924265ce6fad13788bd5258c6f45669df37428f",
    "mptcp.traced.up.1MB.lte.coupled":
        "8a102b321a5002ecdcf9654d42302500adf617d989dc85e306a681990dcb0ba1",
    "mptcp.traced.up.1MB.wifi.coupled":
        "bb3c1c0caca473afdc2cc99ecf98f6f33bc1ede58a4c23e2748dacb1052a53f7",
    "tcp.traced.up.4MB":
        "824438aa88e0ce52c23a7d638063ec0fe2e3986868c7190931b890e3ff3845be",
    "mptcp.traced.up.4MB.lte.decoupled":
        "f7a2cad508eae1ef03d81b5ef720ec77e92145d0b47a861c8f17ba931c99a5e8",
    "mptcp.traced.up.4MB.wifi.decoupled":
        "2cef76fa7f643d18cc385f1558e4038792172820229b5a9bb5373f818cada0a3",
    "mptcp.traced.up.4MB.lte.coupled":
        "987be2d6c61d0037c8ad0ea9c5a48b5b9ce743b6edf0372676be80acb27b056f",
    "mptcp.traced.up.4MB.wifi.coupled":
        "6eadb615264bf30a8daa7c6ccda84f49deef179d30e11609e7929201d9176290",
    "backup.failover":
        "1bfca7f40dabd629219b2d32eec09d02df84fa166bbd311177972f569c6ebc27",
    "singlepath.failover":
        "155eb0c5fe531f5cf2991bb20348771cb4bf119c12d15d38293c2c02cf434afd",
    "simultaneous_join":
        "aa8f5570db02fb7a94a9e74a7fdb124d426832b6ca76d021cd8fa1da966ce745",
    "warm_start":
        "de2a0d267683f50c9d796c249297476f9dbeaf73a560ee63e5a8641c4e525b9c",
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
        "aa05c404d73b83998065e9df271c82736939672fbc3b0def1410971ddd598d03",
    "fault.armed_at_zero":
        "eafdeca19192daa27cd07e0e27fdbd513aad9a0f277be23b7a9fa1b1538d3b3d",
    "fault.during_drain":
        "07905276f9509eb74f6a43e89609a3aaba78da07c11895beb049865aa2f2c7f3",
    "deadline":
        "31632518ae3c7e67fb6bff2189d8ae4ffd58dec85a50cf6c4852e273d20505db",
    "three_paths":
        "e7d50b04a2aa3a1816305849884e4b193b4eab16e8f2535b65d0c80ad0adf0cf",
    "three_paths.up":
        "b20c368e3002699f6c160d37c4fd84a109b0ee047482ad486fd9d71100b6de37",
    "singlepath.three_paths.failover":
        "029d58f17d60ecd9b2161296f61cd2edcb6f5d4f6f273dead1b4216c9e333064",
    "singlepath.three_paths.armed_at_zero":
        "0ed98d95208eb9ea87e53d08b4b49998150eb3de742a6e1668481f99decb9899",
    "singlepath.three_paths.recovers":
        "bcea6516233e0cf501309ec42d4974bd5e3729f1e76738ab763af0054706a0be",
}

#: label -> digest of the traced run's event list, same commit.
GOLDEN_EVENTS = {
    "mptcp.traced.down.1MB.wifi.coupled":
        "dd0ffbbbe26879a572d18475b59d0e93ddedb0e1874285bc197a3757f5aa2a22",
    "backup.failover":
        "9060af485152b25d7de7be5ee732143f098bd678948b2bf98b37fb195d5c93e3",
    "fault.burst_loss":
        "4b773473c5c690eafbf230954acdfcb9da34d8f724afcaa5e5f8bcfbbd5711fa",
    "three_paths":
        "f449e1cff63998c19ea0b73925f25714bc335021cb19f2f5ba64852b21d91424",
    "singlepath.three_paths.failover":
        "202315601d305126810301393a80c42c7e53d55a9727eda1c1dca7529885fe40",
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
