"""Flow-engine invariants over random two-path transfers.

Where ``test_golden_flow`` pins answers at a few hand-picked specs, this
draws conditions, sizes, protocol variants and one optional fault over
the conditions registry's ranges (and past them) and asserts what every
flow report must satisfy, whatever the model's constants: a completed
transfer's connection log ends at ``(completed_at, nbytes)``, the
subflows carry exactly the transfer between them, logs are monotone, no
subflow ever delivers faster than its share's capacity term, and a
second run is identical to the first.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.rng import RngStreams
from repro.experiments.common import MPTCP_VARIANTS
from repro.faults.spec import FAULT_KINDS, FaultEvent, FaultSpec
from repro.flow.model import ge_stationary_loss, path_flow_params, share_terms
from repro.tcp.config import TcpConfig
from repro.workload import ConditionSpec, PathSpec, Session, TransferSpec

PATHS = ("wifi", "lte")

_loss = st.one_of(st.just(0.0), st.floats(0.0005, 0.05))


@st.composite
def _path(draw, name):
    return PathSpec(
        name=name, technology=name,
        down_mbps=draw(st.floats(0.5, 80.0)),
        up_mbps=draw(st.floats(0.3, 30.0)),
        rtt_ms=draw(st.floats(10.0, 300.0)),
        loss_rate=draw(_loss),
        queue_packets=draw(st.integers(10, 1000)),
    )


@st.composite
def _fault(draw):
    kind = draw(st.sampled_from(FAULT_KINDS))
    event = dict(kind=kind, path=draw(st.sampled_from(PATHS)),
                 at_s=draw(st.floats(0.0, 3.0)))
    if kind in ("rate_collapse", "delay_spike", "burst_loss") or draw(
            st.booleans()):
        event["duration_s"] = draw(st.floats(0.05, 2.0))
    if kind == "rate_collapse":
        event["factor"] = draw(st.floats(0.05, 0.95))
    elif kind == "delay_spike":
        event["extra_delay_s"] = draw(st.floats(0.01, 0.3))
    elif kind == "blackhole":
        event["detected"] = draw(st.booleans())
    return FaultSpec(events=(FaultEvent(**event),))


@st.composite
def transfer_specs(draw):
    condition = ConditionSpec(
        condition_id=999, paths=tuple(draw(_path(name)) for name in PATHS)
    )
    common = dict(
        condition=condition, nbytes=draw(st.integers(5_000, 8_000_000)),
        direction=draw(st.sampled_from(("down", "up"))),
        seed=draw(st.integers(0, 2**16)), fidelity="flow",
        faults=draw(st.one_of(st.none(), _fault())),
    )
    if draw(st.booleans()):
        return TransferSpec(kind="tcp", path=draw(st.sampled_from(PATHS)),
                            cc=draw(st.sampled_from(("cubic", "reno"))),
                            **common)
    _, primary, cc = draw(st.sampled_from(MPTCP_VARIANTS))
    return TransferSpec(kind="mptcp", primary=primary, cc=cc, **common)


def _cap_bound(spec, path_spec):
    """The largest capacity term the path's share can take in this run:
    its base terms, or a ``burst_loss`` episode's lower loss rate."""
    params = path_flow_params(path_spec, spec.direction,
                              RngStreams(spec.seed))
    losses = [params.loss_rate]
    for event in spec.faults.events if spec.faults is not None else ():
        if event.kind == "burst_loss" and event.path == path_spec.name:
            losses.append(ge_stationary_loss(
                event.p_good_to_bad, event.p_bad_to_good,
                event.p_good, event.p_bad,
            ))
    config = spec.tcp_config() or TcpConfig()
    return max(
        share_terms(params.wire_bytes_s, params.rtt_s, loss, config,
                    spec.cc, params.queue_packets).cap
        for loss in losses
    )


def _assert_monotone(log, what):
    times, cums = list(log.times), list(log.cums)
    assert times == sorted(times), f"{what}: time runs backwards"
    assert all(b > a for a, b in zip(cums[1:], cums[2:])) and (
        len(cums) < 2 or cums[1] >= cums[0]), f"{what}: bytes not increasing"


@settings(max_examples=200, deadline=None, derandomize=True)
@given(spec=transfer_specs())
def test_flow_reports_keep_the_engine_invariants(spec):
    report = Session().run(spec)
    log = report.delivery_log
    _assert_monotone(log, "connection log")
    for name, sub_log in report.subflow_delivery_logs.items():
        _assert_monotone(sub_log, name)
        cap = _cap_bound(spec, spec.condition.path(name))
        points = list(zip(sub_log.times, sub_log.cums))
        for (t0, c0), (t1, c1) in zip(points, points[1:]):
            assert c1 - c0 <= cap * (t1 - t0) * (1.0 + 1e-9) + 1.0, (
                f"{name} delivered {c1 - c0} B in {t1 - t0} s "
                f"above its cap {cap} B/s"
            )
    if report.completed_at is not None:
        assert (log.times[-1], log.cums[-1]) == \
            (report.completed_at, spec.nbytes)
        # A join still pending at completion reports an empty log.
        finals = [sub_log.cums[-1] if len(sub_log) else 0
                  for sub_log in report.subflow_delivery_logs.values()]
        assert abs(sum(finals) - spec.nbytes) <= len(finals), finals
    assert Session().run(spec).to_dict() == report.to_dict()


def test_a_join_after_the_source_drained_carries_nothing():
    """An MP_JOIN completing after the scheduler committed the last byte
    gets no share: the WiFi subflow joins 0.246 s in, when the LTE pipe
    already holds the whole remainder (it used to deliver 614 kB of
    bytes that did not exist while LTE drained the real ones)."""
    condition = ConditionSpec(condition_id=990, paths=(
        PathSpec(name="lte", technology="lte", down_mbps=1.176,
                 up_mbps=0.853, rtt_ms=13.57, queue_packets=1000),
        PathSpec(name="wifi", technology="wifi", down_mbps=3.278,
                 up_mbps=8.763, rtt_ms=146.10, loss_rate=0.01577,
                 queue_packets=50),
    ))
    spec = TransferSpec(kind="mptcp", condition=condition, nbytes=221_389,
                        primary="lte", cc="coupled", direction="up", seed=4,
                        fidelity="flow")
    report = Session().run(spec)
    logs = report.subflow_delivery_logs
    assert logs["lte"].cums[-1] == spec.nbytes
    assert list(logs["wifi"].cums) == [0]
    assert report.delivery_log.times[-1] == report.completed_at \
        == logs["lte"].times[-1]
