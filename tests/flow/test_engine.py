"""Flow engine behaviour: determinism, faults, traces, deadlines."""

import json

from repro.faults.spec import FaultEvent, FaultSpec
from repro.linkem.conditions import make_conditions
from repro.obs.summary import summarize_events
from repro.obs.trace import TraceRecorder
from repro.workload import Session, TransferSpec

#: Event kinds the flow engine is allowed to emit (reduced stream).
FLOW_EVENT_KINDS = {"send", "sched", "subflow_add", "fault_state"}


def _condition(index=0):
    return make_conditions()[index]


def _mptcp_spec(nbytes=1_000_000, seed=7, **overrides):
    kwargs = dict(
        kind="mptcp", condition=_condition(), nbytes=nbytes,
        primary="wifi", cc="coupled", seed=seed, fidelity="flow",
    )
    kwargs.update(overrides)
    return TransferSpec(**kwargs)


def _as_json(report):
    return json.dumps(report.to_dict(), sort_keys=True)


def test_flow_run_is_deterministic():
    session = Session()
    first = session.run(_mptcp_spec())
    second = session.run(_mptcp_spec())
    assert _as_json(first) == _as_json(second)


def test_flow_report_shape():
    report = Session().run(_mptcp_spec())
    assert report.completed
    assert report.total_bytes == 1_000_000
    assert report.duration_s > 0
    assert report.throughput_mbps > 0
    assert report.label == _mptcp_spec().key()
    # Densified delivery log supports the figure helpers.
    assert report.time_to_bytes(100_000) > 0
    assert report.throughput_at_bytes(100_000) > 0
    assert set(report.subflow_delivery_logs) == {"wifi", "lte"}


def test_flow_batch_identical_across_worker_counts():
    specs = [
        _mptcp_spec(nbytes=nbytes, seed=seed)
        for nbytes in (100_000, 1_000_000)
        for seed in (3, 4)
    ] + [
        TransferSpec(kind="tcp", condition=_condition(), path="lte",
                     nbytes=500_000, seed=9, fidelity="flow"),
    ]
    serial = Session().run_many(specs, workers=1, cache=False)
    parallel = Session().run_many(specs, workers=4, cache=False)
    assert [_as_json(r) for r in serial] == [_as_json(r) for r in parallel]


def test_flow_tcp_single_path():
    spec = TransferSpec(kind="tcp", condition=_condition(), path="wifi",
                        nbytes=200_000, seed=5, fidelity="flow")
    report = Session().run(spec)
    assert report.completed
    assert list(report.subflow_delivery_logs) == ["wifi"]


def test_flow_outage_fault_stalls_single_path():
    def tcp_spec(faults=None):
        return TransferSpec(kind="tcp", condition=_condition(),
                            path="wifi", nbytes=1_000_000, seed=7,
                            fidelity="flow", faults=faults)

    baseline = Session().run(tcp_spec())
    faults = FaultSpec(events=(
        FaultEvent(kind="outage", path="wifi", at_s=0.1, duration_s=2.0),
    ))
    faulted = Session().run(tcp_spec(faults))
    assert faulted.completed
    assert faulted.faults, "applied fault edges must be reported"
    assert {edge["kind"] for edge in faulted.faults} == {"outage"}
    assert {edge["edge"] for edge in faulted.faults} == {"inject", "clear"}
    # The link is dead for 2s; completion must slip by about that much.
    assert faulted.duration_s > baseline.duration_s + 1.5


def test_flow_trace_is_reduced_and_summarizable():
    recorder = TraceRecorder()
    Session().run(_mptcp_spec(), recorder=recorder)
    events = recorder.events
    assert events, "flow runs must emit a trace when observed"
    assert {e.kind for e in events} <= FLOW_EVENT_KINDS
    summary = summarize_events(events)
    assert summary.total_bytes_sent == 1_000_000
    assert set(summary.subflows) == {("wifi", 0), ("lte", 1)}
    # Both subflows report their establishment (subflow_add carries
    # the handshake RTT at this fidelity).
    assert all(
        sf.established_at is not None for sf in summary.subflows.values()
    )


def test_flow_deadline_reports_partial():
    report = Session().run(_mptcp_spec(nbytes=50_000_000, deadline_s=0.2))
    assert not report.completed
    assert report.completed_at is None
    assert report.duration_s is None
    delivered = report.delivery_log[-1][1] if report.delivery_log else 0
    assert 0 < delivered < 50_000_000


def test_flow_trace_observation_is_passive():
    untraced = Session().run(_mptcp_spec())
    recorder = TraceRecorder()
    traced = Session().run(_mptcp_spec(), recorder=recorder)
    assert _as_json(untraced) == _as_json(traced)
