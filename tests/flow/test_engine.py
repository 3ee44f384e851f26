"""Flow engine behaviour: determinism, faults, traces, deadlines."""

import json

import pytest

from repro.faults.spec import FaultEvent, FaultSpec
from repro.flow import engine
from repro.linkem.conditions import make_conditions
from repro.obs.summary import summarize_events
from repro.obs.trace import TraceRecorder
from repro.workload import ConditionSpec, PathSpec, Session, TransferSpec

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


#: Lossy enough that the loss transient decays the cap for a whole
#: 4 MB transfer on either path.
LOSSY = ConditionSpec(condition_id=991, paths=(
    PathSpec(name="wifi", technology="wifi", down_mbps=20.0, up_mbps=5.0,
             rtt_ms=40.0, loss_rate=0.01, queue_packets=100),
    PathSpec(name="lte", technology="lte", down_mbps=12.0, up_mbps=4.0,
             rtt_ms=70.0, loss_rate=0.005, queue_packets=300),
))


def test_a_steady_share_needs_no_breakpoint_until_completion(monkeypatch):
    """Once the window covers the decaying cap the share follows it in
    closed form: slow start's doublings, the steady step and the finish
    are the only breakpoints (the loop used to re-evaluate every RTT)."""
    spec = TransferSpec(kind="tcp", condition=LOSSY, path="wifi",
                        nbytes=4_000_000, seed=1, fidelity="flow")
    run = engine._FlowRun(spec, spec.seed, None)
    monkeypatch.setattr(engine, "_MAX_ITERATIONS", 8)
    run.run()
    subflow = run.subflows[0]
    assert run.completed_at is not None
    assert subflow.steady and subflow.terms.decays
    assert subflow.rate() < 0.5 * subflow.terms.cap  # it did decay
    # The curve is logged on the densification grid, never straightened.
    times = [t for t, _ in subflow.log]
    assert len(times) > 20
    assert max(b - a for a, b in zip(times, times[1:])) <= \
        engine._LOG_STEP_S + 1e-9


def test_commitment_root_lands_on_the_owed_bytes():
    spec = _mptcp_spec(condition=LOSSY, nbytes=4_000_000, cc="decoupled")
    run = engine._FlowRun(spec, spec.seed, None)
    wifi, lte = (sf.terms for sf in run.subflows)
    excess = (wifi.cap - wifi.converged) * 0.7
    rates, excesses = [wifi.converged + excess, lte.converged], [excess, 0.0]
    owed = 1_500_000.0
    start = owed / (rates[0] + rates[1])
    dt = run._drain_root(owed, start, rates, excesses)
    assert dt > start
    assert wifi.transient_bytes(excess, dt) + rates[1] * dt == \
        pytest.approx(owed, rel=1e-12)


def test_flow_trace_observation_is_passive():
    untraced = Session().run(_mptcp_spec())
    recorder = TraceRecorder()
    traced = Session().run(_mptcp_spec(), recorder=recorder)
    assert _as_json(untraced) == _as_json(traced)
