"""The flow engine's "same value, cheaper route" claims, pinned.

Two references live here, each the parent's code kept as the oracle:
the analytic formulas as they read before they became "terms, then
evaluate", and the breakpoint loop as it read when every term was a
``_Subflow`` method call.  That loop drives the engine's own cold-path
methods (``rate``, ``steady_cap``, ``ramp_step``, ``on_path_change`` …),
so the flat loop in ``_FlowRun.run`` is checked against them at every
breakpoint of every golden spec.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ConfigurationError
from repro.core.packet import TCP_HEADER_BYTES
from repro.faults.spec import FaultEvent
from repro.flow import engine
from repro.flow.model import (
    DRAIN_QUEUE_FILL,
    FlowPathParams,
    loss_limited_bytes_s,
    loss_transient_factor,
    share_terms,
)
from repro.tcp.cc.registry import cc_names
from repro.tcp.config import TcpConfig
from repro.workload import Session
from tests.flow.test_golden_flow import golden_specs

_EPS = engine._EPS


# ---------------------------------------------------------------------------
# Reference 1: the parent's formulas
# ---------------------------------------------------------------------------
def parent_steady_goodput(wire_bytes_s, rtt_s, loss_rate, config, cc,
                          segments_delivered=math.inf):
    if wire_bytes_s <= 0.0:
        return 0.0
    mss = config.mss_bytes
    efficiency = mss / (mss + TCP_HEADER_BYTES)
    cap = wire_bytes_s * efficiency * (1.0 - loss_rate)
    if rtt_s > 0.0:
        cap = min(cap, config.receive_window_bytes / rtt_s)
    loss_limit = loss_limited_bytes_s(mss, rtt_s, loss_rate, cc)
    converged = min(cap, loss_limit)
    if converged >= cap:
        return max(0.0, cap)
    transient = loss_transient_factor(segments_delivered, loss_rate)
    return max(0.0, converged + (cap - converged) * transient)


def parent_pipe_capacity(rate_bytes_s, rtt_s, loss_rate, config, cc,
                         queue_packets):
    if rate_bytes_s <= 0.0 or rtt_s <= 0.0:
        return 0.0
    mss = config.mss_bytes
    packet_bytes = mss + TCP_HEADER_BYTES
    pipe = (
        rate_bytes_s * rtt_s
        + queue_packets * packet_bytes * DRAIN_QUEUE_FILL
    )
    pipe = min(pipe, float(config.receive_window_bytes))
    loss_limit = loss_limited_bytes_s(mss, rtt_s, loss_rate, cc)
    if math.isfinite(loss_limit):
        pipe = min(pipe, loss_limit * rtt_s)
    return pipe


def _with_zero(upper, lower=0.0):
    return st.one_of(st.just(0.0), st.floats(lower, upper))


CONFIGS = (TcpConfig(), TcpConfig(mss_bytes=536, receive_window_bytes=65_535,
                                  initial_cwnd_segments=4))
link = dict(
    wire=_with_zero(100e6 / 8.0),
    rtt=_with_zero(0.5),
    # Below ~1e-108 ``loss ** 3`` underflows and the CUBIC response
    # divides by zero, at the parent as here.
    loss=_with_zero(0.2, lower=1e-9),
    cc=st.sampled_from(cc_names()),
    config=st.sampled_from(CONFIGS),
    queue=st.integers(1, 1000),
)


@settings(max_examples=300, deadline=None)
@given(segments=st.one_of(st.just(math.inf), _with_zero(1e6)),
       rate=_with_zero(100e6 / 8.0), **link)
def test_model_functions_equal_the_parents_formulas(
        wire, rtt, loss, cc, config, queue, segments, rate):
    terms = share_terms(wire, rtt, loss, config, cc, queue)
    assert terms.goodput(segments) == \
        parent_steady_goodput(wire, rtt, loss, config, cc, segments)
    assert terms.goodput() == \
        parent_steady_goodput(wire, rtt, loss, config, cc)
    # The pipe reads no capacity term: any wire rate gives the same one.
    assert share_terms(0.0, rtt, loss, config, cc, queue).pipe(rate) == \
        terms.pipe(rate) == \
        parent_pipe_capacity(rate, rtt, loss, config, cc, queue)


EDGES = (
    None,
    FaultEvent(kind="outage", path="p", at_s=0.0, duration_s=1.0),
    FaultEvent(kind="iface_down", path="p", at_s=0.0, duration_s=1.0),
    FaultEvent(kind="blackhole", path="p", at_s=0.0, detected=True),
    FaultEvent(kind="rate_collapse", path="p", at_s=0.0, duration_s=1.0,
               factor=0.3),
    FaultEvent(kind="delay_spike", path="p", at_s=0.0, duration_s=1.0,
               extra_delay_s=0.07),
    FaultEvent(kind="burst_loss", path="p", at_s=0.0, duration_s=1.0,
               p_good_to_bad=0.05, p_bad=0.5),
)


@settings(max_examples=300, deadline=None)
@given(segments=st.one_of(st.just(math.inf), _with_zero(1e6)),
       rate=_with_zero(100e6 / 8.0), is_mptcp=st.booleans(),
       event=st.sampled_from(EDGES), clear=st.booleans(), **link)
def test_engine_share_equals_the_model_called_as_at_the_parent(
        wire, rtt, loss, cc, config, queue, segments, rate, is_mptcp,
        event, clear):
    state = engine._PathState(FlowPathParams("p", wire, rtt, loss, queue))
    sf = engine._Subflow(0, state, config, cc, is_mptcp, established_at=None)
    if event is not None:
        state.apply_edge(0, event, "inject")
        sf.on_path_change(0.0)
        if clear:
            state.apply_edge(0, event, "clear")
            sf.on_path_change(1.0)
    sf.delivered = segments * config.mss_bytes
    # What the parent's steady_cap() computed, live off the path state.
    usable = not (state.down or (is_mptcp and state.admin_down))
    progress = sf.delivered / config.mss_bytes
    if state.loss_rate > 0.0 and progress * state.loss_rate >= 150.0:
        progress = math.inf
    expected = parent_steady_goodput(
        0.0 if state.down else wire * state.rate_factor,
        rtt + 2.0 * state.extra_delay_s, state.loss_rate, config, cc,
        progress,
    ) if usable else 0.0
    assert sf.steady_cap() == expected
    assert sf.terms.pipe(rate) == parent_pipe_capacity(
        rate, rtt + 2.0 * state.extra_delay_s, state.loss_rate, config, cc,
        queue,
    )


# ---------------------------------------------------------------------------
# Reference 2: the parent's breakpoint loop, one method call per term
# ---------------------------------------------------------------------------
def _inflight(sf, rate):
    if rate <= 0.0:
        return 0.0
    pipe = sf.terms.pipe(rate)
    if sf.steady:
        return pipe
    return min(sf.cwnd * sf.config.mss_bytes, pipe)


def _next_time(sf, now):
    if not sf.established:
        if sf.established_at is not None and sf.established_at > now:
            return sf.established_at
        return None
    return sf.next_ramp_at


def _total(values):
    total = 0.0
    for value in values:  # left to right: the arithmetic now specified
        total += value
    return total


def _excess(sf, rate):
    """A steady share's part above its converged rate while the loss
    transient decays it (0.0: the share is constant until an event)."""
    terms = sf.terms
    if rate <= 0.0 or not sf.steady or not terms.decays:
        return 0.0
    return (terms.cap - terms.converged) * loss_transient_factor(
        sf.delivered / sf.mss, terms.loss_rate)


def _delivers(sf, rate, excess, dt):
    if excess > 0.0:
        return sf.terms.transient_bytes(excess, dt)
    return rate * dt


def _takes(sf, rate, excess, nbytes):
    if excess > 0.0:
        return sf.terms.transient_seconds(excess, nbytes)
    return nbytes / rate


def method_run(run):
    """Drive ``run`` the way the parent's ``_FlowRun.run`` did: a
    ``rate()`` call per subflow per breakpoint, edges and gating
    visited at every one — plus the closed-form transient, each
    subflow's share advanced along its own curve.  The commitment root
    and the curve samples are the run's own helpers."""
    nbytes = float(run.spec.nbytes)
    deadline = run.spec.deadline_s
    subflows = run.subflows
    now = delivered = 0.0
    draining = False
    for _ in range(200_000):
        rates = [sf.rate() for sf in subflows]
        excesses = [_excess(sf, rate) for sf, rate in zip(subflows, rates)]
        curved = any(excess > 0.0 for excess in excesses)
        total_rate = _total(rates)
        t_next = deadline
        if run.edge_i < len(run.edges):
            t_next = min(t_next, max(now, run.edges[run.edge_i][0]))
        for sf in subflows:
            transition = _next_time(sf, now)
            if transition is not None and transition > now + _EPS:
                t_next = min(t_next, transition)
        finishing = False
        if draining:
            for sf, rate, excess in zip(subflows, rates, excesses):
                if sf.drain_target is not None and rate > _EPS:
                    t_reach = now + _takes(
                        sf, rate, excess, sf.drain_target - sf.delivered)
                    if t_reach <= t_next + _EPS:
                        t_next = min(t_next, max(now, t_reach))
        elif len(subflows) > 1 and total_rate > _EPS:
            inflight = [_inflight(sf, r) for sf, r in zip(subflows, rates)]
            inflight_total = _total(inflight)
            remaining = nbytes - delivered
            if remaining <= inflight_total + 0.5:
                if inflight_total > _EPS:
                    remaining = max(0.0, remaining)
                    for sf, committed in zip(subflows, inflight):
                        # Nothing in flight: owes nothing (a later join
                        # gets no share).
                        sf.drain_target = sf.delivered + (
                            remaining * committed / inflight_total
                            if committed > 0.0 else 0.0
                        )
                    draining = True
                    continue
            else:
                owed = remaining - inflight_total
                dt = owed / total_rate
                if curved and now + dt < t_next:
                    dt = run._drain_root(owed, dt, rates, excesses)
                t_drain = now + dt
                if t_drain <= t_next + _EPS:
                    t_next = min(t_next, max(now, t_drain))
        elif total_rate > _EPS:
            t_finish = now + _takes(subflows[0], total_rate, excesses[0],
                                    nbytes - delivered)
            if t_finish <= t_next + _EPS:
                t_next = min(t_next, t_finish)
                finishing = True
        dt = max(0.0, t_next - now)
        if dt > 0.0:
            if curved and dt > engine._LOG_STEP_S:
                run._sample_curves(now, t_next, delivered, rates, excesses)
            for sf, rate, excess in zip(subflows, rates, excesses):
                if rate > 0.0:
                    delta = _delivers(sf, rate, excess, dt)
                    if sf.drain_target is not None:
                        delta = min(
                            delta, max(0.0, sf.drain_target - sf.delivered)
                        )
                    if delta > 0.0:
                        sf.delivered += delta
                        delivered += delta
                        sf.log.append((t_next, sf.delivered))
                        sent = int(round(sf.delivered))
                        if sent > sf.sent_bytes_int:
                            sf.sent_bytes_int = sent
                            sf.send_events += 1
            run.log.append((t_next, min(delivered, nbytes)))
        run.now = now = t_next
        if delivered >= nbytes - 0.5 and (finishing or (
            draining and not any(
                sf.drain_target is not None
                and sf.delivered < sf.drain_target - 0.5
                for sf in subflows
            )
        )):
            run.completed_at = now
            return
        if now >= deadline - _EPS:
            return
        fired = run.edge_i
        run._fire_due_edges()
        if run.edge_i != fired:
            draining = False
        for sf in subflows:
            if (
                not sf.established
                and sf.established_at is not None
                and sf.established_at <= now + _EPS
            ):
                sf.establish(now)
            elif (
                sf.next_ramp_at is not None
                and sf.next_ramp_at <= now + _EPS
            ):
                sf.ramp_step(now)
        run._refresh_gating()
    raise AssertionError("reference loop did not terminate")


@pytest.mark.parametrize("spec", golden_specs(), ids=lambda spec: spec.label)
def test_flat_loop_equals_the_method_loop_at_every_breakpoint(spec):
    flat = engine._FlowRun(spec, spec.seed, None)
    flat.run()
    reference = engine._FlowRun(spec, spec.seed, None)
    method_run(reference)
    # The raw logs hold every breakpoint at which a byte moved, before
    # densification rounds anything away.
    assert flat.log == reference.log
    assert [sf.log for sf in flat.subflows] == \
        [sf.log for sf in reference.subflows]
    assert flat.completed_at == reference.completed_at
    assert flat.report().to_dict() == reference.report().to_dict()


# ---------------------------------------------------------------------------
# Guards
# ---------------------------------------------------------------------------
def test_state_machine_attributes_are_closed():
    state = engine._PathState(FlowPathParams("p", 1e6, 0.03, 0.0))
    sf = engine._Subflow(0, state, TcpConfig(), "cubic", True, None)
    for obj, typo in ((state, "loss_rte"), (sf, "cwdn")):
        with pytest.raises(AttributeError):
            setattr(obj, typo, 1.0)  # a silent new field before __slots__


def test_runaway_loop_fails_typed_instead_of_spinning(monkeypatch):
    spec = next(s for s in golden_specs() if s.label == "three_paths")
    monkeypatch.setattr(engine, "_MAX_ITERATIONS", 5)
    with pytest.raises(ConfigurationError, match="exceeded 5 iterations"):
        Session().run(spec)
