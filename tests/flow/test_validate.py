"""The analytic model's invariants and the cross-fidelity error bounds."""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.flow.model import (
    DRAIN_QUEUE_FILL,
    FlowPathParams,
    LIA_FACTOR,
    ge_stationary_loss,
    loss_limited_bytes_s,
    loss_transient_factor,
    share_terms,
)
from repro.flow.validate import (
    DEFAULT_ERROR_BOUND,
    FIGURE_CLASSES,
    PER_CONDITION_ERROR_BOUND,
    VALIDATION_SIZES,
    validate_fidelity,
    validation_conditions,
)
from repro.linkem.conditions import make_conditions
from repro.tcp.config import TcpConfig

CONFIG = TcpConfig()


def _goodput(wire, rtt, loss, segments=math.inf):
    return share_terms(wire, rtt, loss, CONFIG, "cubic", 0).goodput(segments)


def _pipe(rate, rtt, loss, queue):
    return share_terms(0.0, rtt, loss, CONFIG, "cubic", queue).pipe(rate)


# ---------------------------------------------------------------------------
# Model invariants
# ---------------------------------------------------------------------------
def test_loss_limit_lossless_is_unbounded():
    assert loss_limited_bytes_s(1448, 0.05, 0.0, "cubic") == math.inf


def test_loss_limit_decreases_with_loss():
    lo = loss_limited_bytes_s(1448, 0.05, 0.003, "cubic")
    hi = loss_limited_bytes_s(1448, 0.05, 0.02, "cubic")
    assert 0 < hi < lo


def test_coupled_scales_by_lia_factor():
    reno = loss_limited_bytes_s(1448, 0.05, 0.01, "decoupled")
    coupled = loss_limited_bytes_s(1448, 0.05, 0.01, "coupled")
    assert coupled == pytest.approx(reno * LIA_FACTOR)


def test_steady_goodput_below_wire_rate():
    wire = 10e6 / 8.0
    goodput = _goodput(wire, 0.04, 0.0)
    assert 0 < goodput < wire
    # Header overhead alone discounts by mss/(mss+40).
    assert goodput == pytest.approx(
        wire * CONFIG.mss_bytes / (CONFIG.mss_bytes + 40)
    )


def test_loss_transient_phases_in_loss_limit():
    wire = 40e6 / 8.0
    early = _goodput(wire, 0.04, 0.01, segments=0.0)
    late = _goodput(wire, 0.04, 0.01, segments=1e9)
    assert late < early
    assert loss_transient_factor(0.0, 0.01) == pytest.approx(1.0)
    assert loss_transient_factor(1e9, 0.01) == pytest.approx(0.0)
    assert loss_transient_factor(100.0, 0.0) == 0.0


@settings(max_examples=100, deadline=None, derandomize=True)
@given(loss=st.floats(0.0005, 0.05), rtt=st.floats(0.01, 0.3),
       wire=st.floats(1e5, 1e7), share=st.floats(0.0, 1.0),
       dt=st.floats(1e-4, 10.0))
def test_transient_closed_form_solves_the_share_equation(
        loss, rtt, wire, share, dt):
    terms = share_terms(wire, rtt, loss, CONFIG, "cubic", 100)
    assume(terms.decays)
    lam = terms.decay_per_byte
    assert lam == loss / (CONFIG.mss_bytes * 3.0)
    excess = (terms.cap - terms.converged) * share
    delivered = terms.transient_bytes(excess, dt)
    # dD/dt = converged + excess·exp(−λD), by classical Runge–Kutta.
    rate = lambda d: terms.converged + excess * math.exp(-lam * d)
    steps = 2000
    h, reference = dt / steps, 0.0
    for _ in range(steps):
        k1 = rate(reference)
        k2 = rate(reference + h / 2 * k1)
        k3 = rate(reference + h / 2 * k2)
        k4 = rate(reference + h * k3)
        reference += h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    assert delivered == pytest.approx(reference, rel=1e-6)
    assert terms.transient_seconds(excess, delivered) == \
        pytest.approx(dt, rel=1e-9)
    # Restarting from any point of the curve continues it.
    half = terms.transient_bytes(excess, dt / 2)
    rest = terms.transient_bytes(excess * math.exp(-lam * half), dt / 2)
    assert half + rest == pytest.approx(delivered, rel=1e-12)


def test_pipe_capacity_includes_bloated_queue():
    rate = 5e6 / 8.0
    bdp = rate * 0.05
    pipe = _pipe(rate, 0.05, 0.0, 250)
    assert pipe == pytest.approx(
        bdp + 250 * (CONFIG.mss_bytes + 40) * DRAIN_QUEUE_FILL
    )
    deeper = _pipe(rate, 0.05, 0.0, 500)
    assert deeper > pipe


def test_pipe_capacity_clamped_by_loss_window():
    rate = 50e6 / 8.0
    lossy = _pipe(rate, 0.05, 0.02, 250)
    assert lossy == pytest.approx(
        loss_limited_bytes_s(CONFIG.mss_bytes, 0.05, 0.02, "cubic") * 0.05
    )
    assert _pipe(0.0, 0.05, 0.0, 250) == 0.0


def test_ge_stationary_loss_between_states():
    loss = ge_stationary_loss(0.005, 0.2, 0.0, 0.3)
    assert 0.0 < loss < 0.3
    # Degenerate chain: no transitions, stay in the good state.
    assert ge_stationary_loss(0.0, 0.0, 0.001, 0.3) == 0.001


def test_flow_path_params_defaults():
    params = FlowPathParams("wifi", 1e6, 0.03, 0.0)
    assert params.queue_packets == 250


# ---------------------------------------------------------------------------
# Cross-fidelity error bounds (CI-sized subset of repro.flow.validate)
# ---------------------------------------------------------------------------
def test_flow_aggregates_track_packet_engine():
    sizes = {k: v for k, v in VALIDATION_SIZES.items() if k != "4MB"}
    report = validate_fidelity(
        conditions=validation_conditions(2), sizes=sizes
    )
    # Every figure class × size cell stays inside the calibrated
    # bounds; assert_ok raises with the offending cells on failure.
    assert report.class_bound == DEFAULT_ERROR_BOUND
    assert report.condition_bound == PER_CONDITION_ERROR_BOUND
    report.assert_ok()
    assert report.ok
    assert len(report.classes) == 4 * len(sizes)
    # The flow engine must actually be the fast path.
    assert report.flow_wall_s < report.packet_wall_s
    # Durations track too (inverted metric, so the bound maps to
    # |1/(1+e) - 1| with |e| <= PER_CONDITION_ERROR_BOUND).
    duration_bound = 1.0 / (1.0 - PER_CONDITION_ERROR_BOUND) - 1.0
    for cls in report.classes:
        for case in cls.cases:
            assert abs(case.duration_error) <= duration_bound


def test_flow_tracks_packet_engine_over_every_registry_condition():
    """The bounds over all 20 Table-2 locations, not the four they were
    fit on: worst class mean 8.3 %, worst condition 38.6 % when
    recorded (the 4 MB leg is left to ``python -m repro.flow.validate``)."""
    conditions = make_conditions()
    report = validate_fidelity(
        conditions=conditions, classes=FIGURE_CLASSES,
        sizes={"100KB": 100_000, "1MB": 1_000_000},
    )
    assert report.condition_count == len(conditions) == 20
    assert len(report.classes) == len(FIGURE_CLASSES) * 2
    report.assert_ok()
