"""``_densify`` against the version it replaced, kept here as the oracle.

The engine's ``_densify`` walks a log once, carrying the previous point
instead of indexing back to it, with the appends bound and ``round``
for ``int(round())``.  Every float operation kept its order, so both
columns must come out identical, not merely close: over drawn
breakpoint lists built to hit the grid's edge cases, and over the raw
logs of every golden spec.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.throughput import DeliveryLog
from repro.flow import engine
from tests.flow.test_golden_flow import golden_specs

_EPS = engine._EPS
_STEP = engine._LOG_STEP_S


def reference_densify(points):
    """The loop as it read before the one-pass rewrite."""
    times, cums = [], []
    last_bytes = -1
    for i, (t, cum) in enumerate(points):
        if i > 0:
            t0, c0 = points[i - 1]
            span = t - t0
            if span > _STEP and cum > c0:
                steps = int(span / _STEP)
                for k in range(1, steps + 1):
                    tk = t0 + k * _STEP
                    if tk >= t - _EPS:
                        break
                    ck = int(round(c0 + (cum - c0) * (tk - t0) / span))
                    if ck > last_bytes:
                        times.append(tk)
                        cums.append(ck)
                        last_bytes = ck
        ci = int(round(cum))
        if ci > last_bytes or not times:
            times.append(t)
            cums.append(ci)
            last_bytes = ci
    return DeliveryLog(times, cums)


def _columns(log):
    return list(log.times), list(log.cums)


#: Gaps between breakpoints: on a grid multiple, a hair either side of
#: one (grid points landing within ``_EPS`` of the span's end), and
#: anything shorter or longer than a step.
_GRID_OFFSETS = (-2 * _EPS, -_EPS, -_EPS / 2, -1e-12, 0.0, 1e-12, _EPS / 2,
                 _EPS, 2 * _EPS)
_GAPS = st.one_of(
    st.builds(lambda k, d: k * _STEP + d, st.integers(1, 8),
              st.sampled_from(_GRID_OFFSETS)),
    st.floats(1e-12, _STEP),
    st.floats(_STEP, 2.0),
).filter(lambda gap: gap > 0.0)

#: Byte increments: none (flat spans), sub-byte (rounding ties), whole
#: integers (the engine logs ``nbytes`` as an int), and large floats.
_RISES = st.one_of(
    st.just(0.0),
    st.floats(0.0, 3.0),
    st.integers(0, 5_000),
    st.floats(0.0, 1e6),
)


@st.composite
def breakpoint_lists(draw):
    t = draw(st.one_of(st.just(0.0), st.floats(0.0, 10.0)))
    cum = draw(st.one_of(st.just(0.0), st.floats(0.0, 1e5)))
    points = [(t, cum)]
    for _ in range(draw(st.integers(0, 12))):
        t += draw(_GAPS)
        cum += draw(_RISES)
        points.append((t, cum))
    return points


@settings(max_examples=400, deadline=None)
@given(points=breakpoint_lists())
def test_drawn_breakpoints_densify_identically(points):
    assert _columns(engine._densify(points)) == \
        _columns(reference_densify(points))


def test_an_empty_log_densifies_to_an_empty_log():
    assert _columns(engine._densify([])) == ([], [])


@pytest.mark.parametrize("spec", golden_specs(), ids=lambda spec: spec.label)
def test_golden_raw_logs_densify_identically(spec):
    run = engine._FlowRun(spec, spec.seed, None)
    run.run()
    for log in [run.log] + [sf.log for sf in run.subflows]:
        assert _columns(engine._densify(log)) == \
            _columns(reference_densify(log))
