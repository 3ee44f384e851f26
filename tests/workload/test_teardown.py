"""No scenario outlives its run.

A scenario's loop, links, demuxes, timers and connections point into
each other through callbacks.  The owner of a run closes the scenario
once its report exists, so the whole graph is freed by reference
counting: with the cycle collector disabled, weak references to the
scenario and the connection are dead as soon as the run returns, and a
collection under ``DEBUG_SAVEALL`` finds no object of a ``repro`` type.
Every owner — ``Session.run``, a §5 replay, a policy probe, a §3.6
panel and the delayed-ACK ablation — opens its scenario through
``Session`` and closes it with ``with scenario:``, so a raise inside
the loop still closes it, and a closed scenario refuses new paths and
connections.
"""

import dataclasses
import gc
import tracemalloc
import weakref

import pytest

from repro.core.errors import SimulationError
from repro.core.events import noop
from repro.faults.spec import FaultEvent, FaultSpec
from repro.obs.trace import TraceRecorder
from repro.workload import ConditionSpec, PathSpec, Session, TransferSpec
from repro.workload.session import run_transfer_spec

pytestmark = pytest.mark.usefixtures("isolated_env")

FIXED = ConditionSpec(condition_id=903, paths=(
    PathSpec(name="wifi", technology="wifi", down_mbps=3.0, up_mbps=1.2,
             rtt_ms=28.0, queue_packets=12),
    PathSpec(name="lte", technology="lte", down_mbps=2.0, up_mbps=0.8,
             rtt_ms=72.0, queue_packets=16),
))


def _tcp(cc, **kwargs):
    return TransferSpec(kind="tcp", condition=FIXED, nbytes=40_000,
                        path="wifi", cc=cc, seed=5, **kwargs)


def _mptcp(cc="coupled", nbytes=40_000, seed=5, **kwargs):
    return TransferSpec(kind="mptcp", condition=FIXED, nbytes=nbytes,
                        primary="wifi", cc=cc, seed=seed, **kwargs)


CASES = {
    "tcp.reno": _tcp("reno"),
    "tcp.cubic": _tcp("cubic"),
    "tcp.up.delayed_acks": _tcp("cubic", direction="up",
                                config={"delayed_acks": True}),
    "mptcp.decoupled": _mptcp("decoupled"),
    "mptcp.coupled": _mptcp("coupled"),
    "mptcp.olia": _mptcp("olia"),
    "mptcp.backup": _mptcp(options={"mode": "backup"}),
    "mptcp.singlepath": _mptcp(options={"mode": "singlepath"}),
    "faults": _mptcp(deadline_s=5.0, faults=FaultSpec(events=(
        FaultEvent("blackhole", "lte", at_s=0.05, duration_s=0.4),
        FaultEvent("rate_collapse", "wifi", at_s=0.1, duration_s=0.5,
                   factor=0.2),
    ))),
    "deadline_expired": _mptcp(nbytes=400_000, deadline_s=0.3),
}


@pytest.fixture
def opened(monkeypatch):
    """Weak references to every scenario and connection a run opens."""
    refs = []
    real_open = Session.open

    def open_(self, *args, **kwargs):
        scenario, connection = real_open(self, *args, **kwargs)
        refs.append((weakref.ref(scenario), weakref.ref(connection)))
        return scenario, connection

    monkeypatch.setattr(Session, "open", open_)
    return refs


def _repro_garbage(run):
    """Objects of a ``repro`` type that only the cycle collector frees."""
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run()
        gc.collect()
        return sorted({type(obj).__qualname__ for obj in gc.garbage
                       if type(obj).__module__.startswith("repro")})
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


class Boom(Exception):
    pass


def _boom():
    raise Boom


def _collector_off(run):
    enabled = gc.isenabled()
    gc.disable()
    try:
        return run()
    finally:
        if enabled:
            gc.enable()


class TestSessionRun:
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_scenario_and_connection_die_on_return(self, name, opened):
        report = _collector_off(lambda: Session().run(CASES[name]))
        assert report.total_bytes == CASES[name].nbytes
        assert len(opened) == 1
        scenario, connection = opened[0]
        assert scenario() is None
        assert connection() is None

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_no_cyclic_garbage(self, name):
        assert _repro_garbage(lambda: Session().run(CASES[name])) == []

    def test_expected_outcomes(self):
        # The matrix covers what it says: a deadline that expires and
        # fault edges that fire.
        assert not Session().run(CASES["deadline_expired"]).completed
        assert len(Session().run(CASES["faults"]).faults) == 4

    def test_traced_run(self, opened):
        recorder = TraceRecorder()
        spec = CASES["mptcp.coupled"]
        _collector_off(lambda: Session().run(spec, recorder=recorder))
        assert recorder.kinds()["handshake"] == 2
        assert [ref() for pair in opened for ref in pair] == [None, None]
        assert _repro_garbage(
            lambda: Session().run(spec, recorder=TraceRecorder())) == []

    def test_a_run_that_raises_still_closes(self, monkeypatch):
        class FailingRecorder(TraceRecorder):
            def emit(self, kind, *args, **kwargs):
                if kind == "handshake":
                    raise Boom
                super().emit(kind, *args, **kwargs)

        scenarios = []
        real_open = Session.open

        def open_(self, *args, **kwargs):
            scenario, connection = real_open(self, *args, **kwargs)
            scenarios.append((scenario, connection))
            return scenario, connection

        monkeypatch.setattr(Session, "open", open_)
        with pytest.raises(Boom):
            Session().run(CASES["mptcp.coupled"], recorder=FailingRecorder())
        scenario, connection = scenarios[0]
        assert scenario.loop.pending() == 0
        with pytest.raises(SimulationError):
            scenario.loop.call_later(1.0, noop)
        for subflow in connection.subflows:
            assert subflow.on_data_arrived is noop
            assert subflow.sender.cc.coupling.members == []


def _replay(deadline_s=300.0):
    from repro.httpreplay.engine import replay_app

    return replay_app("cnn_click", 1, FIXED, "MPTCP-Coupled-LTE", seed=3,
                      deadline_s=deadline_s)


def _probe():
    from repro.policy.evaluation import probe_condition

    return probe_condition(FIXED, seed=3)


def _panel():
    from repro.experiments.fig15 import run_panel

    return run_panel("t", seed=3, nbytes=100_000, horizon_s=2.0,
                     condition=FIXED)


def _delack():
    from repro.experiments.ablations import run_delack_ablation

    return run_delack_ablation(seed=3, fast=True)


#: The owners besides ``Session.run`` (whose raise case is above), each
#: opening its scenario through ``Session``.
OWNERS = {
    "replay": _replay,
    "policy.probe": _probe,
    "fig15.run_panel": _panel,
    "ablation_delack": _delack,
}


class TestOtherOwners:
    def _capture(self, monkeypatch, keep=False, boom_at=None):
        """Every scenario the one builder makes: weak references, or the
        scenarios themselves with ``keep``.  With ``boom_at``, each
        scenario's loop raises :class:`Boom` at that simulated time."""
        from repro.workload import session

        built = []
        real = session.mpshell

        def mpshell(*args, **kwargs):
            scenario = real(*args, **kwargs)
            if boom_at is not None:
                scenario.loop.call_at(boom_at, _boom)
            built.append(scenario if keep else weakref.ref(scenario))
            return scenario

        monkeypatch.setattr(session, "mpshell", mpshell)
        return built

    @pytest.mark.parametrize("deadline_s", [300.0, 0.3])
    def test_app_replay(self, monkeypatch, deadline_s):
        refs = self._capture(monkeypatch)
        result = _collector_off(lambda: _replay(deadline_s))
        assert result.completed == (deadline_s > 1.0)
        assert [ref() for ref in refs] == [None]
        assert _repro_garbage(lambda: _replay(deadline_s)) == []

    def test_policy_probe(self, monkeypatch):
        refs = self._capture(monkeypatch)
        _collector_off(_probe)
        assert [ref() for ref in refs] == [None]
        assert _repro_garbage(_probe) == []

    def test_fig15_panel(self, monkeypatch):
        refs = self._capture(monkeypatch)
        panel = _collector_off(_panel)
        assert panel.completed_at is not None
        assert [ref() for ref in refs] == [None]
        assert _repro_garbage(_panel) == []

    def test_delack_ablation(self, monkeypatch):
        refs = self._capture(monkeypatch)
        result = _collector_off(_delack)
        assert result.metrics["delack_halves_ack_traffic"] == 1.0
        assert [ref() for ref in refs] == [None, None]
        assert _repro_garbage(_delack) == []

    @pytest.mark.parametrize("owner", sorted(OWNERS))
    def test_a_raise_in_the_loop_still_closes(self, monkeypatch, owner):
        scenarios = self._capture(monkeypatch, keep=True, boom_at=0.05)
        with pytest.raises(Boom):
            OWNERS[owner]()
        (scenario,) = scenarios
        assert scenario.loop.pending() == 0
        with pytest.raises(SimulationError, match="closed"):
            scenario.loop.call_later(1.0, noop)


class TestClosedScenarioRefusesUse:
    """A closed scenario's links have no sink: building on it raises
    at once rather than when the transfer first sends."""

    @pytest.fixture
    def closed(self):
        scenario, _ = Session().open(CASES["tcp.cubic"])
        scenario.close()
        return scenario

    def test_tcp(self, closed):
        with pytest.raises(SimulationError, match="scenario is closed"):
            closed.tcp("wifi", 1000)

    def test_mptcp(self, closed):
        with pytest.raises(SimulationError, match="scenario is closed"):
            closed.mptcp(1000)

    def test_add_path(self, closed):
        config = FIXED.paths[0].to_path_config(closed.rng)
        with pytest.raises(SimulationError, match="scenario is closed"):
            closed.add_path(dataclasses.replace(config, name="wifi2"))

    def test_add_background_flow(self, closed):
        with pytest.raises(SimulationError, match="scenario is closed"):
            closed.add_background_flow("lte")


class TestClosingBreaksNothing:
    def test_open_caller_drives_inspects_then_closes(self):
        scenario, connection = Session().open(CASES["mptcp.coupled"])
        result = scenario.run_transfer(connection)
        assert result.completed
        assert scenario.loop.now > result.completed_at  # FIN drain ran
        live = scenario.result_of(connection)
        scenario.close()
        after = scenario.result_of(connection)
        assert after.completed_at == live.completed_at
        assert after.delivery_log == live.delivery_log
        assert connection.stats().bytes_delivered == 40_000
        with pytest.raises(SimulationError, match="closed"):
            scenario.loop.call_at(scenario.loop.now + 1.0, noop)

    def test_report_is_the_same_with_or_without_close(self):
        spec = CASES["faults"]
        scenario, connection = Session().open(spec)
        result = scenario.run_transfer(connection, deadline_s=spec.deadline_s,
                                       partial_ok=True)
        assert result.delivery_log == Session().run(spec).delivery_log


def test_serial_worker_memory_stays_flat():
    """Transfers 200-1000 of a serial worker loop hold no garbage.

    On this loop, traced memory above its level at transfer 200 peaked
    at 200-470 KiB while each transfer's cyclic garbage waited for the
    collector, and at ~30 KiB once each scenario is freed on return.
    """
    specs = [_mptcp(cc, nbytes=10 * 1024, seed=seed)
             for seed in range(500) for cc in ("coupled", "decoupled")]
    bound = 128 * 1024
    tracemalloc.start()
    try:
        for index, spec in enumerate(specs, 1):
            run_transfer_spec(spec)
            if index == 200:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - base < bound, (peak - base, current - base)
    assert current - base < bound
