"""Backup-mode failover under a silent WiFi blackhole (Fig. 15g/h).

The paper's Fig. 15g shows what a silent unplug does to Backup mode:
the client emits exactly one TCP window update on the backup subflow,
then halts.  Here the blackhole is permanent, so the primary subflow
eventually exhausts its data retries and the connection *fails over*
to the backup — the sequence the declarative fault layer exists to
reproduce.  The same schedule must also be bit-identical across
worker counts, since a FaultSpec rides inside the TransferSpec that
keys every sweep task.
"""

import pytest

from repro.core.packet import PacketFlags
from repro.energy.monitor import activity_logs
from repro.experiments.common import mptcp_spec
from repro.experiments.fig15 import TESTBED
from repro.faults import FaultEvent, FaultSpec
from repro.tcp.config import TcpConfig
from repro.workload import Session

KB = 1024

#: Aggressive mobile retry budget so retry exhaustion (and hence
#: failover) happens within a few simulated seconds.
_FAST_FAILOVER = TcpConfig(max_rto_s=4.0, max_data_retries=6)


pytestmark = pytest.mark.usefixtures("isolated_env")


def _blackhole_spec(seed: int, nbytes: int = 1024 * KB):
    """Backup mode, WiFi primary; WiFi silently blackholes at t=2s."""
    return mptcp_spec(
        TESTBED, "wifi", "decoupled", nbytes, seed=seed, deadline_s=90.0,
        options={"mode": "backup"}, config=_FAST_FAILOVER,
        label=f"fig15g-blackhole-{seed}",
    ).with_faults(FaultSpec(
        label="silent WiFi blackhole at t=2s",
        events=(FaultEvent(kind="blackhole", path="wifi", at_s=2.0),),
    ))


class TestFig15gSequence:
    @pytest.fixture(scope="class")
    def driven(self):
        """One manually-driven run with per-interface packet logs."""
        session = Session()
        spec = _blackhole_spec(seed=5)
        scenario, connection = session.open(spec)
        logs = activity_logs(scenario)
        connection.start()
        connection.close()
        scenario.loop.run(until=90.0)
        return scenario, connection, logs

    def test_lone_window_update_on_backup(self, driven):
        _, _, logs = driven
        updates = logs["lte"].times_with_flag(PacketFlags.WINDOW_UPDATE)
        assert len(updates) == 1
        assert updates[0] > 2.0

    def test_primary_goes_silent_after_blackhole(self, driven):
        _, _, logs = driven
        # The blackhole eats in-flight packets: the client never
        # *receives* anything on WiFi after t=2s (it keeps
        # retransmitting into the hole for a while).
        wifi_rx = [t for t, _, _, direction in logs["wifi"].events
                   if direction == "rx"]
        assert wifi_rx and max(wifi_rx) < 2.5

    def test_failover_completes_on_backup(self, driven):
        _, connection, logs = driven
        assert connection.complete
        lte_data = [t for t, _, payload, _ in logs["lte"].events
                    if payload > 0]
        # Data moves to LTE only after the retry budget burns down
        # (several back-to-back RTOs), never instantly.
        assert lte_data and min(lte_data) > 5.0

    def test_fault_edge_recorded(self, driven):
        scenario, _, _ = driven
        assert scenario.applied_faults() == [
            {"t": 2.0, "edge": "inject", "index": 0, "kind": "blackhole",
             "path": "wifi"},
        ]


class TestWorkerCountInvariance:
    def test_reports_bit_identical_across_workers_1_and_4(self):
        specs = [_blackhole_spec(seed=seed) for seed in (1, 2, 3, 4)]
        serial = Session().run_many(specs, workers=1, cache=False)
        parallel = Session().run_many(specs, workers=4, cache=False)
        assert serial == parallel
        for report in serial:
            assert report.completed
            assert [f["kind"] for f in report.faults] == ["blackhole"]
