"""Property-based end-to-end reliability tests.

The fundamental transport invariant: whatever the loss pattern, queue
depth, or link asymmetry, a transfer either completes with *exactly*
the requested bytes delivered in order, or visibly does not complete —
never silent corruption, duplication in the delivered stream, or
over-delivery.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import MptcpOptions, PathConfig, Scenario


transfer_params = st.fixed_dictionaries({
    "nbytes": st.integers(min_value=1, max_value=400_000),
    "down_mbps": st.floats(min_value=0.5, max_value=30.0),
    "rtt_ms": st.floats(min_value=5.0, max_value=300.0),
    "loss": st.sampled_from([0.0, 0.001, 0.01, 0.05]),
    "queue": st.integers(min_value=5, max_value=400),
    "seed": st.integers(min_value=0, max_value=10_000),
})


class TestTcpReliability:
    @given(transfer_params)
    @settings(max_examples=40, deadline=None)
    def test_exact_in_order_delivery(self, params):
        scenario = Scenario(seed=params["seed"])
        scenario.add_path(PathConfig(
            name="wifi",
            down_mbps=params["down_mbps"],
            up_mbps=max(0.25, params["down_mbps"] / 2),
            rtt_ms=params["rtt_ms"],
            loss_rate=params["loss"],
            queue_packets=params["queue"],
        ))
        connection = scenario.tcp("wifi", params["nbytes"])
        result = scenario.run_transfer(connection, deadline_s=300.0)
        assert result.completed, params
        assert connection.bytes_delivered == params["nbytes"]
        # The delivery log never exceeds the transfer size and is
        # strictly monotone.
        cums = [c for _, c in connection.delivery_log]
        assert cums == sorted(cums)
        assert cums[-1] == params["nbytes"]


mptcp_params = st.fixed_dictionaries({
    "nbytes": st.integers(min_value=1, max_value=400_000),
    "wifi_mbps": st.floats(min_value=0.5, max_value=20.0),
    "lte_mbps": st.floats(min_value=0.5, max_value=20.0),
    "loss": st.sampled_from([0.0, 0.005, 0.02]),
    "primary": st.sampled_from(["wifi", "lte"]),
    "cc": st.sampled_from(["coupled", "decoupled"]),
    "seed": st.integers(min_value=0, max_value=10_000),
})


class TestMptcpReliability:
    @given(mptcp_params)
    @settings(max_examples=30, deadline=None)
    def test_exact_delivery_over_two_paths(self, params):
        scenario = Scenario(seed=params["seed"])
        scenario.add_path(PathConfig(
            name="wifi", down_mbps=params["wifi_mbps"],
            up_mbps=max(0.25, params["wifi_mbps"] / 2),
            rtt_ms=35.0, loss_rate=params["loss"], queue_packets=120,
        ))
        scenario.add_path(PathConfig(
            name="lte", down_mbps=params["lte_mbps"],
            up_mbps=max(0.25, params["lte_mbps"] / 2),
            rtt_ms=90.0, queue_packets=500,
        ))
        options = MptcpOptions(primary=params["primary"],
                               congestion_control=params["cc"])
        connection = scenario.mptcp(params["nbytes"], options=options)
        result = scenario.run_transfer(connection, deadline_s=300.0)
        assert result.completed, params
        assert connection.bytes_delivered == params["nbytes"]

    @given(
        st.integers(min_value=10_000, max_value=300_000),
        st.floats(min_value=0.05, max_value=2.0),
        st.integers(min_value=0, max_value=5_000),
    )
    @settings(max_examples=25, deadline=None)
    def test_failover_mid_transfer_never_corrupts(self, nbytes, fail_at,
                                                  seed):
        """Administratively killing a path mid-transfer must still
        deliver every byte exactly once via the surviving path."""
        from repro.faults import FaultEvent, FaultSpec

        scenario = Scenario(seed=seed)
        scenario.add_path(PathConfig(name="wifi", down_mbps=6.0, up_mbps=3.0,
                                     rtt_ms=35.0, queue_packets=120))
        scenario.add_path(PathConfig(name="lte", down_mbps=5.0, up_mbps=2.5,
                                     rtt_ms=90.0, queue_packets=400))
        scenario.inject_faults(FaultSpec(events=(
            FaultEvent("iface_down", "wifi", at_s=fail_at),)))
        connection = scenario.mptcp(
            nbytes, options=MptcpOptions(primary="wifi"))
        result = scenario.run_transfer(connection, deadline_s=120.0)
        assert result.completed
        assert connection.bytes_delivered == nbytes
