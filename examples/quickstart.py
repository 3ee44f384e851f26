#!/usr/bin/env python3
"""Quickstart: WiFi, LTE, or both?

Builds a multi-homed client (a WiFi and an LTE path), downloads 1 MB
with single-path TCP on each network and with the four MPTCP variants
the paper studies, and prints the comparison — a miniature of the
paper's central question.

Run:  python examples/quickstart.py
"""

from repro import MptcpOptions, PathConfig, Scenario
from repro.analysis.report import Table

ONE_MBYTE = 1024 * 1024


def cafe_scenario() -> Scenario:
    """A client in a cafe: decent WiFi, slightly slower LTE."""
    scenario = Scenario(seed=1)
    scenario.add_path(PathConfig(
        name="wifi", down_mbps=12.0, up_mbps=6.0, rtt_ms=35.0,
        queue_packets=150,
    ))
    scenario.add_path(PathConfig(
        name="lte", down_mbps=8.0, up_mbps=4.0, rtt_ms=80.0,
        queue_packets=700,  # LTE buffers are deep (bufferbloat)
    ))
    return scenario


def main() -> None:
    table = Table(
        ["configuration", "duration (s)", "throughput (Mbit/s)"],
        title=f"Downloading {ONE_MBYTE // 1024} KB over emulated WiFi + LTE",
    )

    for path in ("wifi", "lte"):
        scenario = cafe_scenario()
        result = scenario.run_transfer(scenario.tcp(path, ONE_MBYTE))
        table.add_row([f"TCP over {path.upper()}", result.duration_s,
                       result.throughput_mbps])

    for primary in ("wifi", "lte"):
        for cc in ("coupled", "decoupled"):
            scenario = cafe_scenario()
            options = MptcpOptions(primary=primary, congestion_control=cc)
            connection = scenario.mptcp(ONE_MBYTE, options=options)
            result = scenario.run_transfer(connection)
            table.add_row([
                f"MPTCP ({primary.upper()} primary, {cc})",
                result.duration_s, result.throughput_mbps,
            ])

    print(table.render())
    print()
    print("Things to notice (cf. Deng et al., IMC'14):")
    print(" * MPTCP aggregates both links for this 1 MB flow;")
    print(" * the primary-subflow choice shifts the ramp-up;")
    print(" * try total_bytes=10*1024 — single-path TCP on the best")
    print("   network then matches or beats every MPTCP variant.")


if __name__ == "__main__":
    main()
