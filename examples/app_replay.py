#!/usr/bin/env python3
"""Record-and-replay a mobile app over emulated WiFi + LTE.

Records the synthetic CNN-launch (short-flow dominated) and
Dropbox-click (long-flow dominated) sessions, replays each under the
paper's six transport configurations at one emulated location, and
prints per-configuration app response times plus the oracle analysis —
the §5 methodology end to end.

Run:  python examples/app_replay.py
"""

from repro.analysis.report import Table
from repro.httpreplay import (
    ReplayEngine,
    STANDARD_CONFIGS,
    classify_session,
    cnn_launch,
    dropbox_click,
    oracle_response_times,
)
from repro.linkem.conditions import make_conditions


def replay_session(session, condition) -> None:
    print(f"--- {session} [{classify_session(session).value}] "
          f"at condition #{condition.condition_id} ---")
    engine = ReplayEngine(condition)
    table = Table(["configuration", "app response time (s)", "completed"])
    times = {}
    for config in STANDARD_CONFIGS:
        result = engine.run(session, config)  # fresh network each time
        times[config.name] = result.response_time_s
        table.add_row([config.name, result.response_time_s,
                       "yes" if result.completed else "NO"])
    print(table.render())

    oracles = oracle_response_times(times)
    baseline = times["WiFi-TCP"]
    oracle_table = Table(["oracle", "response (s)", "vs WiFi-TCP"])
    for name, value in oracles.items():
        oracle_table.add_row([name, value, f"{value / baseline:.2f}x"])
    print(oracle_table.render())
    print()


def main() -> None:
    conditions = make_conditions()
    # Condition 1: WiFi much faster.  Condition 3: LTE much faster.
    for condition_index in (0, 2):
        condition = conditions[condition_index]
        replay_session(cnn_launch(), condition)
        replay_session(dropbox_click(), condition)


if __name__ == "__main__":
    main()
