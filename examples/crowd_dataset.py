#!/usr/bin/env python3
"""Generate and analyze the synthetic Cell vs WiFi crowdsourced dataset.

Reads the paper's dataset off the front of the synthetic crowd (every
run walks the app's Fig. 2 flowchart; each site is kept until it has
its Table-1 count of usable runs), applies the paper's §2.2 filters, clusters runs geographically (Table 1), and
prints the headline aggregates.  Optionally exports the dataset as CSV
(the format the paper released its data in).

Run:  python examples/crowd_dataset.py [output.csv]
"""

import sys

from repro.analysis.report import Table
from repro.crowd import Dataset, cluster_runs, table1_runs
from repro.crowd.world import TABLE1_SITES


def main() -> None:
    print("Collecting crowdsourced measurements "
          f"({len(TABLE1_SITES)} sites)...")
    dataset = Dataset(table1_runs())
    analysis = dataset.analysis_set()
    print(f"  raw uploads:        {len(dataset)}")
    print(f"  after §2.2 filters: {len(analysis)} "
          "(complete runs on LTE/HSPA+ only)")
    print()

    table = Table(["location", "(lat, long)", "# runs", "LTE %"],
                  title="Location groups (k-means, r = 100 km)")
    clusters = cluster_runs(analysis.runs)
    for cluster in clusters:
        nearest = min(TABLE1_SITES,
                      key=lambda s: cluster.center.distance_km(s.point))
        table.add_row([
            nearest.name,
            f"({cluster.center.lat:.1f}, {cluster.center.lon:.1f})",
            cluster.size,
            f"{100 * cluster.lte_win_fraction():.0f}%",
        ])
    print(table.render())
    print()
    print("Headline aggregates (paper values in parentheses):")
    print(f"  LTE beats WiFi, uplink:   "
          f"{100 * analysis.lte_win_fraction_uplink():.0f}%  (42%)")
    print(f"  LTE beats WiFi, downlink: "
          f"{100 * analysis.lte_win_fraction_downlink():.0f}%  (35%)")
    print(f"  LTE beats WiFi, combined: "
          f"{100 * analysis.lte_win_fraction_combined():.0f}%  (40%)")
    diffs = analysis.rtt_diffs()
    lte_lower = sum(1 for d in diffs if d > 0) / len(diffs)
    print(f"  LTE has lower ping RTT:   {100 * lte_lower:.0f}%  (20%)")

    if len(sys.argv) > 1:
        path = sys.argv[1]
        with open(path, "w") as handle:
            handle.write(dataset.to_csv())
        print(f"\nFull dataset written to {path}")


if __name__ == "__main__":
    main()
