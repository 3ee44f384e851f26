"""Golden app replays: §5's app-level answers, pinned across commits.

The companion of ``test_golden_reports.py`` one layer up: the 24
replays behind Fig. 18 (CNN launch, four locations × six
configurations) digested as ``(config, response_time_s,
connection_finish_times)`` rows.  A packet-core change that moves an
app-level result — a response time, or merely the instant one of the
19 connections finishes — says so here.  Re-record (``python
tests/workload/test_golden_app_replay.py``) only for a change that
*means* to alter the simulation, and say so.
"""

import hashlib
import json

from repro.core.rng import DEFAULT_SEED
from repro.experiments.fig18_19 import replay_grid
from repro.parallel import SweepRunner

#: Recorded at commit bcb7bbf from the serial ``run_all_configs`` loop
#: this grid replaced.
GOLDEN = "3a05a5037be7e0f18bb3ae441c54b45b53b9e1f9c78256b1a4233b0501dbcd85"


def replay_digest() -> str:
    grid = replay_grid("cnn_launch", DEFAULT_SEED, condition_count=4)
    results = SweepRunner(workers=1, cache=False).run(grid)
    rows = [
        (r.config_name, r.response_time_s,
         sorted(r.connection_finish_times.items()))
        for r in results
    ]
    assert len(rows) == 24 and all(r.completed for r in results)
    canonical = json.dumps(rows, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def test_fig18_replay_digest_is_unchanged():
    assert replay_digest() == GOLDEN


if __name__ == "__main__":  # re-record: prints the GOLDEN digest
    print(replay_digest())
