"""Figure 7: MPTCP vs single-path TCP throughput as flow size grows.

Two qualitatively different regimes:

* **Fig. 7a** — a location with a large WiFi/LTE disparity: MPTCP is
  worse than the best single-path TCP at *every* flow size.
* **Fig. 7b** — comparable links: MPTCP beats the best single-path TCP
  for large flows, but single-path still wins for small ones.

Flow-size curves come from a single 1 MB transfer per configuration:
the throughput at flow size *s* is the average throughput over the
first *s* delivered bytes (the paper measures flow size "using the
cumulative number of bytes acknowledged").
"""

from typing import Dict, List, Optional, Tuple

from repro.analysis.plotting import ascii_series
from repro.core.rng import DEFAULT_SEED
from repro.experiments.common import (
    Claim,
    ExperimentResult,
    MPTCP_VARIANTS,
    TCP_VARIANTS,
    _SESSION,
    configuration_specs,
    register,
)
from repro.linkem.conditions import ConditionSpec, make_conditions

__all__ = ["run", "flow_size_sweep", "SWEEP_SIZES_KB"]

ONE_MBYTE = 1_048_576
SWEEP_SIZES_KB = [1, 2, 5, 10, 20, 50, 100, 200, 500, 1024]


TCP_NAMES = [label for label, _ in TCP_VARIANTS]
MPTCP_NAMES = [label for label, _, _ in MPTCP_VARIANTS]


def _curve(report, sizes_kb: List[int]) -> List[Tuple[float, float]]:
    """(flow size KB, throughput Mbps) read off one transfer's ACK log."""
    points = []
    for kb in sizes_kb:
        tput = report.throughput_at_bytes(kb * 1024)
        if tput is not None:
            points.append((float(kb), tput))
    return points


def _curves(reports, sizes_kb: List[int]) -> Dict[str, List[Tuple[float, float]]]:
    """One :func:`_curve` per configuration, keyed by its label."""
    return {
        label: _curve(report, sizes_kb)
        for label, report in zip(TCP_NAMES + MPTCP_NAMES, reports)
    }


def flow_size_sweep(
    condition: ConditionSpec,
    seed: int,
    sizes_kb: Optional[List[int]] = None,
) -> Dict[str, List[Tuple[float, float]]]:
    """(flow size KB, throughput Mbps) series for the six configs."""
    sizes_kb = sizes_kb if sizes_kb is not None else SWEEP_SIZES_KB
    reports = _SESSION.run_many(
        configuration_specs(condition, ONE_MBYTE, seed=seed))
    return _curves(reports, sizes_kb)


def _at_size(series: Dict[str, List[Tuple[float, float]]], kb: float, name: str) -> float:
    for x, y in series[name]:
        if x == kb:
            return y
    return 0.0


def _best(series, kb: float, names) -> float:
    return max(_at_size(series, kb, name) for name in names)


@register("fig07")
def run(seed: int = DEFAULT_SEED, fast: bool = False) -> ExperimentResult:
    conditions = make_conditions(seed=seed)
    disparate = conditions[0]   # ID 1: WiFi >> LTE
    comparable = next(
        c for c in conditions
        if 0.5 <= c.lte.down_mbps / c.wifi.down_mbps <= 2.0
    )
    sizes = [1, 10, 100, 1024] if fast else SWEEP_SIZES_KB

    # Both panels' transfers go through one sweep so all twelve
    # independent simulations can run concurrently.
    specs_a = configuration_specs(disparate, ONE_MBYTE, seed=seed)
    specs_b = configuration_specs(comparable, ONE_MBYTE, seed=seed)
    reports = _SESSION.run_many(specs_a + specs_b)
    sweep_a = _curves(reports[:len(specs_a)], sizes)
    sweep_b = _curves(reports[len(specs_a):], sizes)

    body = "\n".join([
        f"(a) Disparate links — condition #{disparate.condition_id} "
        f"(WiFi {disparate.wifi.down_mbps:.1f} vs LTE {disparate.lte.down_mbps:.1f} Mbps)",
        ascii_series(sweep_a, x_label="flow size (KB)", y_label="tput Mbps"),
        "",
        f"(b) Comparable links — condition #{comparable.condition_id} "
        f"(WiFi {comparable.wifi.down_mbps:.1f} vs LTE {comparable.lte.down_mbps:.1f} Mbps)",
        ascii_series(sweep_b, x_label="flow size (KB)", y_label="tput Mbps"),
    ])

    last_kb = float(sizes[-1])
    small_kb = 10.0 if 10 in sizes else float(sizes[0])
    metrics = {
        # 7a: best MPTCP stays below best TCP even at 1 MB.
        "a_best_mptcp_over_best_tcp_at_1MB": (
            _best(sweep_a, last_kb, MPTCP_NAMES)
            / _best(sweep_a, last_kb, TCP_NAMES)
        ),
        # 7b: best MPTCP beats best TCP at 1 MB...
        "b_best_mptcp_over_best_tcp_at_1MB": (
            _best(sweep_b, last_kb, MPTCP_NAMES)
            / _best(sweep_b, last_kb, TCP_NAMES)
        ),
        # ...but best TCP wins for small flows in both regimes.
        "a_best_tcp_over_best_mptcp_at_10KB": (
            _best(sweep_a, small_kb, TCP_NAMES)
            / max(_best(sweep_a, small_kb, MPTCP_NAMES), 1e-9)
        ),
        "b_best_tcp_over_best_mptcp_at_10KB": (
            _best(sweep_b, small_kb, TCP_NAMES)
            / max(_best(sweep_b, small_kb, MPTCP_NAMES), 1e-9)
        ),
    }
    # The paper states who wins, not by how much: no paper number.
    claims = [
        # 7a: with disparate links, MPTCP never beats the best TCP.
        Claim("a_best_mptcp_over_best_tcp_at_1MB", "at most", 1.0,
              strict=True),
        # 7b: with comparable links, MPTCP wins at 1 MB.
        Claim("b_best_mptcp_over_best_tcp_at_1MB", "at least", 1.0),
        # Small flows: best single-path TCP at least ties everywhere.
        Claim("a_best_tcp_over_best_mptcp_at_10KB", "at least", 0.999, paper=1.0),
        Claim("b_best_tcp_over_best_mptcp_at_10KB", "at least", 0.999, paper=1.0),
    ]
    return ExperimentResult(
        experiment_id="fig07",
        title="MPTCP vs single-path TCP throughput by flow size",
        body=body,
        metrics=metrics,
        claims=claims,
    )
