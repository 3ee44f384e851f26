"""The five oracle schemes of Figs. 19 and 21.

Each oracle knows one thing the client cannot know in advance — the
best network, or the best congestion-control algorithm — and always
picks it.  Oracle response times are therefore minima over the
corresponding subset of the six measured configurations, normalized by
single-path TCP over WiFi (Android's default policy).
"""

from typing import Dict, List, Mapping

from repro.core.errors import ConfigurationError

__all__ = ["ORACLES", "oracle_response_times", "normalized_oracle_means"]

#: Oracle name → the configurations it chooses among (paper §5.1).
ORACLES: Dict[str, List[str]] = {
    "Single-Path-TCP Oracle": ["WiFi-TCP", "LTE-TCP"],
    "Decoupled-MPTCP Oracle": ["MPTCP-Decoupled-WiFi", "MPTCP-Decoupled-LTE"],
    "Coupled-MPTCP Oracle": ["MPTCP-Coupled-WiFi", "MPTCP-Coupled-LTE"],
    "MPTCP-WiFi-Primary Oracle": ["MPTCP-Coupled-WiFi", "MPTCP-Decoupled-WiFi"],
    "MPTCP-LTE-Primary Oracle": ["MPTCP-Coupled-LTE", "MPTCP-Decoupled-LTE"],
}

#: The normalization baseline: Android's default network policy.
BASELINE_CONFIG = "WiFi-TCP"


def oracle_response_times(
    response_times: Mapping[str, float]
) -> Dict[str, float]:
    """Per-oracle response time for one network condition.

    ``response_times`` maps the six configuration names to measured
    app response times.
    """
    results: Dict[str, float] = {}
    for oracle, choices in ORACLES.items():
        missing = [name for name in choices if name not in response_times]
        if missing:
            raise ConfigurationError(
                f"{oracle} needs configurations {missing} but they were not measured"
            )
        results[oracle] = min(response_times[name] for name in choices)
    return results


def normalized_oracle_means(
    per_condition: List[Mapping[str, float]]
) -> Dict[str, float]:
    """Fig. 19/21: oracle means across conditions, normalized by WiFi-TCP.

    Each condition's oracle times are divided by that condition's
    WiFi-TCP time, then averaged across conditions.
    """
    if not per_condition:
        raise ConfigurationError("need at least one condition")
    sums: Dict[str, float] = {name: 0.0 for name in ORACLES}
    for response_times in per_condition:
        if BASELINE_CONFIG not in response_times:
            raise ConfigurationError(f"missing baseline {BASELINE_CONFIG}")
        baseline = response_times[BASELINE_CONFIG]
        if baseline <= 0:
            raise ConfigurationError("baseline response time must be positive")
        for oracle, value in oracle_response_times(response_times).items():
            sums[oracle] += value / baseline
    means = {oracle: total / len(per_condition) for oracle, total in sums.items()}
    means[BASELINE_CONFIG] = 1.0
    return means
