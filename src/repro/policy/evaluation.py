"""Policy evaluation harness: regret vs the oracle across locations.

For each emulated location and flow size the harness (1) probes both
paths the way a client would, (2) measures every concrete strategy's
completion time, then (3) scores each policy by the completion time of
the strategy it chose.  The headline statistic is mean completion time
normalized by the oracle's — 1.0 means the policy always picked the
winner.
"""

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.rng import DEFAULT_SEED
from repro.experiments.common import (
    MPTCP_VARIANTS,
    TCP_VARIANTS,
    configuration_specs,
)
from repro.linkem.conditions import ConditionSpec, make_conditions
from repro.policy.estimator import ConditionEstimator
from repro.policy.policies import Decision, OraclePolicy, SelectionPolicy
from repro.policy.probes import PathProbe
from repro.workload import Session

__all__ = ["PolicyEvaluation", "evaluate_policies", "STRATEGIES",
           "measure_locations", "measure_strategies"]

#: The concrete strategies a decision can resolve to: the paper's six
#: configurations, in :func:`configuration_specs` order.
STRATEGIES: Dict[str, Decision] = {
    decision.strategy_name: decision
    for decision in (
        [Decision("tcp", path) for _, path in TCP_VARIANTS]
        + [Decision("mptcp", primary, cc) for _, primary, cc in MPTCP_VARIANTS]
    )
}


def measure_locations(
    conditions: Sequence[ConditionSpec], nbytes: int, seed: int,
) -> List[Dict[str, float]]:
    """Per location, the completion time of every strategy.

    One spec grid (six configurations per location) through
    ``Session.run_many``; a transfer that misses its deadline counts
    as taking the whole deadline.
    """
    specs = [
        spec for condition in conditions
        for spec in configuration_specs(condition, nbytes, seed=seed)
    ]
    reports = Session().run_many(specs)
    durations = [
        report.duration_s if report.completed else spec.deadline_s
        for spec, report in zip(specs, reports)
    ]
    return [
        dict(zip(STRATEGIES, durations[start:start + len(STRATEGIES)]))
        for start in range(0, len(durations), len(STRATEGIES))
    ]


def measure_strategies(
    condition: ConditionSpec, nbytes: int, seed: int,
) -> Dict[str, float]:
    """Completion time of every strategy at one location."""
    return measure_locations([condition], nbytes, seed)[0]


def probe_condition(
    condition: ConditionSpec, seed: int, probe: Optional[PathProbe] = None,
) -> ConditionEstimator:
    """Run client-style probes at a location, building estimates."""
    probe = probe if probe is not None else PathProbe()
    estimator = ConditionEstimator()
    with Session().network(condition, seed, f"probe.{condition.condition_id}") as scenario:
        for path_name in ("wifi", "lte"):
            report = probe.run(scenario, path_name)
            estimator.observe(report, now=scenario.loop.now)
    return estimator


@dataclass
class PolicyEvaluation:
    """Results of one evaluation sweep."""

    flow_bytes: int
    #: condition id -> strategy name -> measured duration.
    measured: Dict[int, Dict[str, float]] = field(default_factory=dict)
    #: policy name -> condition id -> chosen strategy name.
    choices: Dict[str, Dict[int, str]] = field(default_factory=dict)

    def policy_duration(self, policy_name: str, condition_id: int) -> float:
        choice = self.choices[policy_name][condition_id]
        return self.measured[condition_id][choice]

    def oracle_duration(self, condition_id: int) -> float:
        return min(self.measured[condition_id].values())

    def mean_normalized(self, policy_name: str) -> float:
        """Mean (policy time / oracle time) across conditions (>= 1)."""
        ratios = [
            self.policy_duration(policy_name, cid) / self.oracle_duration(cid)
            for cid in self.measured
        ]
        return sum(ratios) / len(ratios)

    def win_rate(self, policy_name: str, tolerance: float = 1.05) -> float:
        """Fraction of conditions within ``tolerance`` of the oracle."""
        hits = [
            self.policy_duration(policy_name, cid)
            <= self.oracle_duration(cid) * tolerance
            for cid in self.measured
        ]
        return sum(hits) / len(hits)


def evaluate_policies(
    policies: Sequence[SelectionPolicy],
    flow_bytes: int,
    seed: int = DEFAULT_SEED,
    conditions: Optional[List[ConditionSpec]] = None,
) -> PolicyEvaluation:
    """Score ``policies`` on ``flow_bytes`` transfers across locations."""
    conditions = conditions if conditions is not None else make_conditions(seed=seed)
    evaluation = PolicyEvaluation(flow_bytes=flow_bytes)
    oracle = OraclePolicy()
    all_policies = list(policies) + [oracle]
    for policy in all_policies:
        evaluation.choices[policy.name] = {}

    all_measured = measure_locations(conditions, flow_bytes, seed)
    for condition, measured in zip(conditions, all_measured):
        cid = condition.condition_id
        evaluation.measured[cid] = measured
        estimator = probe_condition(condition, seed)
        oracle.inform(measured, STRATEGIES)
        for policy in all_policies:
            decision = policy.decide(estimator, flow_bytes, now=0.0)
            evaluation.choices[policy.name][cid] = decision.strategy_name
    return evaluation
