"""Ablations of the design choices called out in DESIGN.md §4.

Each ablation switches off one mechanism and shows the corresponding
paper finding collapses, demonstrating the finding is *caused* by that
mechanism rather than incidental:

1. **Slow start** — with an enormous initial window (no ramp), the
   primary-subflow choice stops mattering for short flows (Fig. 8's
   effect collapses).
2. **Join delay** — letting the secondary subflow handshake start
   simultaneously with the primary (impossible in real MPTCP) likewise
   shrinks the short-flow primary effect.
3. **Scheduler** — min-RTT vs round-robin chunk scheduling on
   asymmetric paths.
4. **Coupling algorithm** — LIA vs OLIA vs decoupled Reno throughput
   on a lossy, asymmetric location.
"""

from typing import List

from repro.analysis.stats import median
from repro.core.rng import DEFAULT_SEED
from repro.experiments.common import (
    Claim,
    ExperimentResult,
    WARM_FLOW_CONFIG,
    _SESSION,
    flow_conditions,
    mptcp_spec,
    register,
    tcp_spec,
)
from repro.experiments.fig08 import (
    primary_choice_grid,
    primary_relative_differences,
)
from repro.linkem.conditions import make_conditions
from repro.tcp.config import TcpConfig
from repro.workload import TransferReport

__all__ = [
    "run_slowstart_ablation",
    "run_join_ablation",
    "run_scheduler_ablation",
    "run_coupling_ablation",
]

TEN_KB = 10 * 1024
ONE_MBYTE = 1_048_576


def primary_effect(reports: List[TransferReport], nbytes: int = TEN_KB) -> float:
    """Median Fig. 8 relative difference at ``nbytes``.

    ``reports`` are one :func:`~repro.experiments.fig08.primary_choice_grid`
    run (at ``repeats=1``, under whatever knobs the ablation sets).
    """
    samples = primary_relative_differences(reports, {"flow": nbytes})["flow"]
    return median(samples) if samples else 0.0


@register("ablation_slowstart")
def run_slowstart_ablation(seed: int = DEFAULT_SEED,
                           fast: bool = False) -> ExperimentResult:
    """The *flow-size gradient* of the primary effect needs the window ramp.

    The paper's Fig. 8 finding is a gradient: the primary choice
    matters much more at 10 KB than at 1 MB.  With the window ramp
    removed (an enormous initial window), every flow completes within
    the primary's first rounds, so the effect stops depending on flow
    size — the gradient collapses.
    """
    count = 4 if fast else 10
    baseline = primary_choice_grid(seed, count, repeats=1)
    no_ramp = primary_choice_grid(
        seed, count, repeats=1,
        config=TcpConfig(initial_cwnd_segments=1000),
    )
    reports = _SESSION.run_many(baseline + no_ramp)
    baseline_runs = reports[:len(baseline)]
    no_ramp_runs = reports[len(baseline):]
    baseline_small = primary_effect(baseline_runs, TEN_KB)
    baseline_large = primary_effect(baseline_runs, ONE_MBYTE)
    no_ramp_small = primary_effect(no_ramp_runs, TEN_KB)
    no_ramp_large = primary_effect(no_ramp_runs, ONE_MBYTE)
    baseline_gradient = baseline_small - baseline_large
    no_ramp_gradient = no_ramp_small - no_ramp_large
    metrics = {
        "baseline_effect_10KB": baseline_small,
        "baseline_effect_1MB": baseline_large,
        "no_ramp_effect_10KB": no_ramp_small,
        "no_ramp_effect_1MB": no_ramp_large,
        "baseline_size_gradient": baseline_gradient,
        "no_ramp_size_gradient": no_ramp_gradient,
        "gradient_shrinks_without_ramp": float(
            no_ramp_gradient < baseline_gradient
        ),
    }
    return ExperimentResult(
        experiment_id="ablation_slowstart",
        title="Ablation: the flow-size gradient needs the window ramp",
        body=(
            f"primary-subflow effect (median rel. diff, %):\n"
            f"                      10KB    1MB   gradient\n"
            f"  with ramp:       {baseline_small:7.1f} {baseline_large:6.1f} {baseline_gradient:9.1f}\n"
            f"  without (IW=1000):{no_ramp_small:6.1f} {no_ramp_large:6.1f} {no_ramp_gradient:9.1f}"
        ),
        metrics=metrics,
        claims=[Claim.within("gradient_shrinks_without_ramp", 1.0)],
    )


@register("ablation_join")
def run_join_ablation(seed: int = DEFAULT_SEED,
                      fast: bool = False) -> ExperimentResult:
    # The sequential grid is the slow-start ablation's baseline, so
    # after that one only the simultaneous-join half executes.
    count = 4 if fast else 10
    sequential_grid = primary_choice_grid(seed, count, repeats=1)
    simultaneous_grid = primary_choice_grid(
        seed, count, repeats=1,
        options={"simultaneous_join": True, "join_delay_rtts": 0.0},
    )
    reports = _SESSION.run_many(sequential_grid + simultaneous_grid)
    sequential = primary_effect(reports[:len(sequential_grid)])
    simultaneous = primary_effect(reports[len(sequential_grid):])
    metrics = {
        "primary_effect_10KB_sequential_join": sequential,
        "primary_effect_10KB_simultaneous_join": simultaneous,
        "effect_shrinks_with_simultaneous_join": float(
            simultaneous < sequential
        ),
    }
    return ExperimentResult(
        experiment_id="ablation_join",
        title="Ablation: the primary effect comes from the join delay",
        body=(
            f"median 10 KB primary-subflow effect:\n"
            f"  Linux-style sequential join: {sequential:6.1f} %\n"
            f"  simultaneous join (unreal):  {simultaneous:6.1f} %"
        ),
        metrics=metrics,
        claims=[Claim.within("effect_shrinks_with_simultaneous_join", 1.0)],
    )


@register("ablation_scheduler")
def run_scheduler_ablation(seed: int = DEFAULT_SEED,
                           fast: bool = False) -> ExperimentResult:
    condition = flow_conditions(seed)[0]  # strongly asymmetric
    schedulers = ("minrtt", "roundrobin")
    reports = _SESSION.run_many([
        mptcp_spec(condition, "wifi", "decoupled", ONE_MBYTE,
                   seed=seed, options={"scheduler": scheduler})
        for scheduler in schedulers
    ])
    results = {
        scheduler: report.throughput_mbps or 0.0
        for scheduler, report in zip(schedulers, reports)
    }
    metrics = {
        f"throughput_{name}": value for name, value in results.items()
    }
    metrics["minrtt_at_least_as_good"] = float(
        results["minrtt"] >= results["roundrobin"] * 0.95
    )
    return ExperimentResult(
        experiment_id="ablation_scheduler",
        title="Ablation: min-RTT vs round-robin scheduling (asymmetric paths)",
        body="\n".join(
            f"  {name:10s}: {value:.2f} Mbit/s" for name, value in results.items()
        ),
        metrics=metrics,
        claims=[Claim.within("minrtt_at_least_as_good", 1.0)],
    )


@register("ablation_delack")
def run_delack_ablation(seed: int = DEFAULT_SEED,
                        fast: bool = False) -> ExperimentResult:
    """Quick-ACK vs RFC 1122 delayed ACKs on a bulk transfer.

    Delayed ACKs halve the receiver's ACK traffic at the cost of a
    slightly slower window ramp — quantifying why the default receiver
    model quick-ACKs (as Linux effectively does under bulk load).
    """
    condition = make_conditions(seed=seed)[5]
    results = {}
    for label, delayed in (("quickack", False), ("delack", True)):
        # The ACK counter lives on the receiver, so this one needs the
        # live connection rather than a report.
        scenario, connection = _SESSION.open(tcp_spec(
            condition, "wifi", ONE_MBYTE, seed=seed,
            config=TcpConfig(delayed_acks=delayed),
        ))
        with scenario:
            run = scenario.run_transfer(connection)
        results[label] = {
            "duration_s": run.duration_s or 0.0,
            "acks": connection.subflow.receiver.acks_sent,
        }
    metrics = {
        "quickack_duration_s": results["quickack"]["duration_s"],
        "delack_duration_s": results["delack"]["duration_s"],
        "quickack_acks": float(results["quickack"]["acks"]),
        "delack_acks": float(results["delack"]["acks"]),
        "delack_halves_ack_traffic": float(
            results["delack"]["acks"] < 0.7 * results["quickack"]["acks"]
        ),
        "delack_not_faster": float(
            results["delack"]["duration_s"]
            >= results["quickack"]["duration_s"] * 0.999
        ),
    }
    return ExperimentResult(
        experiment_id="ablation_delack",
        title="Ablation: quick-ACK vs delayed ACKs",
        body="\n".join(
            f"  {label:9s}: {values['duration_s']:.3f} s, "
            f"{values['acks']} ACKs"
            for label, values in results.items()
        ),
        metrics=metrics,
        claims=[Claim.within("delack_halves_ack_traffic", 1.0),
                Claim.within("delack_not_faster", 1.0)],
    )


@register("ablation_coupling")
def run_coupling_ablation(seed: int = DEFAULT_SEED,
                          fast: bool = False) -> ExperimentResult:
    condition = flow_conditions(seed)[5]
    algorithms = ("decoupled", "coupled", "olia")
    reports = _SESSION.run_many([
        mptcp_spec(condition, "wifi", cc, ONE_MBYTE, seed=seed,
                   config=WARM_FLOW_CONFIG)
        for cc in algorithms
    ])
    results = {
        cc: report.throughput_mbps or 0.0
        for cc, report in zip(algorithms, reports)
    }
    metrics = {f"throughput_{name}": value for name, value in results.items()}
    metrics["all_complete"] = float(all(v > 0 for v in results.values()))
    return ExperimentResult(
        experiment_id="ablation_coupling",
        title="Ablation: decoupled Reno vs LIA vs OLIA",
        body="\n".join(
            f"  {name:10s}: {value:.2f} Mbit/s" for name, value in results.items()
        ),
        metrics=metrics,
        claims=[Claim.within("all_complete", 1.0)],
    )
