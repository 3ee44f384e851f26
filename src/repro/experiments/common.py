"""Shared experiment infrastructure.

:class:`ExperimentResult` is the uniform return type: rendered text
(the figure/table analog), a metrics dict (headline numbers), and the
paper's target values for side-by-side comparison.
"""

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.analysis.bootstrap import bootstrap_ci
from repro.analysis.cdf import Cdf
from repro.analysis.plotting import ascii_cdf
from repro.core.rng import DEFAULT_SEED
from repro.linkem.conditions import ConditionSpec, make_conditions
from repro.mptcp.connection import MptcpOptions
from repro.parallel import SimTask, SweepRunner
from repro.tcp.config import TcpConfig
from repro.workload import Session, TransferSpec, config_overrides
from repro.workload.spec import mptcp_option_overrides

__all__ = [
    "ExperimentResult",
    "EXPERIMENTS",
    "tcp_spec",
    "mptcp_spec",
    "configuration_specs",
    "table1_dataset",
    "TCP_VARIANTS",
    "MPTCP_VARIANTS",
    "FLOW_SIZES",
    "FLOW_CAPABLE",
]

#: The paper's canonical flow sizes (§3.4, §3.5).
FLOW_SIZES = {"10KB": 10 * 1024, "100KB": 100 * 1024, "1MB": 1024 * 1024}

#: Flow-level (§3) experiments model the paper's measurement procedure:
#: 10 back-to-back runs per configuration against the same MIT server,
#: so Linux's per-destination metrics cache starts connections with a
#: warm ssthresh (early congestion avoidance).
WARM_FLOW_CONFIG = TcpConfig(initial_ssthresh_segments=32)


def flow_conditions(seed: int, fast: bool = False) -> List[ConditionSpec]:
    """The 20 locations as seen by the §3 flow-level experiments.

    Trace-driven links plus temporal jitter: each configuration's runs
    happened at a different moment, so pairwise metrics (r_network,
    r_cwnd) include the network's run-to-run variability, exactly as
    the paper's sequential measurements did.
    """
    import dataclasses
    import random

    conditions = make_conditions(
        seed=seed, trace_driven=True, temporal_sigma=0.25
    )
    # Public WiFi under measurement-hour load is lossier than the
    # clean-slate calibration links; this is what puts long flows into
    # the congestion-avoidance regime where the CC choice matters.
    loss_rng = random.Random(seed ^ 0x5F10)
    lossy = []
    for condition in conditions:
        wifi = dataclasses.replace(
            condition.wifi,
            loss_rate=max(
                condition.wifi.loss_rate,
                loss_rng.choice([0.003, 0.006, 0.01, 0.012]),
            ),
        )
        lossy.append(condition.with_path(wifi))
    return lossy[:6] if fast else lossy

#: The two single-path TCP rows of §3.3: (label, path).  With
#: :data:`MPTCP_VARIANTS` they are "the six configurations" measured
#: at every location.
TCP_VARIANTS = [("LTE", "lte"), ("WiFi", "wifi")]

#: The four MPTCP variants of §3.3: (label, primary, congestion control).
MPTCP_VARIANTS = [
    ("MPTCP(LTE, Decoupled)", "lte", "decoupled"),
    ("MPTCP(WiFi, Decoupled)", "wifi", "decoupled"),
    ("MPTCP(LTE, Coupled)", "lte", "coupled"),
    ("MPTCP(WiFi, Coupled)", "wifi", "coupled"),
]


@dataclass
class ExperimentResult:
    """Uniform result shape for every table/figure reproduction."""

    experiment_id: str
    title: str
    body: str
    metrics: Dict[str, float] = field(default_factory=dict)
    paper_targets: Dict[str, float] = field(default_factory=dict)

    def render(self) -> str:
        lines = [f"=== {self.experiment_id}: {self.title} ===", self.body]
        if self.metrics:
            lines.append("")
            lines.append("headline metrics (measured vs paper):")
            for key, value in self.metrics.items():
                target = self.paper_targets.get(key)
                target_text = f"   (paper: {target:g})" if target is not None else ""
                lines.append(f"  {key:42s} = {value:10.4g}{target_text}")
        return "\n".join(lines)


def relative_difference_cdfs(
    samples: Dict[str, List[float]]
) -> Tuple[Dict[str, Cdf], str]:
    """CDFs of the non-empty sample sets, and their overlaid plot."""
    cdfs = {name: Cdf(values) for name, values in samples.items() if values}
    plot = ascii_cdf(
        {name: cdf.points() for name, cdf in cdfs.items()},
        x_label="relative difference (%)",
    )
    return cdfs, plot


def flow_size_result(
    experiment_id: str,
    title: str,
    samples: Dict[str, List[float]],
    ordering: Tuple[str, str, str],
    targets: Dict[str, float],
) -> ExperimentResult:
    """Figs. 8 and 13: one relative-difference CDF per flow size.

    Metrics are each size's median with a bootstrap CI, then
    ``ordering = (key, larger, smaller)``: whether the ``larger``
    size's median exceeds the ``smaller`` one's.
    """
    cdfs, body = relative_difference_cdfs(samples)
    metrics = {}
    for name, cdf in cdfs.items():
        interval = bootstrap_ci(cdf.samples)
        metrics[f"median_rel_diff[{name}]"] = cdf.median
        metrics[f"median_ci_low[{name}]"] = interval.low
        metrics[f"median_ci_high[{name}]"] = interval.high
    key, larger, smaller = ordering
    metrics[key] = float(cdfs[larger].median > cdfs[smaller].median)
    return ExperimentResult(
        experiment_id=experiment_id, title=title, body=body,
        metrics=metrics, paper_targets={**targets, key: 1.0},
    )


#: Shared interpreter: every transfer-only experiment builds a
#: ``List[TransferSpec]`` (explicit seeds), hands it to
#: ``_SESSION.run_many(specs)`` and reduces the returned reports — so
#: each honours every run-level setting of :mod:`repro.core.env`
#: (worker count, executor, cache, progress, tracing).
#: ``_SESSION.open`` is the seam for the few experiments that need the
#: live connection.
_SESSION = Session()


def tcp_spec(
    condition: ConditionSpec,
    path: str,
    nbytes: int,
    direction: str = "down",
    cc: str = "cubic",
    seed: Optional[int] = None,
    deadline_s: float = 240.0,
    config: Optional[TcpConfig] = None,
    label: Optional[str] = None,
) -> TransferSpec:
    """Declarative spec of one single-path TCP transfer."""
    return TransferSpec(
        kind="tcp", condition=condition, nbytes=nbytes,
        direction=direction, cc=cc, path=path, seed=seed,
        deadline_s=deadline_s, config=config_overrides(config), label=label,
    )


def mptcp_spec(
    condition: ConditionSpec,
    primary: str,
    congestion_control: str,
    nbytes: int,
    direction: str = "down",
    seed: Optional[int] = None,
    deadline_s: float = 240.0,
    options: Union[MptcpOptions, Dict[str, Any], None] = None,
    config: Optional[TcpConfig] = None,
    label: Optional[str] = None,
) -> TransferSpec:
    """Declarative spec of one MPTCP transfer.

    ``options`` holds the extra :class:`MptcpOptions` knobs (mode,
    scheduler, join behaviour …) as a plain dict; a live
    :class:`MptcpOptions` is also accepted and diffed against defaults
    (its ``primary``/``congestion_control`` win over the arguments).
    """
    if isinstance(options, MptcpOptions):
        primary = options.primary
        congestion_control = options.congestion_control
        options = mptcp_option_overrides(options)
    return TransferSpec(
        kind="mptcp", condition=condition, nbytes=nbytes,
        direction=direction, cc=congestion_control, primary=primary,
        seed=seed, deadline_s=deadline_s, options=options or None,
        config=config_overrides(config), label=label,
    )


def configuration_specs(
    condition: ConditionSpec, nbytes: int, **kwargs
) -> List[TransferSpec]:
    """The six configurations at one location, in declaration order.

    :data:`TCP_VARIANTS` then :data:`MPTCP_VARIANTS`; ``kwargs`` (seed,
    direction, config …) apply to all six specs.
    """
    return [
        tcp_spec(condition, path, nbytes, **kwargs)
        for _, path in TCP_VARIANTS
    ] + [
        mptcp_spec(condition, primary, cc, nbytes, **kwargs)
        for _, primary, cc in MPTCP_VARIANTS
    ]


def table1_dataset(sites, seed: int = DEFAULT_SEED):
    """The §2 dataset for ``sites``: :func:`repro.crowd.table1_runs`.

    One cached sweep task, so a warm run reads the runs back without
    building the world.
    """
    from repro.crowd.dataset import Dataset

    task = SimTask(
        fn="repro.crowd.pipeline:table1_runs",
        kwargs={"seed": seed, "site_names": [site.name for site in sites]},
        key="crowd.table1",
    )
    return Dataset(SweepRunner(seed=seed).run([task])[0])


def config_seed(seed: int, label: str) -> int:
    """Per-configuration run seed.

    The paper measured each configuration at a different moment, so
    pairwise comparisons include temporal variability; deriving the
    seed from the configuration label reproduces that.
    """
    from repro.core.rng import derive_seed

    return derive_seed(seed, f"measurement-moment.{label}")


#: Populated lazily by the runner; maps experiment id → run callable.
EXPERIMENTS: Dict[str, Callable] = {}

#: Experiment ids whose sweeps are meaningful at flow fidelity: they
#: consume only throughput/duration aggregates of spec-driven
#: transfers.  Everything else needs packet-level signals (RTT
#: samples, cwnd traces, energy activity, live connections) that the
#: flow engine does not produce; ``--fidelity flow`` rejects those
#: up front rather than rendering silently-wrong figures.
FLOW_CAPABLE: Dict[str, bool] = {}


def register(experiment_id: str, flow_capable: bool = False):
    """Decorator registering an experiment's ``run`` for the CLI.

    ``flow_capable=True`` declares that the experiment's outputs stay
    valid when its transfers run on the flow-level engine (see
    :mod:`repro.flow`): every transfer is a :class:`TransferSpec`
    run through ``Session.run_many`` and only aggregate
    throughput/duration is consumed.
    """

    def wrap(fn):
        EXPERIMENTS[experiment_id] = fn
        FLOW_CAPABLE[experiment_id] = flow_capable
        return fn

    return wrap
