"""The ledger's five workloads: inputs from a seed, one pass, its checks.

Each workload is sized so one pass takes >=2 s on the reference box
and is dominated by the layers named in its ``why``.  A pass is made
of *legs* (one for the serial workloads, cold/warm/fleet for
``plane_sweep``); the child times each leg, cuts it into slices at the
leg's ``marks`` (see stats.py) and adds them up.  Inputs are a pure
function of ``(seed, quick)`` — the simulator only ever sees the
generated specs.

Everything the program might otherwise pick up from its surroundings
is passed explicitly: worker count, executor, fidelity and cache.
"""

import hashlib
import json
import os
import random
import shutil
import time
import warnings
from typing import Any, Callable, Dict, List, Sequence, Tuple

__all__ = [
    "WORKLOADS",
    "Leg",
    "Workload",
    "digest",
    "make_workload",
]

#: Load is generated from one process with at most this many workers
#: (the reference box has 2 usable cores).
PLANE_WORKERS = 2
#: Warm-cache repetitions per pass, so the read path is long enough to
#: time (48 hits are ~20 ms).
WARM_REPEATS = 20


def digest(payloads: Any) -> str:
    """sha256 of canonical JSON — equal for equal results.

    ``pickle.dumps`` is no good here: an in-process report and the
    same report shipped back from a pool worker are ``==`` but pickle
    differently (memoised vs fresh strings).
    """
    text = json.dumps(payloads, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _transfer_seeds(workload: str, seed: int, count: int) -> List[int]:
    rng = random.Random(f"ledger.{workload}.{seed}")
    return rng.sample(range(1, 2 ** 31), count)


class Leg:
    """What one leg of a pass produced."""

    __slots__ = ("payloads", "attempted", "failed", "stats", "marks",
                 "verify")

    def __init__(self, payloads: Any, attempted: int, failed: int,
                 stats: Dict[str, int], marks: Sequence[float] = (),
                 verify: Callable[[], int] = lambda: 0) -> None:
        self.payloads = payloads
        self.attempted = attempted
        self.failed = failed
        #: Public counters of the leg (cache hits, retries, ...).
        self.stats = stats
        #: ``time.perf_counter()`` at each delivery of results, in
        #: order: where the child may cut the leg into slices.  Empty
        #: when results arrive in one piece (a pool hands back whole
        #: shards).
        self.marks = marks
        #: Checks too slow to sit inside the timed leg; returns how
        #: many more operations they found failed.
        self.verify = verify


class Workload:
    """Base: a named set of inputs plus how to run one pass over them."""

    name = ""
    why = ""
    #: What ``units_per_s`` counts for this workload.
    unit = "transfers"

    def __init__(self, seed: int, quick: bool = False) -> None:
        self.seed = seed
        self.quick = quick

    # -- life cycle (the child calls these in order) -------------------
    def setup(self, scratch: str) -> None:
        """Everything a user pays before the first result: set-up time."""
        raise NotImplementedError

    def legs(self, fraction: int = 1) -> List[Tuple[str, Callable[[], Leg]]]:
        """The timed legs of one pass, in order.

        ``fraction > 1`` runs every ``fraction``-th input only (the
        profiled pass, which costs ~4x under ``cProfile``).
        """
        raise NotImplementedError

    def units_per_pass(self) -> int:
        raise NotImplementedError

    def after(self) -> Tuple[Dict[str, float], List[str]]:
        """Untimed accuracy figures and failed checks, after the passes."""
        return {}, []

    def teardown(self) -> None:
        pass


# ----------------------------------------------------------------------
# Transfer workloads: specs through Session.run_many
# ----------------------------------------------------------------------
def _run_specs(session, specs, mark: bool = False, **kwargs) -> Leg:
    """One ``run_many`` call with its failures counted, not raised.

    ``mark`` reads the clock in the call's own ``on_result`` hook, once
    per report, as a client that logs each reply would.  Only serial
    calls are marked: pools and fleets deliver whole shards at once.
    """
    from repro.core.errors import SweepTaskError

    marks: List[float] = []
    if mark:
        clock = time.perf_counter
        kwargs["on_result"] = lambda *_: marks.append(clock())
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            reports = session.run_many(specs, **kwargs)
        except SweepTaskError:
            return Leg([], len(specs), len(specs), {})
    stats = session.last_stats
    failed = sum(1 for report in reports if not report.completed)
    # An executor that lost its fleet finishes the sweep locally and
    # says so in a warning; the leg then measured the wrong path.
    if any("degrading" in str(w.message) for w in caught):
        failed = len(specs)
    return Leg(
        reports, len(specs), failed,
        {"cache_hits": stats.cache_hits, "retries": stats.retried}, marks,
    )


class _TransferWorkload(Workload):
    """Serial, uncached, in-process: the engines and nothing else."""

    #: ``(seed, quick) -> specs``; set by each subclass.
    make_specs: Callable[[int, bool], list]

    def setup(self, scratch: str) -> None:
        from repro.workload import Session

        self.session = Session()
        self._specs = self.make_specs(self.seed, self.quick)

    def units_per_pass(self) -> int:
        return len(self._specs)

    def legs(self, fraction: int = 1):
        specs = self._specs[::fraction]
        return [("wall", lambda: _run_specs(
            self.session, specs, mark=True, workers=1, executor="inprocess",
            cache=False,
        ))]


def bulk_specs(seed: int, quick: bool = False) -> list:
    """4 MPTCP variants x 4 validation conditions x 1 MB x 3 seeds."""
    from repro.experiments.common import MPTCP_VARIANTS
    from repro.flow.validate import validation_conditions
    from repro.workload import TransferSpec

    variants = MPTCP_VARIANTS[:2] if quick else MPTCP_VARIANTS
    conditions = validation_conditions(2 if quick else 4)
    nbytes = 100_000 if quick else 1_000_000
    seeds = _transfer_seeds("bulk", seed, 1 if quick else 3)
    return [
        TransferSpec(kind="mptcp", condition=condition, nbytes=nbytes,
                     primary=primary, cc=cc, seed=transfer_seed,
                     fidelity="packet")
        for _, primary, cc in variants
        for condition in conditions
        for transfer_seed in seeds
    ]


class PacketBulk(_TransferWorkload):
    name = "packet_bulk"
    why = ("48 x 1 MB MPTCP packet transfers, serial: >99% steady-state "
           "per-ACK/per-packet work, so only a packet-core change "
           "(core.events, net, tcp, mptcp) moves it")
    make_specs = staticmethod(bulk_specs)


def short_specs(seed: int, quick: bool = False) -> list:
    """10 KiB flows: 20 locations x (4 TCP + 4 MPTCP configs) x 15 seeds."""
    from repro.experiments.common import MPTCP_VARIANTS
    from repro.linkem.conditions import make_conditions
    from repro.workload import ConditionSpec, TransferSpec

    conditions = [ConditionSpec.from_condition(c) for c in make_conditions()]
    if quick:
        conditions = conditions[:3]
    seeds = _transfer_seeds("short", seed, 1 if quick else 15)
    nbytes = 10 * 1024
    specs = []
    for condition in conditions:
        for transfer_seed in seeds:
            for path in ("wifi", "lte"):
                for direction in ("down", "up"):
                    specs.append(TransferSpec(
                        kind="tcp", condition=condition, nbytes=nbytes,
                        path=path, direction=direction, cc="cubic",
                        seed=transfer_seed, fidelity="packet",
                    ))
            for _, primary, cc in MPTCP_VARIANTS:
                specs.append(TransferSpec(
                    kind="mptcp", condition=condition, nbytes=nbytes,
                    primary=primary, cc=cc, seed=transfer_seed,
                    fidelity="packet",
                ))
    return specs


class PacketShort(_TransferWorkload):
    name = "packet_short"
    why = ("2400 x 10 KiB packet transfers over all 20 locations: "
           "handshake, MP_JOIN, slow start, FIN drain and ~25-30% fixed "
           "per-transfer cost, so work moved into per-transfer set-up shows")
    make_specs = staticmethod(short_specs)


def sweep_specs(seed: int, quick: bool = False) -> list:
    """Fig. 9/10 grid at flow fidelity: 4 x 3 sizes x 4 conds x 30 seeds."""
    from repro.experiments.common import MPTCP_VARIANTS
    from repro.flow.validate import VALIDATION_SIZES, validation_conditions
    from repro.workload import TransferSpec

    conditions = validation_conditions(2 if quick else 4)
    seeds = _transfer_seeds("sweep", seed, 2 if quick else 30)
    return [
        TransferSpec(kind="mptcp", condition=condition, nbytes=nbytes,
                     primary=primary, cc=cc, seed=transfer_seed,
                     fidelity="flow")
        for _, primary, cc in MPTCP_VARIANTS
        for nbytes in VALIDATION_SIZES.values()
        for condition in conditions
        for transfer_seed in seeds
    ]


class FlowSweep(_TransferWorkload):
    name = "flow_sweep"
    why = ("1440 flow-fidelity transfers on the Fig. 9/10 grid: "
           "flow.engine + flow.model ~70% of self time, packet core "
           "untouched, so it must not move for a packet-core change")
    make_specs = staticmethod(sweep_specs)

    #: Calibrated bound of repro.flow.validate on class-mean error.
    CLASS_BOUND = 0.20

    def after(self):
        """Model error on a reduced grid, published beside the speed."""
        from repro.flow.validate import (
            VALIDATION_SEEDS,
            validate_fidelity,
            validation_conditions,
        )

        report = validate_fidelity(
            conditions=validation_conditions(2),
            sizes={"100KB": 100_000} if self.quick
            else {"100KB": 100_000, "1MB": 1_000_000},
            seeds=VALIDATION_SEEDS, workers=1,
        )
        extras = {
            "model_error_class": report.worst_class_error,
            "model_error_worst": report.worst_condition_error,
        }
        failures = []
        if report.worst_class_error > self.CLASS_BOUND:
            failures.append(
                f"model_error_class {report.worst_class_error:.3f} > "
                f"{self.CLASS_BOUND}"
            )
        return extras, failures


# ----------------------------------------------------------------------
# crowd_stream
# ----------------------------------------------------------------------
class CrowdStream(Workload):
    name = "crowd_stream"
    unit = "users"
    why = ("60k-user crowd through the sketch sink, serial: bypasses "
           "both transfer engines; crowd.sampling + seed derivation "
           "~80%, sketches ~10%, world calibration lands in setup_s")

    #: Same tolerance as tests/crowd/test_consistency.py.
    SITE_BOUND = 0.08
    #: Sites with fewer Table-1 runs are too thin to hold to it.
    MIN_TABLE1_RUNS = 40
    #: Cohort per shard: 12 shards a pass, so a pass has 12 slices
    #: (the default would cut 4).  Cannot change the result.
    SHARD_USERS = 5_000

    def _simulate(self, users: int) -> Leg:
        from repro.crowd.pipeline import simulate
        from repro.crowd.sampling import PopulationSpec

        started = time.perf_counter()
        result = simulate(
            population=PopulationSpec(users=users, seed=self.seed),
            shard_users=self.SHARD_USERS,
            workers=1, executor="inprocess", cache=False,
        )
        # The program's own record of each shard's wall, laid end to
        # end (the shards ran one after another); what the coordinator
        # spent between them falls into the last slice.
        marks = []
        for shard in result.fleet.shards:
            started += shard.wall_s
            marks.append(started)
        self.sketch = result.sketch
        return Leg(result.sketch.to_dict(), users,
                   users if result.stats.failed else 0,
                   {"retries": result.stats.retried}, marks)

    def setup(self, scratch: str) -> None:
        self.users = 3_000 if self.quick else 60_000
        # A one-user run calibrates the seed's world through the
        # public entry point; later passes reuse it, as a long-lived
        # process would.
        self._simulate(1)

    def units_per_pass(self) -> int:
        return self.users

    def legs(self, fraction: int = 1):
        users = self.users // fraction
        return [("wall", lambda: self._simulate(users))]

    def after(self):
        from repro.crowd.world import TABLE1_SITES

        worst = max(
            abs(self.sketch.site_win_fraction_downlink(site.name)
                - site.lte_win_fraction)
            for site in TABLE1_SITES if site.runs >= self.MIN_TABLE1_RUNS
        )
        failures = []
        # Shrunken populations are too small to hold the tolerance.
        if worst > self.SITE_BOUND and not self.quick:
            failures.append(
                f"table1_site_error {worst:.3f} > {self.SITE_BOUND}"
            )
        return {"table1_site_error": worst}, failures


# ----------------------------------------------------------------------
# plane_sweep
# ----------------------------------------------------------------------
class PlaneSweep(Workload):
    name = "plane_sweep"
    why = ("packet_bulk's 48 specs through the parallel plane: process "
           "pool into an empty cache, 20 warm re-reads, then a 2-worker "
           "socket fleet; a repro.parallel change that helps one path "
           "and costs another shows")

    fleet = None

    def setup(self, scratch: str) -> None:
        from repro.parallel import FleetSpec, FleetSupervisor
        from repro.workload import Session

        self.session = Session()
        self._specs = bulk_specs(self.seed, self.quick)
        self._scratch = scratch
        self._cache = None
        self._pass = 0
        self.fleet = FleetSupervisor(
            FleetSpec(workers=PLANE_WORKERS, label="ledger"),
            state_path=os.path.join(scratch, "fleet.json"),
        )
        self.fleet.up()

    def units_per_pass(self) -> int:
        return len(self._specs) * (2 + WARM_REPEATS)

    def legs(self, fraction: int = 1):
        from repro.parallel import ResultCache

        specs = self._specs[::fraction]
        # A fresh, empty cache per pass; swapping it is not timed.
        if self._cache is not None:
            shutil.rmtree(self._cache.root, ignore_errors=True)
        self._pass += 1
        self._cache = ResultCache(
            os.path.join(self._scratch, f"cache-{self._pass}")
        )
        return [
            ("cold", lambda: self._cold(specs)),
            ("warm", lambda: self._warm(specs)),
            ("fleet", lambda: _run_specs(
                self.session, specs, workers=PLANE_WORKERS,
                executor=self.fleet.executor_spec, cache=False,
            )),
        ]

    def _cold(self, specs) -> Leg:
        leg = _run_specs(self.session, specs, workers=PLANE_WORKERS,
                         executor="process", cache=self._cache)
        if leg.stats.get("cache_hits"):
            leg.failed = leg.attempted  # the cache was not empty
        self._cold_reports = leg.payloads
        return leg

    def _warm(self, specs) -> Leg:
        rounds, marks = [], []
        for _ in range(WARM_REPEATS):
            rounds.append(_run_specs(
                self.session, specs, workers=PLANE_WORKERS,
                executor="process", cache=self._cache))
            marks.append(time.perf_counter())
        hits = sum(leg.stats.get("cache_hits", 0) for leg in rounds)
        attempted = len(specs) * WARM_REPEATS
        cold = self._cold_reports

        def verify() -> int:
            return len(specs) * sum(
                1 for leg in rounds if leg.payloads != cold
            )

        return Leg(rounds[-1].payloads, attempted, attempted - hits,
                   {"cache_hits": hits}, marks, verify)

    def teardown(self) -> None:
        if self.fleet is not None:
            self.fleet.down()


WORKLOADS: Sequence[type] = (
    PacketBulk, PacketShort, FlowSweep, CrowdStream, PlaneSweep,
)


def make_workload(name: str, seed: int, quick: bool = False) -> Workload:
    for cls in WORKLOADS:
        if cls.name == name:
            return cls(seed, quick)
    raise KeyError(f"unknown workload {name!r}; have "
                   f"{[cls.name for cls in WORKLOADS]}")


def payload_of(leg: Leg) -> Any:
    """The JSON form a leg's digest is taken over."""
    if isinstance(leg.payloads, list):
        return [report.to_dict() for report in leg.payloads]
    return leg.payloads
