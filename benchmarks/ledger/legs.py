"""Tight-loop legs: one layer at a time, through its public surface.

Each leg builds a small fixture, repeats one operation for ``budget``
seconds, and reports a rate (or a per-call cost) from the **median**
call, which the box's slow bursts do not reach.  The README's table
says which end-to-end metric each should move and which it must not.

Legs are independent of the workload being traced: the same numbers
come out of every traced run, so a layer's speed can be read beside
any workload's spans.
"""

import dataclasses
import os
import pickle
import random
import socket
import statistics
import threading
import time
from typing import Callable, Dict, List, Tuple

from workloads import PLANE_WORKERS, bulk_specs, sweep_specs

__all__ = ["LEGS", "run_legs"]

NOOP_TASK = "ledger_tasks:noop"


def _call_s(fn: Callable[[], object], budget: float) -> float:
    """Median seconds of one ``fn()``, called until ``budget`` has passed."""
    clock = time.perf_counter
    durations = []
    before = clock()
    deadline = before + budget
    while before < deadline or len(durations) < 3:
        fn()
        after = clock()
        durations.append(after - before)
        before = after
    return statistics.median(durations)


def _rate(fn, budget: float, per_call: int = 1) -> float:
    return per_call / _call_s(fn, budget)


def _cost_us(fn, budget: float, per_call: int = 1) -> float:
    return _call_s(fn, budget) / per_call * 1e6


# ----------------------------------------------------------------------
# Packet core
# ----------------------------------------------------------------------
def core_events(budget: float, seed: int) -> Dict[str, float]:
    from repro.core.events import EventLoop, Timer

    loop = EventLoop()

    def tick() -> None:
        loop.call_later(0.001, tick)

    rng = random.Random(seed)
    for _ in range(64):
        loop.call_later(rng.random() * 0.001, tick)
    # 64 tickers at 1 kHz: every 0.25 s of simulated time is 16 000
    # events (+-64), whichever call it falls into.
    events_per_s = _rate(lambda: loop.run(until=loop.now + 0.25), budget,
                         per_call=16_000)

    churn_loop = EventLoop()
    timers = [Timer(churn_loop, lambda: None) for _ in range(32)]

    def churn() -> None:
        for _ in range(64):
            for timer in timers:
                timer.start(1.0)

    restarts_per_s = _rate(churn, budget, per_call=64 * len(timers))
    return {
        "core.events.events_per_s": events_per_s,
        "core.events.timer_restarts_per_s": restarts_per_s,
    }


def net_link(budget: float, seed: int) -> Dict[str, float]:
    from repro.core.events import EventLoop
    from repro.core.packet import Packet
    from repro.net.link import FixedRateLink
    from repro.net.queue import DropTailQueue

    loop = EventLoop()
    link = FixedRateLink(loop, rate_mbps=100.0, propagation_delay_s=0.01,
                         queue=DropTailQueue(max_packets=1000))
    link.connect(lambda packet: None)

    def burst() -> None:
        for _ in range(500):
            link.send(Packet(flow_id=1, payload_bytes=1400))
        loop.run()

    packets_per_s = _rate(burst, budget, per_call=500)
    assert link.delivered_packets % 500 == 0
    return {"net.link.packets_per_s": packets_per_s}


def _clean_scenario(seed: int, paths: Tuple[str, ...]):
    from repro.net.path import PathConfig
    from repro.scenario import Scenario

    scenario = Scenario(seed=seed)
    for name in paths:
        scenario.add_path(PathConfig(name=name, up_mbps=20.0, down_mbps=20.0,
                                     rtt_ms=20.0, queue_packets=250))
    return scenario


def _transport(budget: float, seed: int, prefix: str,
               paths: Tuple[str, ...]) -> Dict[str, float]:
    from repro.obs.metrics import collect_transfer_metrics

    nbytes = 4_000_000

    def transfer(count_events: bool = False) -> Tuple[int, int]:
        scenario = _clean_scenario(seed, paths)
        scheduled = [0]
        if count_events:
            call_at = scenario.loop.call_at

            def counting(when, callback):
                scheduled[0] += 1
                return call_at(when, callback)

            scenario.loop.call_at = counting
        if len(paths) == 1:
            connection = scenario.tcp(paths[0], nbytes)
        else:
            connection = scenario.mptcp(nbytes)
        scenario.run_transfer(connection)
        metrics = collect_transfer_metrics(connection, scenario.paths)
        segments = sum(value for key, value in metrics.items()
                       if key.startswith("segments_sent"))
        return int(segments), scheduled[0]

    # Deterministic, so one counted run (instrumented, untimed) gives
    # the exact counts of every timed run.
    segments, events = transfer(count_events=True)
    return {
        f"{prefix}.segments_per_s": _rate(transfer, budget,
                                          per_call=segments),
        f"{prefix}.events_per_segment": events / segments,
    }


def tcp_transport(budget: float, seed: int) -> Dict[str, float]:
    return _transport(budget, seed, "tcp", ("wifi",))


def mptcp_transport(budget: float, seed: int) -> Dict[str, float]:
    return _transport(budget, seed, "mptcp", ("wifi", "lte"))


# ----------------------------------------------------------------------
# Workload layer
# ----------------------------------------------------------------------
def session_fixed_costs(budget: float, seed: int) -> Dict[str, float]:
    from repro.obs.metrics import collect_transfer_metrics
    from repro.workload import Session, TransferReport

    session = Session()
    spec = dataclasses.replace(bulk_specs(seed)[0], nbytes=10 * 1024)
    scenario, connection = session.open(spec)
    result = scenario.run_transfer(connection, partial_ok=True)
    snapshot = collect_transfer_metrics(connection, scenario.paths)
    return {
        "workload.session.open_us": _cost_us(
            lambda: session.open(spec), budget),
        "workload.report.build_us": _cost_us(
            lambda: TransferReport.from_result(
                result, label=spec.key(), metrics_snapshot=snapshot),
            budget),
        "obs.metrics.collect_us": _cost_us(
            lambda: collect_transfer_metrics(connection, scenario.paths),
            budget),
    }


def spec_codec(budget: float, seed: int) -> Dict[str, float]:
    from repro.parallel import spec_key
    from repro.workload import Session, TransferReport, TransferSpec
    from repro.workload.session import RUN_SPEC_FN

    spec = bulk_specs(seed)[0]
    report = Session().run(spec)
    kwargs = {"spec": spec, "seed": spec.seed}
    # The fingerprint hashes the source tree once per process; pay it
    # before the clock starts.
    spec_key(RUN_SPEC_FN, kwargs)
    return {
        "workload.spec.key_us": _cost_us(spec.key, budget),
        "workload.spec.roundtrip_us": _cost_us(
            lambda: TransferSpec.from_dict(spec.to_dict()), budget),
        "workload.report.roundtrip_us": _cost_us(
            lambda: TransferReport.from_dict(report.to_dict()), budget),
        "parallel.cache.key_us": _cost_us(
            lambda: spec_key(RUN_SPEC_FN, kwargs), budget),
    }


def flow_engine(budget: float, seed: int) -> Dict[str, float]:
    from repro.flow.engine import run_flow_spec

    # Every 29th spec walks all variants, sizes and conditions of the
    # flow_sweep grid (29 is coprime with its 30 seeds per cell).
    specs = sweep_specs(seed)[::29]

    def sweep() -> None:
        for spec in specs:
            run_flow_spec(spec, seed=spec.seed)

    return {"flow.engine.transfers_per_s": _rate(
        sweep, budget, per_call=len(specs))}


# ----------------------------------------------------------------------
# Crowd
# ----------------------------------------------------------------------
def core_rng(budget: float, seed: int) -> Dict[str, float]:
    from repro.core.rng import derive_seed

    counter = [0]

    def derive() -> None:
        base = counter[0]
        for index in range(base, base + 500):
            random.Random(derive_seed(seed, f"user.{index}"))
        counter[0] = base + 500

    return {"core.rng.seeds_per_s": _rate(derive, budget, per_call=500)}


def crowd_layers(budget: float, seed: int) -> Dict[str, float]:
    from repro.crowd.aggregate import SketchSink
    from repro.crowd.sampling import CrowdSampler, PopulationSpec
    from repro.crowd.world import CrowdWorld

    started = time.perf_counter()
    world = CrowdWorld.from_profile_dict(None, seed=seed)
    build_s = time.perf_counter() - started

    population = PopulationSpec(users=1_000_000, seed=seed)
    sampler = CrowdSampler(world, population)
    cursor = [0]

    def sample() -> None:
        sampler.sample_batch(cursor[0], 1024)
        cursor[0] += 1024

    users_per_s = _rate(sample, budget, per_call=1024)

    columns = sampler.sample_batch(0, 4096)
    sink = SketchSink(world, population)
    runs_per_s = _rate(lambda: sink.consume(columns), budget,
                       per_call=len(columns))
    partial = sink.partial()
    absorbs_per_s = _rate(lambda: sink.absorb(partial), budget)
    return {
        "crowd.world.build_s": build_s,
        "crowd.sampling.users_per_s": users_per_s,
        "crowd.aggregate.runs_per_s": runs_per_s,
        "crowd.aggregate.absorbs_per_s": absorbs_per_s,
    }


def analysis_sketch(budget: float, seed: int) -> Dict[str, float]:
    from repro.analysis.sketch import QuantileSketch

    rng = random.Random(seed)
    values = [rng.lognormvariate(1.5, 1.0) - 3.0 for _ in range(5000)]
    sketch = QuantileSketch(alpha=0.005)
    inserts_per_s = _rate(lambda: sketch.add_many(values), budget,
                          per_call=len(values))
    other = QuantileSketch(alpha=0.005)
    other.add_many(values)
    quantiles = [q / 10.0 for q in range(1, 10)]

    def query() -> None:
        for q in quantiles:
            sketch.quantile(q)

    return {
        "analysis.sketch.inserts_per_s": inserts_per_s,
        "analysis.sketch.merges_per_s": _rate(
            lambda: sketch.merge(other), budget),
        "analysis.sketch.quantiles_per_s": _rate(
            query, budget, per_call=len(quantiles)),
        "analysis.sketch.roundtrip_us": _cost_us(
            lambda: QuantileSketch.from_dict(sketch.to_dict()), budget),
    }


# ----------------------------------------------------------------------
# Parallel plane
# ----------------------------------------------------------------------
def parallel_cache(budget: float, seed: int, scratch: str) -> Dict[str, float]:
    from repro.parallel import ResultCache
    from repro.workload import Session

    report = Session().run(bulk_specs(seed)[0])
    cache = ResultCache(os.path.join(scratch, "leg-cache"))
    cache.fingerprint  # hash the source tree before the clock starts
    written = [0]

    def put() -> None:
        cache.put(f"{written[0]:064x}", report)
        written[0] += 1

    puts_per_s = _rate(put, budget)
    cursor = [0]

    def hit() -> None:
        found, _ = cache.get(f"{cursor[0] % written[0]:064x}")
        assert found
        cursor[0] += 1

    def miss() -> None:
        cache.get(f"{cursor[0]:064x}"[::-1])
        cursor[0] += 1

    return {
        "parallel.cache.puts_per_s": puts_per_s,
        "parallel.cache.hits_per_s": _rate(hit, budget),
        "parallel.cache.misses_per_s": _rate(miss, budget),
    }


def parallel_wire(budget: float, seed: int) -> Dict[str, float]:
    from repro.parallel import wire

    def frames_per_s(payload: bytes, burst: int) -> float:
        """pickle -> frame -> CRC check -> unpickle over a socketpair."""
        left, right = socket.socketpair()
        received = threading.Semaphore(0)

        def reader() -> None:
            while True:
                try:
                    _, body = wire.recv_frame(right)
                except wire.WireError:
                    return
                pickle.loads(body)
                received.release()

        thread = threading.Thread(target=reader, daemon=True)
        thread.start()

        def send_burst() -> None:
            for _ in range(burst):
                wire.send_pickle(left, wire.MSG_RESULT, payload)
            for _ in range(burst):
                received.acquire()

        try:
            return _rate(send_burst, budget, per_call=burst)
        finally:
            left.close()
            thread.join(timeout=5)
            right.close()

    rng = random.Random(seed)
    return {
        "parallel.wire.frames_per_s": frames_per_s(rng.randbytes(1024), 100),
        "parallel.wire.mb_per_s": frames_per_s(
            rng.randbytes(1024 * 1024), 2),
    }


def _noop_sweep_s(count: int, workers: int, executor) -> float:
    from repro.parallel import SimTask, SweepRunner

    tasks = [SimTask(fn=NOOP_TASK, kwargs={"index": index, "seed": 0})
             for index in range(count)]
    runner = SweepRunner(workers=workers, executor=executor, cache=False)
    started = time.perf_counter()
    results = runner.run(tasks)
    elapsed = time.perf_counter() - started
    assert results == list(range(count))
    return elapsed


def _per_task_us(budget: float, count: int, workers: int,
                 executor) -> Tuple[float, float]:
    """(fixed seconds of an almost-empty sweep, marginal µs per task)."""
    fixed, full = [], []
    deadline = time.perf_counter() + budget
    while not full or time.perf_counter() < deadline:
        fixed.append(_noop_sweep_s(workers, workers, executor))
        full.append(_noop_sweep_s(count, workers, executor))
    base = statistics.median(fixed)
    per_task = (statistics.median(full) - base) / (count - workers)
    return base, max(per_task, 0.0) * 1e6


def parallel_dispatch(budget: float, seed: int,
                      scratch: str) -> Dict[str, float]:
    from repro.parallel import FleetSpec, FleetSupervisor

    _, inprocess_us = _per_task_us(budget, 400, 1, "inprocess")
    spawn_s, process_us = _per_task_us(budget, 2000, PLANE_WORKERS,
                                       "process")
    fleet = FleetSupervisor(
        FleetSpec(workers=PLANE_WORKERS, label="ledger-legs"),
        state_path=os.path.join(scratch, "leg-fleet.json"),
    )
    try:
        started = time.perf_counter()
        fleet.up()
        fleet_up_s = time.perf_counter() - started
        _, socket_us = _per_task_us(budget, 2000, PLANE_WORKERS,
                                    fleet.executor_spec)
    finally:
        fleet.down()
    return {
        "parallel.coordinator.task_us.inprocess": inprocess_us,
        "parallel.coordinator.task_us.process": process_us,
        "parallel.executors.pool_spawn_s": spawn_s,
        "parallel.socketexec.task_us": socket_us,
        "parallel.supervisor.fleet_up_s": fleet_up_s,
    }


# ----------------------------------------------------------------------
# Observability: the disabled-cost guard
# ----------------------------------------------------------------------
def _interleaved_ratio(on: Callable[[], object], off: Callable[[], object],
                       budget: float) -> float:
    """Median call with the feature on / off, sides alternating.

    Each side gets ``2 * budget`` seconds: a 3 % guard needs more
    samples than a rate does.
    """
    on_s, off_s = [], []
    clock = time.perf_counter
    deadline = clock() + 4 * budget
    while len(on_s) < 3 or clock() < deadline:
        started = clock()
        off()
        between = clock()
        on()
        off_s.append(between - started)
        on_s.append(clock() - between)
    return statistics.median(on_s) / statistics.median(off_s)


def obs_overhead(budget: float, seed: int) -> Dict[str, float]:
    from repro.obs import telemetry
    from repro.obs.trace import TraceRecorder
    from repro.workload import Session

    session = Session()
    spec = bulk_specs(seed)[0]
    trace_ratio = _interleaved_ratio(
        lambda: session.run(spec, recorder=TraceRecorder()),
        lambda: session.run(spec),
        budget,
    )

    flows = sweep_specs(seed)[::29]

    def sweep() -> None:
        session.run_many(flows, workers=1, executor="inprocess", cache=False)

    def sweep_with_bus() -> None:
        telemetry.enable()
        try:
            sweep()
        finally:
            telemetry.disable()

    telemetry_ratio = _interleaved_ratio(sweep_with_bus, sweep, budget)
    return {
        "obs.trace.overhead_ratio": trace_ratio,
        "obs.telemetry.overhead_ratio": telemetry_ratio,
    }


#: Every leg, in the order they run; those taking ``scratch`` need a
#: directory for cache entries or fleet state.
LEGS: List[Callable[..., Dict[str, float]]] = [
    core_events, net_link, tcp_transport, mptcp_transport,
    session_fixed_costs, spec_codec, flow_engine,
    core_rng, crowd_layers, analysis_sketch,
    parallel_cache, parallel_wire, parallel_dispatch,
    obs_overhead,
]

_NEEDS_SCRATCH = (parallel_cache, parallel_dispatch)


def run_legs(budget: float, seed: int, scratch: str) -> Dict[str, float]:
    """Run every leg for ``budget`` raw seconds per measured operation."""
    metrics: Dict[str, float] = {}
    for leg in LEGS:
        if leg in _NEEDS_SCRATCH:
            metrics.update(leg(budget, seed, scratch))
        else:
            metrics.update(leg(budget, seed))
    return metrics
