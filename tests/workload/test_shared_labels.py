"""Metric labels are built once per process and shared by every report.

A report's ``metrics`` keys (``link_delivered_bytes{dir=up,path=wifi}``
and ~37 more) are the heaviest part of a short transfer's report.  The
snapshot builders hand out one interned string per label, so reports
built in one process share them, a shard pickles each label once (the
pickle memo works by identity) and the coordinator unpickles shared
objects.  CI's executor matrix runs this module under ``inprocess``,
``process`` and a live socket fleet.
"""

import gc
import json
import pickle
import tracemalloc

import pytest

from repro.experiments.common import MPTCP_VARIANTS
from repro.linkem.conditions import make_conditions
from repro.parallel.executors import make_executor
from repro.workload import ConditionSpec, Session, TransferReport, TransferSpec

KEEP_ENV = ("REPRO_EXECUTOR",)  # CI's executor matrix covers this module
pytestmark = pytest.mark.usefixtures("isolated_env")

SHORT = 10 * 1024


def _short_specs(conditions, seeds, fidelity="packet"):
    """``packet_short``'s grid: 4 TCP and 4 MPTCP configs per location."""
    specs = []
    for seed in seeds:
        for condition in conditions:
            for path in ("wifi", "lte"):
                for direction in ("down", "up"):
                    specs.append(TransferSpec(
                        kind="tcp", condition=condition, nbytes=SHORT,
                        path=path, direction=direction, seed=seed,
                        fidelity=fidelity))
            for _, primary, cc in MPTCP_VARIANTS:
                specs.append(TransferSpec(
                    kind="mptcp", condition=condition, nbytes=SHORT,
                    primary=primary, cc=cc, seed=seed, fidelity=fidelity))
    return specs


def _conditions(count):
    return [ConditionSpec.from_condition(c)
            for c in make_conditions(seed=5)[:count]]


def _objects_per_label(reports):
    """label -> how many distinct key objects carry it."""
    seen = {}
    for report in reports:
        for key in report.metrics:
            seen.setdefault(key, set()).add(id(key))
    return {key: len(ids) for key, ids in seen.items()}


def _mptcp(fidelity, seed):
    return TransferSpec(kind="mptcp", condition=_conditions(1)[0],
                        nbytes=SHORT, primary="wifi", seed=seed,
                        fidelity=fidelity)


class TestKeysAreShared:
    def test_packet_and_flow_reports_of_one_run(self):
        specs = [_mptcp("packet", 1), _mptcp("packet", 2),
                 _mptcp("flow", 1), _mptcp("flow", 2)]
        reports = Session().run_many(specs, executor="inprocess")
        counts = _objects_per_label(reports)
        # The flow engine fills the per-subflow series through the same
        # builder, so the two engines share those keys too.
        assert any(key.startswith("segments_sent") for key in counts)
        assert set(counts.values()) == {1}

    @pytest.mark.parametrize("executor", [None, "inprocess", "process"],
                             ids=["REPRO_EXECUTOR", "inprocess", "process"])
    def test_reports_of_one_shard(self, executor):
        packet = _short_specs(_conditions(1), [3])[:4]
        flow = _short_specs(_conditions(1), [3], fidelity="flow")[-4:]
        # Two of each in a row, so every shard of two holds both kinds.
        specs = packet[:2] + flow[:2] + packet[2:] + flow[2:]
        workers = 2
        reports = Session().run_many(specs, workers=workers,
                                     executor=executor)
        # The coordinator's sharding: task j runs in shard j % nshards.
        nshards = make_executor(executor).shard_count(workers, len(specs))
        for shard in range(nshards):
            counts = _objects_per_label(reports[shard::nshards])
            assert set(counts.values()) == {1}, (shard, nshards)

    def test_from_dict_shares_keys_with_a_fresh_report(self):
        report = Session().run(_mptcp("packet", 4))
        wire = json.loads(json.dumps(report.to_dict()))
        clone = TransferReport.from_dict(wire)
        assert clone.metrics == report.metrics
        assert list(clone.metrics) == list(report.metrics)
        assert all(a is b for a, b in zip(clone.metrics, report.metrics))


class TestAReportWeighsLess:
    def test_retained_memory_per_short_report(self):
        session = Session()
        conditions = _conditions(3)
        # One warm-up pass builds every label, condition and table the
        # measured transfers touch; what stays after is the reports.
        warm = [session.run(spec) for spec in _short_specs(conditions, [99])]
        specs = _short_specs(conditions, range(1, 6))
        assert len(specs) >= 100
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            reports = [session.run(spec) for spec in specs]
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert all(report.completed for report in reports + warm)
        assert retained / len(reports) <= 4 * 1024

    def test_one_pickle_of_1200_short_reports(self):
        specs = _short_specs(_conditions(20), range(1, 9))[:1200]
        assert len(specs) == 1200
        reports = Session().run_many(specs, executor="inprocess")
        blob = pickle.dumps(reports, protocol=pickle.HIGHEST_PROTOCOL)
        assert len(blob) / len(reports) <= 900
        assert pickle.loads(blob) == reports
