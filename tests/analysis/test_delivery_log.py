"""The two-column :class:`DeliveryLog` against the tuple lists it replaced.

A delivery log used to be ``List[Tuple[float, int]]``; every reader
scanned or re-listed it.  The readers now bisect the log's ``times`` /
``cums`` columns.  The old list-of-pairs implementations are kept
*here* as the reference (the ``RescanSender`` pattern): hypothesis
feeds both the same monotone logs and the answers must be equal, not
close.  The rest pins what the class promises its holders — it still
reads like the list of pairs (index, slice, iterate, ``==``), it
crosses ``pickle``/``copy``/JSON unchanged, ``from_dict`` refuses
malformed rows with a typed error, and a report's logs weigh what two
columns weigh.
"""

import bisect
import copy
import json
import math
import pickle
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.throughput import (
    DeliveryLog,
    average_throughput_series,
    instantaneous_throughput_series,
    throughput_at_bytes,
    time_to_bytes,
)
from repro.core.errors import ConfigurationError
from repro.core.units import throughput_mbps
from repro.workload import Session, TransferReport, TransferSpec
from tests.workload.test_golden_reports import FIXED


# -- the implementations this PR replaced, over a list of pairs -----------
def old_time_to_bytes(pairs, started_at, nbytes):
    if started_at is None or nbytes <= 0:
        return None
    cums = [c for _, c in pairs]
    index = bisect.bisect_left(cums, nbytes)
    if index >= len(cums):
        return None
    return pairs[index][0] - started_at


def old_throughput_at_bytes(pairs, started_at, nbytes):
    elapsed = old_time_to_bytes(pairs, started_at, nbytes)
    if elapsed is None or elapsed <= 0:
        return None
    return throughput_mbps(nbytes, elapsed)


def old_average_series(pairs, start_time, step_s=0.05, end_time=None):
    if not pairs:
        return []
    if end_time is None:
        end_time = pairs[-1][0]
    points = []
    index = 0
    delivered = 0
    step = 1
    while True:
        t = start_time + step * step_s
        if t > end_time + 1e-9:
            break
        while index < len(pairs) and pairs[index][0] <= t + 1e-9:
            delivered = pairs[index][1]
            index += 1
        points.append((t, throughput_mbps(delivered, t - start_time)))
        step += 1
    return points


def old_instantaneous_series(pairs, start_time, window_s=0.2, step_s=0.05,
                             end_time=None):
    if not pairs:
        return []
    if end_time is None:
        end_time = pairs[-1][0]
    times = [t for t, _ in pairs]
    cums = [c for _, c in pairs]

    def delivered_by(when):
        index = bisect.bisect_right(times, when) - 1
        if index < 0:
            return 0.0
        return cums[index]

    points = []
    step = 1
    while True:
        t = start_time + step * step_s
        if t > end_time + 1e-9:
            break
        lo = max(start_time, t - window_s)
        window_bytes = delivered_by(t + 1e-9) - delivered_by(lo + 1e-9)
        points.append((t, throughput_mbps(window_bytes, t - lo)))
        step += 1
    return points


def old_progress_between(pairs, t0, t1):
    before = after = 0
    for t, total in pairs:
        if t <= t0:
            before = total
        if t <= t1:
            after = total
    return after - before


# -- strategies ------------------------------------------------------------
@st.composite
def monotone_pairs(draw, max_size=60):
    """A delivery log's shape: times and byte counts both non-decreasing
    (equal neighbours included — several ACKs in one event-loop instant,
    a subflow that stalls)."""
    gaps = draw(st.lists(
        st.tuples(st.sampled_from([0.0, 0.0004, 0.013, 0.05, 0.21, 1.7]),
                  st.sampled_from([0, 1, 536, 1448, 14_480, 2 ** 33])),
        max_size=max_size))
    t = draw(st.sampled_from([0.0, 0.25, 3.0]))
    n = 0
    pairs = []
    for dt, dn in gaps:
        t += dt
        n += dn
        pairs.append((t, n))
    return pairs


def as_log(pairs):
    return DeliveryLog(*zip(*pairs))


START = st.sampled_from([None, 0.0, 0.25, 1.0])
NBYTES = st.sampled_from(
    [-1, 0, 1, 536, 1448, 1449, 10_240, 100_000, 2 ** 33, 2 ** 40])


class TestAgainstListOfPairs:
    @given(pairs=monotone_pairs(), started_at=START, nbytes=NBYTES)
    @settings(max_examples=300, deadline=None)
    def test_flow_size_metrics(self, pairs, started_at, nbytes):
        log = as_log(pairs)
        assert time_to_bytes(log, started_at, nbytes) == \
            old_time_to_bytes(pairs, started_at, nbytes)
        assert throughput_at_bytes(log, started_at, nbytes) == \
            old_throughput_at_bytes(pairs, started_at, nbytes)

    @given(pairs=monotone_pairs(), start=st.sampled_from([0.0, 0.25]),
           step_s=st.sampled_from([0.05, 0.1, 0.33]),
           window_s=st.sampled_from([0.05, 0.2, 1.0]),
           end_time=st.sampled_from([None, 0.5, 2.0, 9.0]))
    @settings(max_examples=300, deadline=None)
    def test_series(self, pairs, start, step_s, window_s, end_time):
        log = as_log(pairs)
        assert average_throughput_series(log, start, step_s, end_time) == \
            old_average_series(pairs, start, step_s, end_time)
        assert instantaneous_throughput_series(
            log, start, window_s, step_s, end_time
        ) == old_instantaneous_series(pairs, start, window_s, step_s, end_time)

    @given(pairs=monotone_pairs(),
           t0=st.sampled_from([-1.0, 0.0, 0.013, 0.25, 1.7, 4.0]),
           span=st.sampled_from([0.0, 0.0004, 0.5, 60.0]))
    @settings(max_examples=300, deadline=None)
    def test_progress_between(self, pairs, t0, span):
        log = as_log(pairs)
        assert log.delivered_by(t0 + span) - log.delivered_by(t0) == \
            old_progress_between(pairs, t0, t0 + span)


class TestSequenceProtocol:
    PAIRS = [(0.0, 0), (0.5, 1448), (0.75, 2896), (2.0, 2 ** 40)]

    def test_reads_like_the_list_of_pairs(self):
        log = as_log(self.PAIRS)
        assert len(log) == 4 and log
        assert list(log) == self.PAIRS
        assert log[0] == (0.0, 0) and log[-1] == (2.0, 2 ** 40)
        assert isinstance(log[1][0], float) and isinstance(log[1][1], int)
        assert [c for _, c in log] == [0, 1448, 2896, 2 ** 40]
        with pytest.raises(IndexError):
            log[4]

    def test_slice_is_a_log(self):
        log = as_log(self.PAIRS)
        assert isinstance(log[1:3], DeliveryLog)
        assert log[1:3] == self.PAIRS[1:3]
        assert log[::-1] == self.PAIRS[::-1]
        assert log[:] == log and log[:] is not log

    def test_equality(self):
        log = as_log(self.PAIRS)
        assert log == self.PAIRS and self.PAIRS == log
        assert log == as_log(self.PAIRS)
        assert log != self.PAIRS[:-1] and log != as_log(self.PAIRS[:-1])
        assert log != [(0.0, 0), (0.5, 1448), (0.75, 2896), (2.0, 1)]
        assert log != tuple(self.PAIRS) and log != None  # noqa: E711
        assert DeliveryLog() == [] and not DeliveryLog()
        assert {"wifi": log} == {"wifi": self.PAIRS}

    def test_is_not_hashable(self):
        with pytest.raises(TypeError):
            hash(DeliveryLog())

    def test_repr_round_trips(self):
        log = as_log(self.PAIRS)
        assert repr(log) == ("DeliveryLog([0.0, 0.5, 0.75, 2.0], "
                             "[0, 1448, 2896, 1099511627776])")
        assert eval(repr(log)) == log

    def test_columns_are_typed(self):
        log = DeliveryLog([0, 1], [5, 6])
        assert log.times.typecode == "d" and log.cums.typecode == "q"
        assert log[1] == (1.0, 6)
        with pytest.raises(OverflowError):
            DeliveryLog([0.0], [2 ** 63])
        with pytest.raises(TypeError):
            DeliveryLog([0.0], [1.5])


class TestCopies:
    PAIRS = [(0.0, 0), (0.1, 1448), (0.3, 2 ** 40)]

    @pytest.mark.parametrize("protocol", [2, 3, 4, 5])
    def test_pickle(self, protocol):
        log = as_log(self.PAIRS)
        clone = pickle.loads(pickle.dumps(log, protocol=protocol))
        assert isinstance(clone, DeliveryLog) and clone == log
        assert clone.times.typecode == "d" and clone.cums.typecode == "q"

    def test_pickle_carries_the_columns_as_buffers(self):
        log = DeliveryLog([k / 8 for k in range(1000)], range(1000))
        assert len(pickle.dumps(log, protocol=pickle.HIGHEST_PROTOCOL)) \
            < 16 * 1000 + 300

    @pytest.mark.parametrize("clone_of", [copy.copy, copy.deepcopy,
                                          DeliveryLog.copy])
    def test_copies_are_independent(self, clone_of):
        log = as_log(self.PAIRS)
        clone = clone_of(log)
        assert clone == log and clone is not log
        log.times.append(9.0)
        log.cums.append(2 ** 41)
        assert clone == self.PAIRS and len(log) == 4

    def test_report_survives_pickle_copy_and_json(self):
        report = _golden_report()
        assert pickle.loads(pickle.dumps(report)) == report
        assert copy.deepcopy(report) == report
        wire = json.dumps(report.to_dict())
        clone = TransferReport.from_dict(json.loads(wire))
        assert clone == report
        assert isinstance(clone.delivery_log, DeliveryLog)
        assert json.dumps(clone.to_dict()) == wire


# -- from_dict: typed error or a valid report ------------------------------
def _tiny_dict():
    return TransferReport(
        total_bytes=2896, started_at=0.0, completed_at=0.2,
        delivery_log=DeliveryLog([0.0, 0.1, 0.2], [0, 1448, 2896]),
        subflow_delivery_logs={"wifi": DeliveryLog([0.1, 0.2], [1448, 2896]),
                               "lte": DeliveryLog()},
        label="tiny", metrics={"tcp.segments_sent": 2.0},
    ).to_dict()


class TestFromDictRows:
    @pytest.mark.parametrize("row, why", [
        ([0.3], "arity"), ([0.3, 1, 2], "arity"), (7, "arity"),
        (["soon", 5], "non-numeric"), ([0.3, "5"], "non-numeric"),
        ([0.3, None], "non-numeric"), ([None, 5], "non-numeric"),
        ([0.3, 1.5], "fractional bytes"),
        ([math.nan, 5], "nan"), ([math.inf, 5], "inf"),
        ([0.3, 2 ** 63], "int64"), ([0.3, -2 ** 63 - 1], "int64"),
        ([10 ** 400, 5], "float range"),
    ])
    def test_bad_row_names_field_and_index(self, row, why):
        data = _tiny_dict()
        data["delivery_log"][2] = row
        with pytest.raises(ConfigurationError, match=r"delivery_log\[2\]"):
            TransferReport.from_dict(data)
        data = _tiny_dict()
        data["subflow_delivery_logs"]["wifi"][1] = row
        with pytest.raises(
            ConfigurationError,
            match=r"subflow_delivery_logs\['wifi'\]\[1\]",
        ):
            TransferReport.from_dict(data)

    @pytest.mark.parametrize("rows", [None, 5, 0.5, True])
    def test_log_that_is_not_rows(self, rows):
        data = _tiny_dict()
        data["delivery_log"] = rows
        with pytest.raises(ConfigurationError, match="delivery_log"):
            TransferReport.from_dict(data)

    def test_int64_extremes_are_kept(self):
        data = _tiny_dict()
        data["delivery_log"] = [[0.0, -2 ** 63], [1, 2 ** 63 - 1]]
        log = TransferReport.from_dict(data).delivery_log
        assert log == [(0.0, -2 ** 63), (1.0, 2 ** 63 - 1)]


class TestFromDictMetrics:
    """A snapshot decodes to ``str`` names and ``int``/``float`` values,
    or fails typed, not later inside ``reconcile`` or ``summarize``."""

    @pytest.mark.parametrize("metrics", [
        {"a": "x"}, {1: 2.0}, {"a": None}, {"a": True},
    ], ids=["str-value", "int-key", "none-value", "bool-value"])
    def test_bad_metrics_raise(self, metrics):
        data = _tiny_dict()
        data["metrics"] = metrics
        with pytest.raises(ConfigurationError, match="metrics"):
            TransferReport.from_dict(data)


_JSON = st.recursive(
    st.one_of(
        st.none(), st.booleans(), st.text(max_size=4),
        st.integers(min_value=-2 ** 70, max_value=2 ** 70),
        st.floats(allow_nan=True, allow_infinity=True),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(st.text(max_size=4), children, max_size=3),
    ),
    max_leaves=8,
)


def _graft(node, path, value):
    """``node`` with the element at ``path`` replaced by ``value``; a
    path that runs off the structure grafts at the deepest container."""
    if not path or not isinstance(node, (dict, list)) or not node:
        return value
    if isinstance(node, dict):
        key = sorted(node)[path[0] % len(node)]
        return {**node, key: _graft(node[key], path[1:], value)}
    index = path[0] % len(node)
    return (node[:index] + [_graft(node[index], path[1:], value)]
            + node[index + 1:])


class TestFromDictFuzz:
    """The ``submit``/``serve`` JSON ingress: whatever arrives, the
    decoder answers with :class:`ConfigurationError` or a report whose
    logs are finite int64 columns that re-encode — never a bare
    ``TypeError``/``OverflowError``/``KeyError``."""

    @given(path=st.lists(st.integers(0, 9), max_size=4), value=_JSON)
    @settings(max_examples=600, deadline=None)
    def test_typed_error_or_valid_report(self, path, value):
        data = _graft(_tiny_dict(), path, value)
        try:
            report = TransferReport.from_dict(data)
        except ConfigurationError:
            return
        logs = [report.delivery_log, *report.subflow_delivery_logs.values()]
        for log in logs:
            assert isinstance(log, DeliveryLog)
            assert len(log.times) == len(log.cums)
            assert all(map(math.isfinite, log.times))
        assert isinstance(report.total_bytes, int)
        encoded = report.to_dict()
        assert TransferReport.from_dict(encoded).to_dict() == encoded


# -- footprint --------------------------------------------------------------
#: The ledger's unit of work: 1 MB MPTCP on a fixed-rate location.
GOLDEN_SPEC = TransferSpec(
    kind="mptcp", condition=FIXED, nbytes=1_000_000, primary="wifi",
    cc="coupled", seed=13, label="mptcp.1mb",
)


def _golden_report() -> TransferReport:
    return Session().run(GOLDEN_SPEC)


class TestFootprint:
    def test_report_logs_weigh_two_columns(self):
        report = _golden_report()
        logs = [report.delivery_log, *report.subflow_delivery_logs.values()]
        points = sum(len(log) for log in logs)
        retained = sum(
            sys.getsizeof(log) + sys.getsizeof(log.times)
            + sys.getsizeof(log.cums) for log in logs
        )
        assert points > 900
        assert retained <= 20 * points, (retained, points)

    def test_result_snapshot_is_detached_from_the_live_log(self):
        scenario, connection = Session().open(GOLDEN_SPEC)
        connection.start()
        scenario.run(until=1.0)
        snapshot = scenario.result_of(connection)
        frozen = len(snapshot.delivery_log)
        weight = sys.getsizeof(snapshot.delivery_log.times)
        assert 1 < frozen == len(connection.delivery_log)
        scenario.run(until=2.0)
        assert len(connection.delivery_log) > frozen
        assert len(snapshot.delivery_log) == frozen
        assert sys.getsizeof(snapshot.delivery_log.times) == weight
        assert snapshot.delivery_log == connection.delivery_log[:frozen]
        # The report adopts the result's snapshot instead of copying it
        # a second time.
        report = TransferReport.from_result(snapshot)
        assert report.delivery_log is snapshot.delivery_log
