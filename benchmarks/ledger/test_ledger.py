"""Self-tests of the performance ledger.

    python -m pytest benchmarks/ledger -q

Not collected by the tier-1 suite (its ``testpaths`` is ``tests``).
The end-to-end tests drive ``run.py`` as a user would, on the
shrunken ``--quick`` workloads.
"""

import io
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import definitions  # noqa: E402
import run as ledger  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

RUN = [sys.executable, os.path.join(HERE, "run.py")]
NAMES = [cls.name for cls in workloads.WORKLOADS]


def fleet_worker_pids():
    """PIDs of every ``python -m repro.parallel worker`` on the box."""
    pids = set()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/cmdline", "rb") as handle:
                cmdline = handle.read().split(b"\0")
        except OSError:
            continue
        if b"repro.parallel" in cmdline and b"worker" in cmdline:
            pids.add(int(entry))
    return pids


def leftovers():
    return [name for name in os.listdir(os.path.join(HERE, "output"))
            if name.startswith("tmp-")]


# ----------------------------------------------------------------------
# End to end, as a user runs it
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def quick_record(tmp_path_factory):
    out = tmp_path_factory.mktemp("ledger") / "quick.json"
    workers_before = fleet_worker_pids()
    started = time.monotonic()
    proc = subprocess.run(
        RUN + ["--quick", "--trace", "--seconds", "2", "--seed", "3",
               "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    elapsed = time.monotonic() - started
    assert proc.returncode == 0, proc.stdout + proc.stderr
    with open(out) as handle:
        record = json.load(handle)
    return {"record": record, "elapsed": elapsed, "stdout": proc.stdout,
            "workers_before": workers_before}


def test_quick_run_finishes_in_a_minute(quick_record):
    assert quick_record["elapsed"] < 60.0


def test_quick_run_emits_the_schema(quick_record):
    record = quick_record["record"]
    assert record["schema"] == "repro.ledger/v1"
    env = record["environment"]
    for key in ("usable_cores", "cpu_count", "python", "platform", "commit",
                "load_avg_start", "load_avg_end", "run_seconds"):
        assert key in env
    assert list(record["workloads"]) == NAMES
    for name in NAMES:
        entry = record["workloads"][name]
        assert entry["correct"]
        assert re.fullmatch(r"[0-9a-f]{64}", entry["digests"]["3"])
        for metric in definitions.END_TO_END:
            stats = entry["metrics"][metric.name]
            assert stats["value"] > 0
            assert {"q1", "q3", "n", "unit"} <= set(stats)
        for metric in definitions.EXTRAS.get(name, []):
            assert metric.name in entry["metrics"]
        assert entry["metrics"]["failed_fraction"]["value"] == 0
        traced = record["per_layer"][name]
        assert set(traced) == {m.name for m in definitions.PER_LAYER}


def test_plane_sweep_reproduces_packet_bulk(quick_record):
    digests = {name: entry["digests"]["3"] for name, entry
               in quick_record["record"]["workloads"].items()}
    assert digests["plane_sweep"] == digests["packet_bulk"]
    assert len(set(digests.values())) == len(NAMES) - 1


def test_every_metric_is_printed_by_name(quick_record):
    stdout = quick_record["stdout"]
    for metric in definitions.END_TO_END + definitions.PER_LAYER:
        assert re.search(rf"^\s+{re.escape(metric.name)}\s", stdout, re.M)
    for extras in definitions.EXTRAS.values():
        for metric in extras:
            assert metric.name in stdout


def test_nothing_outlives_the_run(quick_record):
    assert fleet_worker_pids() <= quick_record["workers_before"]
    assert leftovers() == []


def test_driver_mode_prints_the_contract_line():
    for trace, metrics in ((0, definitions.END_TO_END),
                           (1, definitions.PER_LAYER)):
        proc = subprocess.run(
            RUN + ["--workload", "flow_sweep", "--seed", "4", "--seconds",
                   "2", "--trace", str(trace), "--quick"],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["attempted"] >= 1 and result["failed"] == 0
        assert list(result["metrics"]) == [m.name for m in metrics]
        for metric in metrics:
            entry = result["metrics"][metric.name]
            assert entry["unit"] == metric.unit
            assert isinstance(entry["value"], (int, float))


def test_calls_repeat_exactly_between_traced_runs():
    counts = []
    for _ in range(2):
        proc = subprocess.run(
            RUN + ["--workload", "packet_short", "--seed", "4", "--seconds",
                   "2", "--trace", "1", "--quick"],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        counts.append({name: entry["value"] for name, entry
                       in metrics.items() if entry["unit"] == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["core.events.calls"] > 0
    assert counts[0]["core.events.scheduled"] > 0


def test_interrupted_run_leaves_nothing_behind():
    before = fleet_worker_pids()
    proc = subprocess.Popen(
        RUN + ["--workload", "plane_sweep", "--seed", "4", "--seconds", "30",
               "--trace", "0"],
        cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    deadline = time.monotonic() + 60
    while not (fleet_worker_pids() - before):
        assert time.monotonic() < deadline, "fleet never came up"
        assert proc.poll() is None
        time.sleep(0.05)
    proc.send_signal(signal.SIGTERM)
    assert proc.wait(timeout=30) != 0
    deadline = time.monotonic() + 10
    while fleet_worker_pids() - before and time.monotonic() < deadline:
        time.sleep(0.1)
    assert fleet_worker_pids() <= before
    assert leftovers() == []


def test_fails_without_a_result_where_the_simulator_is_missing(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "ledger",
                    ignore=shutil.ignore_patterns("__pycache__", "tmp-*",
                                                  "*.json"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", "--workload",
         "packet_bulk", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_children_see_no_repro_variable_of_the_caller(monkeypatch):
    monkeypatch.setenv("REPRO_FIDELITY", "flow")
    monkeypatch.setenv("REPRO_WORKERS", "7")
    monkeypatch.setenv("REPRO_CACHE_DIR", "/somewhere/else")
    scrubbed = ledger.child_env()
    assert [key for key in scrubbed if key.startswith("REPRO_")] == [
        "REPRO_CACHE"]
    assert scrubbed["REPRO_CACHE"] == "0"


# ----------------------------------------------------------------------
# Inputs are a pure function of the seed
# ----------------------------------------------------------------------
@pytest.mark.parametrize("make", [
    workloads.bulk_specs, workloads.short_specs, workloads.sweep_specs,
])
def test_specs_are_a_pure_function_of_the_seed(make):
    assert make(7) == make(7)
    first = workloads.digest([spec.to_dict() for spec in make(7)])
    other = workloads.digest([spec.to_dict() for spec in make(8)])
    assert first != other


def test_workload_sizes_match_their_description():
    assert len(workloads.bulk_specs(1)) == 48
    assert len(workloads.short_specs(1)) == 2400
    assert len(workloads.sweep_specs(1)) == 1440
    assert {spec.fidelity for spec in workloads.sweep_specs(1)} == {"flow"}
    assert {spec.fidelity for spec in workloads.short_specs(1)} == {"packet"}
    assert {spec.nbytes for spec in workloads.short_specs(1)} == {10240}


# ----------------------------------------------------------------------
# Definitions and the contract file
# ----------------------------------------------------------------------
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_names_units_and_caps():
    spec = definitions.benchmark_json()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    assert 1 <= spec["run_seconds"] <= 60
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in spec[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in spec["end_to_end"])}]
    assert len(json.dumps(spec)) < 64 * 1024


def test_contract_file_matches_the_definitions():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        assert json.load(handle) == definitions.benchmark_json()


def test_every_leg_says_what_it_should_move():
    assert all(m.moves for m in definitions.LEG_METRICS)


# ----------------------------------------------------------------------
# Statistics and --compare
# ----------------------------------------------------------------------
def test_summarize_matches_the_acceptance_quartiles():
    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0]
    summary = stats.summarize(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert summary == {"value": 3.0, "q1": q1, "q3": q3, "min": 1.0, "n": 7}
    assert stats.iqr_share(summary) == pytest.approx((q3 - q1) / 3.0)
    assert stats.summarize([2.5]) == {
        "value": 2.5, "q1": 2.5, "q3": 2.5, "min": 2.5, "n": 1}
    assert stats.iqr_share(stats.summarize([0.0, 0.0])) == 0.0
    with pytest.raises(ValueError):
        stats.summarize([])


def test_cut_slices_follows_the_marks():
    marks = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    assert stats.cut_slices(0.5, marks, 6.5, 3) == [1.5, 2.0, 2.5]
    # Never more slices than marks; the pieces always add up to the call.
    assert stats.cut_slices(0.5, marks, 6.5, 24) == [0.5, 1, 1, 1, 1, 1.5]
    assert sum(stats.cut_slices(0.5, marks, 6.5, 4)) == pytest.approx(6.0)
    # A call that delivers in one piece is one slice.
    assert stats.cut_slices(0.5, [], 6.5, 24) == [6.0]
    assert stats.cut_slices(0.5, [6.4], 6.5, 24) == [6.0]


def test_price_slices_ignores_bursts_that_spare_two_passes():
    clean = [0.1, 0.2, 0.3, 0.4]
    passes = [list(clean) for _ in range(5)]
    for index in range(3):  # a slow phase: three passes, every slice
        passes[index] = [3 * value for value in clean]
    priced = stats.price_slices(passes)
    assert priced["value"] == priced["q1"] == pytest.approx(sum(clean))
    assert priced["min"] == pytest.approx(sum(clean))
    assert priced["median"] == pytest.approx(3 * sum(clean))
    assert priced["n"] == 5
    # A burst that hits another slice in each pass moves the median of
    # whole passes, but no slice's own statistics.
    passes = [list(clean) for _ in range(5)]
    for index in range(4):
        passes[index][index] *= 3
    priced = stats.price_slices(passes)
    assert priced["median"] == pytest.approx(sum(clean))
    assert statistics.median(sum(p) for p in passes) > 1.3 * sum(clean)
    with pytest.raises(ValueError):
        stats.price_slices([[1.0, 2.0], [1.0]])
    with pytest.raises(ValueError):
        stats.price_slices([])


def _record(**metrics):
    return {"workloads": {"packet_bulk": {"metrics": {
        name: dict(stats.summarize(values), unit="x")
        for name, values in metrics.items()
    }}}}


def _compare(old, new):
    out = io.StringIO()
    return ledger.compare_records(old, new, out=out), out.getvalue()


BOUND = definitions.END_TO_END[0].bound
TIGHT = [2.0, 2.02, 1.98]


def _scaled(values, factor):
    return [value * factor for value in values]


def test_compare_accepts_a_change_within_the_bound():
    status, text = _compare(_record(wall_s=TIGHT),
                            _record(wall_s=_scaled(TIGHT, 1 + BOUND / 2)))
    assert status == 0
    assert f"{BOUND / 2:+.2%}" in text and "REGRESSION" not in text


def test_compare_rejects_a_change_beyond_the_bound():
    status, text = _compare(_record(wall_s=TIGHT),
                            _record(wall_s=_scaled(TIGHT, 1 + 1.5 * BOUND)))
    assert status == 1 and "REGRESSION" in text
    # ... in the metric's own direction: faster is never a regression.
    rates = [20.0, 20.2, 19.8]
    status, _ = _compare(_record(units_per_s=rates),
                         _record(units_per_s=_scaled(rates, 1.5)))
    assert status == 0
    status, _ = _compare(_record(units_per_s=rates),
                         _record(units_per_s=_scaled(rates, 1 - 1.5 * BOUND)))
    assert status == 1


def test_compare_marks_a_noisy_pair_unresolved():
    noisy = [2.0, 2.0 * (1 + 2 * BOUND), 2.0 * (1 - 2 * BOUND),
             2.0 * (1 + 3 * BOUND), 2.0 * (1 - 3 * BOUND)]
    assert stats.iqr_share(stats.summarize(noisy)) > BOUND
    status, text = _compare(_record(wall_s=noisy),
                            _record(wall_s=_scaled(noisy, 1 + 2 * BOUND)))
    assert status == 0
    assert "unresolved" in text and "REGRESSION" not in text


def test_worse_by_handles_direction_and_absolute_bounds():
    wall = definitions.END_TO_END[0]
    rate = definitions.END_TO_END[1]
    error = definitions.EXTRAS["flow_sweep"][0]
    assert ledger.worse_by(wall, 2.0, 2.2) == pytest.approx(0.10)
    assert ledger.worse_by(wall, 2.0, 1.8) == pytest.approx(-0.10)
    assert ledger.worse_by(rate, 20.0, 18.0) == pytest.approx(0.10)
    assert ledger.worse_by(error, 0.10, 0.13) == pytest.approx(0.03)


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------
def test_self_time_attribution_maps_files_to_layers():
    root = "/x/src/repro"
    cases = {
        "/x/src/repro/core/events.py": "core.events",
        "/x/src/repro/tcp/cc/cubic.py": "tcp.cc",
        "/x/src/repro/tcp/cc/__init__.py": "tcp.cc",
        "/x/src/repro/scenario.py": "scenario",
        "/x/src/repro/parallel/socketexec.py": "parallel.socketexec",
        "/x/src/repro/tcp/rtt.py": "other",
        "/x/src/repro/parallel/task.py": "other",
        "/x/src/repro/__init__.py": "other",
        "/usr/lib/python3.11/heapq.py": "stdlib",
        "~": "stdlib",
        "/x/src/reproduction/core/events.py": "stdlib",
    }
    for filename, layer in cases.items():
        assert tracing.layer_of(filename, root) == layer, filename
    assert set(cases.values()) <= set(tracing.LAYERS)


def test_span_self_time_excludes_children():
    recorder = tracing.SpanRecorder()
    recorder.spans = [
        ["outer", 0.0, 10.0, -1, 0],
        ["inner", 1.0, 4.0, 0, 1],
        ["inner", 5.0, 7.0, 0, 2],
        ["leaf", 5.5, 6.0, 2, 2],
    ]
    assert recorder.self_seconds() == {
        "outer": 5.0, "inner": 4.5, "leaf": 0.5}


def test_spans_wrap_and_unwrap_the_public_seams():
    from repro.workload import Session

    recorder = tracing.SpanRecorder()
    original = Session.open
    recorder.install()
    try:
        assert recorder.missing == []
        assert Session.open is not original
        recorder.enabled = True
        spec = workloads.bulk_specs(1, quick=True)[0]
        report = Session().run(spec)
    finally:
        recorder.uninstall()
    assert Session.open is original
    assert report.completed
    names = [span[0] for span in recorder.spans]
    assert names == ["workload.session.open", "scenario.run_transfer",
                     "workload.report.build"]
    assert {span[4] for span in recorder.spans} == {1}
