"""Tests for run manifests: round trips, batches, and diffing."""

import pytest

from repro.core.errors import ConfigurationError
from repro.obs.manifest import (
    RunManifest,
    SweepTally,
    diff_manifests,
    outstanding,
    read_manifests,
    render_diff,
    render_manifests,
    tally,
    write_manifests,
)


def _manifest(**overrides) -> RunManifest:
    base = dict(
        key="tcp.1.wifi.1048576",
        spec_hash="ab" * 32,
        seed=7,
        cache_hit=False,
        wall_time_s=0.125,
        worker_pid=1234,
        workers=4,
        package_version="1.0.0",
    )
    base.update(overrides)
    return RunManifest(**base)


class TestRoundTrip:
    def test_json_round_trip(self):
        manifest = _manifest(code_fingerprint="deadbeef",
                             extra={"note": "warm"})
        assert RunManifest.from_json(manifest.to_json()) == manifest

    def test_file_round_trip(self, tmp_path):
        manifest = _manifest()
        target = tmp_path / "run.manifest.json"
        manifest.write(str(target))
        assert RunManifest.read(str(target)) == manifest

    def test_missing_field_rejected(self):
        with pytest.raises(ConfigurationError, match="spec_hash"):
            RunManifest.from_dict({"key": "x"})

    def test_optional_fields_default(self):
        data = _manifest().to_dict()
        del data["code_fingerprint"]
        del data["extra"]
        manifest = RunManifest.from_dict(data)
        assert manifest.code_fingerprint == ""
        assert manifest.extra == {}

    def test_files_older_than_resolved_s_still_load(self):
        data = _manifest(resolved_s=1.5).to_dict()
        assert data["resolved_s"] == 1.5
        del data["resolved_s"]
        assert RunManifest.from_dict(data).resolved_s == 0.0

    def test_seed_may_be_none(self):
        manifest = _manifest(seed=None)
        assert RunManifest.from_json(manifest.to_json()).seed is None


#: Malformed manifest documents, and what the error must name.
MALFORMED = [
    ("{}", "missing field 'key'"),
    ("[1, 2]", "JSON object"),
    ("not json", "not valid JSON"),
    ('"a string"', "JSON object"),
    pytest.param(
        _manifest().to_json().replace('"workers": 4', '"workers": "four"'),
        "field 'workers'", id="text-workers"),
    pytest.param(
        _manifest().to_json().replace('"wall_time_s": 0.125',
                                      '"wall_time_s": [0.125]'),
        "field 'wall_time_s'", id="list-wall-time"),
]


class TestMalformedManifests:
    @pytest.mark.parametrize("text, names", MALFORMED)
    def test_from_json_fails_typed(self, text, names):
        with pytest.raises(ConfigurationError, match=names):
            RunManifest.from_json(text)

    @pytest.mark.parametrize("data", [[1, 2], "x", None, 3])
    def test_from_dict_rejects_non_objects(self, data):
        with pytest.raises(ConfigurationError, match="JSON object"):
            RunManifest.from_dict(data)

    @pytest.mark.parametrize("text", ["not json", "7", '"x"', "[[1]]",
                                      '[{"key": "k"}]'])
    def test_read_manifests_fails_typed(self, tmp_path, text):
        target = tmp_path / "bad.json"
        target.write_text(text)
        with pytest.raises(ConfigurationError):
            read_manifests(str(target))


class TestBatches:
    def test_write_read_list(self, tmp_path):
        manifests = [_manifest(key="a"), _manifest(key="b", cache_hit=True)]
        target = tmp_path / "sweep.manifests.json"
        write_manifests(manifests, str(target))
        assert read_manifests(str(target)) == manifests

    def test_single_document_tolerated(self, tmp_path):
        manifest = _manifest()
        target = tmp_path / "one.json"
        manifest.write(str(target))
        assert read_manifests(str(target)) == [manifest]

    def test_run_record_round_trips_every_field(self, tmp_path):
        target = tmp_path / "sweep.manifests.json"
        write_manifests(_sweep(), str(target))
        assert read_manifests(str(target)) == _sweep()

    def test_empty_or_foreign_documents_rejected(self, tmp_path):
        for name, text in (("empty.json", "[]"),
                           ("other.json", '{"schema": "something/else"}'),
                           ("scalars.json", "[1, 2, 3]")):
            target = tmp_path / name
            target.write_text(text)
            with pytest.raises(ConfigurationError):
                read_manifests(str(target))


def _sweep(units=False):
    """A five-task sweep resolved out of order: every outcome, two hits."""
    def extra(**stamped):
        return {**stamped, **({"units": 500} if units else {})}

    return [
        _manifest(key="hit", cache_hit=True, wall_time_s=0.0,
                  resolved_s=0.01, extra=extra()),
        _manifest(key="slow", wall_time_s=0.4, resolved_s=0.9,
                  extra=extra()),
        _manifest(key="flaky", wall_time_s=0.2, resolved_s=0.5,
                  extra=extra(attempts=2, retried=True)),
        _manifest(key="poison", wall_time_s=0.0, resolved_s=0.7,
                  extra=extra(attempts=3, failed=True,
                              error="RuntimeError: boom")),
        _manifest(key="late-hit", cache_hit=True, wall_time_s=0.0,
                  resolved_s=0.3, extra=extra()),
    ]


class TestReductions:
    def test_tally_uses_the_sweep_stats_vocabulary(self):
        assert tally(_sweep()) == {
            "tasks": 5, "cache_hits": 2, "executed": 3,
            "retried": 1, "failed": 1,
        }
        assert tally([])["tasks"] == 0

    def test_outstanding_is_the_rank_of_resolved_s(self):
        # hit first (4 left), late-hit, flaky, poison, slow last.
        assert outstanding(_sweep()) == [4, 0, 2, 1, 3]

    def test_outstanding_without_resolved_s_is_flat(self):
        assert outstanding([_manifest(), _manifest(), _manifest()]) == [0] * 3


class _Clock:
    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now


class TestSweepTally:
    """The running form of :func:`tally` the live views read."""

    def test_fed_manifest_by_manifest_it_is_the_tally(self):
        running = SweepTally()
        running.begin(5)
        for manifest in _sweep():
            running.add(manifest.cache_hit, bool(manifest.extra.get("failed")))
        counts, offline = running.read(), tally(_sweep())
        assert (counts["done"], counts["cache_hits"], counts["failed"]) == (
            offline["tasks"], offline["cache_hits"], offline["failed"])
        assert counts["executed"] == offline["executed"]
        assert (counts["total"], counts["remaining"]) == (5, 0)
        assert counts["eta_s"] is None  # nothing remains

    def test_rate_over_window(self):
        clock = _Clock()
        running = SweepTally(clock=clock)
        running.add(False)
        clock.now += 10.0
        for _ in range(30):
            running.add(True)
        assert running.read()["rate_per_s"] == pytest.approx(3.0)

    def test_rate_degenerate_cases(self):
        clock = _Clock()
        running = SweepTally(clock=clock)
        assert running.read()["rate_per_s"] == 0.0
        running.add(False)
        assert running.read()["rate_per_s"] == 0.0  # single resolution
        running.add(False)
        assert running.read()["rate_per_s"] == 0.0  # zero time span

    def test_rate_window_keeps_the_last_240(self):
        clock = _Clock()
        running = SweepTally(clock=clock)
        for _ in range(100):  # slow start, then 240 at 10/s
            running.add(False)
            clock.now += 1.0
        for _ in range(SweepTally.WINDOW):
            running.add(False)
            clock.now += 0.1
        assert running.read()["rate_per_s"] == pytest.approx(10.0)

    def test_eta_counts_executed_tasks_only(self):
        clock = _Clock()
        running = SweepTally(clock=clock)
        running.begin(10)
        for _ in range(4):
            running.add(True)
        clock.now += 2.0
        assert running.read()["eta_s"] is None
        running.add(False)
        # 1 executed in 2s, 5 left.
        assert running.read()["eta_s"] == pytest.approx(10.0)

    def test_an_idle_tally_restarts_its_eta(self):
        clock = _Clock()
        running = SweepTally(clock=clock)
        running.begin(1)
        running.add(False)
        clock.now += 3600.0  # idle for an hour
        running.begin(4)
        clock.now += 1.0
        running.add(False)
        # 1 executed in the 1s since the second sweep began, 3 left.
        assert running.read()["eta_s"] == pytest.approx(3.0)
        assert running.read()["runs"] == 2

    def test_unknown_total_never_forecasts(self):
        running = SweepTally(total=None)
        running.add(False)
        counts = running.read()
        assert (counts["total"], counts["remaining"], counts["eta_s"]) == (
            None, None, None)


class TestRenderManifests:
    def test_header_totals_and_percentiles(self):
        text = render_manifests(_sweep())
        assert ("manifests: tasks 5   cache_hits 2   executed 3   "
                "retried 1   failed 1\n") in text
        # Executed walls only (0.4, 0.2, 0.0): hits never dilute them.
        assert "compute: 0.60s in 0.90s elapsed" in text
        assert "p50/p95: 0.20s / 0.38s" in text
        assert "max outstanding: 4" in text

    def test_one_row_per_task_with_provenance_notes(self):
        rows = render_manifests(_sweep()).splitlines()[-5:]
        assert [row.split()[0] for row in rows] == list("01234")
        by_key = {row.split()[5]: row for row in rows}
        assert " yes " in by_key["hit"] and " no " in by_key["slow"]
        assert "attempts=2  retried=True" in by_key["flaky"]
        assert "failed=True" in by_key["poison"]
        assert "error=RuntimeError: boom" in by_key["poison"]
        assert by_key["slow"].endswith("slow")

    def test_units_columns_only_when_stamped(self):
        plain = render_manifests(_sweep())
        assert "units" not in plain
        text = render_manifests(_sweep(units=True))
        assert "units/s" in text
        slow = next(line for line in text.splitlines()
                    if line.endswith("slow"))
        assert slow.split()[5:7] == ["500", "1,250"]   # 500 units / 0.4 s
        assert "units=" not in text  # a column, not a note

    def test_all_hits_and_pre_resolved_s_files(self):
        text = render_manifests([
            _manifest(key="a", cache_hit=True, wall_time_s=0.0),
            _manifest(key="b", cache_hit=True, wall_time_s=0.0),
        ])
        assert "compute: 0.00s in 0.00s elapsed" in text
        assert "max outstanding: 0" in text


class TestDiff:
    def test_identical(self):
        assert diff_manifests(_manifest(), _manifest()) == {}
        assert render_diff(_manifest(), _manifest()) == "manifests identical"

    def test_differing_fields_enumerated(self):
        a = _manifest()
        b = _manifest(seed=9, cache_hit=True)
        delta = diff_manifests(a, b)
        assert set(delta) == {"seed", "cache_hit"}
        assert delta["seed"] == (7, 9)

    def test_render_lists_each_field(self):
        rendered = render_diff(_manifest(), _manifest(workers=1))
        assert "1 field(s) differ" in rendered
        assert "workers" in rendered
