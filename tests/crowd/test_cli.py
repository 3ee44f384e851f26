"""Tests for the Cell vs WiFi CLI."""

import json
import os
import subprocess
import sys

import pytest

from repro.crowd.__main__ import main

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)))), "src")


class TestCellVsWifiCli:
    def test_list_sites(self, capsys):
        assert main(["--list-sites"]) == 0
        out = capsys.readouterr().out
        assert "US (Boston, MA)" in out
        assert "Israel" in out

    def test_measurement_run_produces_verdict(self, capsys):
        assert main(["--site", "Boston", "--runs", "2"]) == 0
        out = capsys.readouterr().out
        assert out.count("run ") >= 2
        assert ("USE WIFI" in out or "USE CELLULAR" in out
                or "no comparison" in out)

    def test_unknown_site_rejected(self, capsys):
        assert main(["--site", "Atlantis"]) == 2
        assert "unknown site" in capsys.readouterr().err

    def test_invalid_runs_rejected(self, capsys):
        assert main(["--site", "Boston", "--runs", "0"]) == 2

    def test_deterministic_for_seed(self, capsys):
        main(["--site", "Israel", "--seed", "5"])
        first = capsys.readouterr().out
        main(["--site", "Israel", "--seed", "5"])
        second = capsys.readouterr().out
        assert first == second

    def test_substring_match_prefers_specific(self, capsys):
        assert main(["--site", "Thailand (Phichit)"]) == 0
        assert "Phichit" in capsys.readouterr().out


SCALE_ARGS = ["--executor", "inprocess", "--workers", "1"]


class TestCrowdScaleCli:
    def test_users_switches_to_pipeline(self, capsys):
        assert main(["--users", "800"] + SCALE_ARGS) == 0
        out = capsys.readouterr().out
        assert "800 users" in out
        assert "users/sec" in out
        assert "LTE wins" in out

    def test_json_document(self, capsys):
        assert main(["--users", "600", "--json"] + SCALE_ARGS) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["users"] == 600
        assert document["sink"] == "sketch"
        assert 0.0 < document["lte_win_fraction_combined"] < 1.0
        assert len(document["downlink_diff_quartiles_mbps"]) == 3

    def test_json_deterministic_for_seed(self, capsys):
        runs = []
        for _ in range(2):
            assert main(["--users", "400", "--seed", "11",
                         "--json"] + SCALE_ARGS) == 0
            document = json.loads(capsys.readouterr().out)
            del document["wall_s"], document["users_per_sec"]
            runs.append(document)
        assert runs[0] == runs[1]

    def test_metrics_out_is_loadable_fleet_json(self, tmp_path, capsys):
        target = tmp_path / "fleet.json"
        assert main(["--users", "500", "--shard-users", "200",
                     "--metrics-out", str(target)] + SCALE_ARGS) == 0
        capsys.readouterr()
        from repro.obs.__main__ import main as obs_main
        from repro.obs.manifest import read_manifests

        manifests = read_manifests(str(target))
        assert [m.extra["units"] for m in manifests] == [200, 200, 100]
        assert [m.key for m in manifests] == [
            f"crowd.crowd.shard.{index}" for index in range(3)
        ]
        # The README pair: --metrics-out FILE, then obs summarize FILE.
        assert obs_main(["summarize", str(target)]) == 0
        out = capsys.readouterr().out
        assert "manifests: tasks 3" in out
        assert "units/s" in out

    def test_csv_sink_writes_rows(self, tmp_path, capsys):
        target = tmp_path / "runs.csv"
        assert main(["--users", "300", "--sink", "csv",
                     "--csv-out", str(target)] + SCALE_ARGS) == 0
        assert "300" in capsys.readouterr().out
        lines = target.read_text().strip().splitlines()
        assert len(lines) == 301
        assert lines[0].startswith("user_id,site,operator")

    def test_csv_sink_requires_csv_out(self, capsys):
        assert main(["--users", "100", "--sink", "csv"] + SCALE_ARGS) == 2
        assert "--csv-out" in capsys.readouterr().err

    def test_csv_out_requires_csv_sink(self, capsys, tmp_path):
        target = tmp_path / "runs.csv"
        assert main(["--users", "100", "--csv-out", str(target)]
                    + SCALE_ARGS) == 2
        assert capsys.readouterr().err.strip() == (
            "crowd: --csv-out needs --sink csv")
        assert not target.exists()

    def test_dataset_sink_is_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--users", "300", "--sink", "dataset"] + SCALE_ARGS)
        assert excinfo.value.code == 2
        assert "invalid choice: 'dataset'" in capsys.readouterr().err

    def test_invalid_users_rejected(self, capsys):
        assert main(["--users", "0"] + SCALE_ARGS) == 2
        assert "users" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--batch", "0"), ("--batch", "-3"), ("--shard-users", "0"),
    ])
    def test_invalid_batching_rejected(self, capsys, flag, value):
        # 0 is a value, not "use the default".
        assert main(["--users", "300", flag, value] + SCALE_ARGS) == 2
        name = flag[2:].replace("-", "_")
        assert capsys.readouterr().err.strip() == (
            f"crowd: {name} must be >= 1: {value}")

    def test_reader_that_closes_early_gets_no_traceback(self, tmp_path):
        # ``python -m repro.crowd --users N | head -1`` once ``head`` has
        # gone: the child's stdout is a pipe whose read end is already
        # closed, so its first write fails whatever the machine's load.
        env = dict(os.environ, REPRO_CACHE_DIR=str(tmp_path))
        env["PYTHONPATH"] = os.pathsep.join(
            path for path in (SRC, env.get("PYTHONPATH")) if path)
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro.crowd", "--users", "20000",
                 "--workers", "1"],
                stdout=write_end, stderr=subprocess.PIPE, env=env,
            )
        finally:
            os.close(write_end)
        _, stderr = proc.communicate(timeout=120)
        stderr = stderr.decode()
        assert proc.returncode == 1, stderr
        assert "Traceback" not in stderr
        assert "BrokenPipeError" not in stderr
