"""The ``run-spec`` CLI: executes a workload file, honors cache/workers."""

import json

from repro.experiments.runner import main
from repro.linkem.conditions import make_conditions
from repro.workload import TransferSpec, WorkloadSpec

FLOW_BYTES = 32 * 1024


def _workload_file(tmp_path):
    condition = make_conditions(seed=2)[0]
    workload = WorkloadSpec(name="cli-demo", seed=4, transfers=(
        TransferSpec(kind="tcp", condition=condition, nbytes=FLOW_BYTES,
                     path="wifi", seed=1),
        TransferSpec(kind="mptcp", condition=condition, nbytes=FLOW_BYTES,
                     primary="lte", seed=1),
    ))
    path = tmp_path / "workload.json"
    path.write_text(workload.to_json())
    return path


class TestRunSpecCli:
    def test_executes_workload_and_hits_cache_second_time(
            self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setenv("REPRO_CACHE", "1")
        workload = _workload_file(tmp_path)

        assert main(["run-spec", str(workload), "--workers", "2"]) == 0
        cold = capsys.readouterr().out
        assert "tcp.1.wifi" in cold
        assert "0 cached, 2 run on 2 workers" in cold

        assert main(["run-spec", str(workload)]) == 0
        warm = capsys.readouterr().out
        assert "2 cached, 0 run" in warm
        # The per-transfer report lines are byte-identical either way.
        assert cold.splitlines()[:2] == warm.splitlines()[:2]

    def test_no_cache_flag_disables_cache(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setenv("REPRO_CACHE", "1")
        workload = _workload_file(tmp_path)
        assert main(["run-spec", str(workload), "--no-cache"]) == 0
        assert "0 cached" in capsys.readouterr().out
        assert not (tmp_path / "cache").exists()

    def test_missing_file_reports_error(self, tmp_path, capsys):
        assert main(["run-spec", str(tmp_path / "nope.json")]) == 2
        assert "run-spec" in capsys.readouterr().err

    def test_invalid_workload_reports_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"name": "x", "transfers": []}))
        assert main(["run-spec", str(bad)]) == 2
        assert "transfers" in capsys.readouterr().err

    def test_example_workload_file_is_valid(self):
        import pathlib

        example = pathlib.Path(__file__).resolve().parents[2] / (
            "examples/workload.json")
        workload = WorkloadSpec.from_json(example.read_text())
        assert workload.name == "quickstart"
        assert len(workload.transfers) >= 4
