"""The service CLI: submit (local and remote), serve, JSONL stream."""

import argparse
import json
import os
import re
import subprocess
import sys

import pytest

from repro.core.errors import ConfigurationError
from repro.linkem.conditions import make_conditions
from repro.parallel.service import submit_main
from repro.parallel.__main__ import main as parallel_main
from repro.workload import TransferSpec, WorkloadSpec

REPO_ROOT = os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__))
))
FLOW_BYTES = 16 * 1024


pytestmark = pytest.mark.usefixtures("isolated_env")


def _workload(seed=11):
    condition = make_conditions(seed=5)[1]
    return WorkloadSpec(
        name="service-test", seed=seed,
        transfers=(
            TransferSpec(kind="tcp", condition=condition,
                         nbytes=FLOW_BYTES, path="wifi", seed=seed),
            TransferSpec(kind="tcp", condition=condition,
                         nbytes=FLOW_BYTES, path="lte", seed=seed),
        ),
    )


def _write_workload(tmp_path):
    path = tmp_path / "workload.json"
    path.write_text(json.dumps(_workload().to_dict()))
    return str(path)


def _parse_stream(out):
    events = [json.loads(line) for line in out.splitlines() if line.strip()]
    results = [e for e in events if e.get("event") == "result"]
    dones = [e for e in events if e.get("event") == "done"]
    return results, dones


class TestSubmitLocal:
    def test_streams_jsonl_results_then_done(self, tmp_path, capsys):
        path = _write_workload(tmp_path)
        assert submit_main([path, "--executor", "inprocess"]) == 0
        results, dones = _parse_stream(capsys.readouterr().out)
        assert len(results) == 2
        assert sorted(r["index"] for r in results) == [0, 1]
        for event in results:
            assert event["cached"] is False
            assert event["report"]["completed"] is True
            assert event["report"]["total_bytes"] == FLOW_BYTES
            assert event["report"]["throughput_mbps"] > 0
        (done,) = dones
        assert done["failures"] == []
        assert done["stats"]["tasks"] == 2
        assert done["stats"]["executor"] == "inprocess"

    def test_full_reports_round_trip(self, tmp_path, capsys):
        from repro.workload import Session
        from repro.workload.report import TransferReport

        path = _write_workload(tmp_path)
        assert submit_main([path, "--executor", "inprocess",
                            "--full-reports"]) == 0
        results, _ = _parse_stream(capsys.readouterr().out)
        restored = {
            e["index"]: TransferReport.from_dict(e["report"])
            for e in results
        }
        workload = _workload()
        direct = Session(seed=workload.seed).run_workload(
            workload, executor="inprocess"
        )
        assert [restored[i] for i in range(2)] == direct

    def test_missing_workload_file_is_an_error(self, tmp_path, capsys):
        assert submit_main([str(tmp_path / "absent.json")]) == 2

    def test_dispatch_via_module_main(self, tmp_path, capsys):
        path = _write_workload(tmp_path)
        assert parallel_main(["submit", path, "--executor",
                              "inprocess"]) == 0
        results, dones = _parse_stream(capsys.readouterr().out)
        assert len(results) == 2 and len(dones) == 1

    def test_unknown_command_rejected(self, capsys):
        assert parallel_main(["frobnicate"]) == 2
        assert "unknown command" in capsys.readouterr().err


class TestSubmitRemote:
    def test_round_trip_through_serve(self, tmp_path, capsys):
        """submit --connect ships the job; serve streams it back.

        The streamed reports must be byte-identical (as JSON) to a
        local run of the same workload — the wire changes transport,
        never results.
        """
        path = _write_workload(tmp_path)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(REPO_ROOT, "src"), REPO_ROOT,
                        env.get("PYTHONPATH")) if p
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.parallel", "serve",
             "--listen", "127.0.0.1:0", "--once", "--quiet",
             "--executor", "inprocess"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, env=env, cwd=REPO_ROOT,
        )
        try:
            line = proc.stdout.readline()
            match = re.match(r"repro-serve listening on (\S+:\d+)", line)
            assert match, line
            assert submit_main([path, "--connect", match.group(1),
                                "--full-reports"]) == 0
        finally:
            proc.terminate()
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
        remote_results, remote_dones = _parse_stream(
            capsys.readouterr().out
        )

        assert submit_main([path, "--executor", "inprocess",
                            "--full-reports"]) == 0
        local_results, _ = _parse_stream(capsys.readouterr().out)

        assert len(remote_results) == 2

        def by_index(event):
            return event["index"]

        assert sorted(remote_results, key=by_index) == sorted(
            local_results, key=by_index
        )
        (done,) = remote_dones
        assert done["failures"] == []
        assert done["stats"]["tasks"] == 2


    @pytest.mark.parametrize("flag, message", [
        (["--no-cache"], "--no-cache applies to local runs"),
        (["--telemetry-out", "t.jsonl"],
         "--telemetry-out applies to local runs"),
    ])
    def test_local_only_flags_are_rejected_with_connect(
            self, flag, message, tmp_path, capsys):
        # Nothing listens on port 1: a flag that was silently ignored
        # would get as far as "cannot reach".
        with pytest.raises(SystemExit) as excinfo:
            submit_main([_write_workload(tmp_path), "--connect",
                         "127.0.0.1:1", *flag])
        assert excinfo.value.code == 2
        assert message in capsys.readouterr().err


class TestConnectRetry:
    def test_retries_with_backoff_then_succeeds(self, monkeypatch):
        import socket as socket_module

        from repro.parallel import service

        calls = {"n": 0}
        sentinel = object()

        def flaky_connect(address, timeout=None):
            calls["n"] += 1
            if calls["n"] <= 2:
                raise ConnectionRefusedError("refused")
            return sentinel

        delays = []
        monkeypatch.setattr(socket_module, "create_connection",
                            flaky_connect)
        monkeypatch.setattr(service.time, "sleep", delays.append)
        assert service._connect_with_retry("127.0.0.1", 1) is sentinel
        assert delays == [0.1, 0.2]  # exponential from CONNECT_BACKOFF_S

    def test_exhausted_attempts_raise_with_guidance(self, monkeypatch):
        import socket as socket_module

        from repro.parallel import service

        def always_refused(address, timeout=None):
            raise ConnectionRefusedError("refused")

        monkeypatch.setattr(socket_module, "create_connection",
                            always_refused)
        monkeypatch.setattr(service.time, "sleep", lambda _s: None)
        with pytest.raises(OSError) as excinfo:
            service._connect_with_retry("127.0.0.1", 1, attempts=3)
        message = str(excinfo.value)
        assert "after 3 attempts" in message
        assert "is 'python -m repro.parallel serve' running there?" \
            in message

    def test_submit_to_dead_port_exits_2(self, tmp_path, capsys,
                                         monkeypatch):
        import socket as socket_module

        from repro.parallel import service

        # Bind-then-close guarantees nothing listens on the port.
        probe = socket_module.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()

        monkeypatch.setattr(service.time, "sleep", lambda _s: None)
        path = _write_workload(tmp_path)
        assert submit_main([path, "--connect", f"127.0.0.1:{port}"]) == 2
        err = capsys.readouterr().err
        assert f"submit: cannot reach 127.0.0.1:{port}" in err
        assert "serve' running there?" in err


class TestServeIsolation:
    """One server, three hostile connections, still serving."""

    @pytest.fixture
    def serve_proc(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(REPO_ROOT, "src"), REPO_ROOT,
                        env.get("PYTHONPATH")) if p
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.parallel", "serve",
             "--listen", "127.0.0.1:0", "--quiet",
             "--executor", "inprocess"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, env=env, cwd=REPO_ROOT,
        )
        line = proc.stdout.readline()
        match = re.match(r"repro-serve listening on (\S+):(\d+)", line)
        assert match, line
        yield proc, match.group(1), int(match.group(2))
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()

    def _handshake(self, host, port):
        import socket as socket_module

        from repro.parallel import wire

        sock = socket_module.create_connection((host, port), timeout=10.0)
        local_hello = wire.hello_payload()
        wire.send_json(sock, wire.MSG_HELLO, local_hello)
        msg_type, payload = wire.recv_frame(sock, timeout_s=10.0)
        assert msg_type == wire.MSG_HELLO
        return sock

    def test_bad_job_then_disconnect_then_clean_submit(
            self, serve_proc, tmp_path, capsys):
        from repro.parallel import wire

        proc, host, port = serve_proc

        # 1. A malformed workload is refused, connection ends there.
        sock = self._handshake(host, port)
        wire.send_json(sock, wire.MSG_JOB, {"workload": {"bogus": True}})
        msg_type, payload = wire.recv_frame(sock, timeout_s=10.0)
        assert msg_type == wire.MSG_REFUSED
        assert "bad workload" in wire.recv_json(payload)["error"]
        sock.close()

        # 2. A client that vanishes mid-stream (valid job, then an
        #    abrupt close after the first report).
        sock = self._handshake(host, port)
        wire.send_json(sock, wire.MSG_JOB,
                       {"workload": _workload().to_dict()})
        msg_type, _ = wire.recv_frame(sock, timeout_s=60.0)
        assert msg_type == wire.MSG_REPORT
        sock.close()  # mid-stream disconnect

        # 3. The same server still completes an honest submission.
        path = _write_workload(tmp_path)
        assert submit_main(
            [path, "--connect", f"{host}:{port}"]) == 0
        results, dones = _parse_stream(capsys.readouterr().out)
        assert len(results) == 2 and len(dones) == 1
        assert proc.poll() is None  # never died


class TestHandleJobIsolation:
    """In-process `_handle_job`: the catch-all and the gone client."""

    def _args(self):
        return argparse.Namespace(workers=None, executor="inprocess")

    def test_crashing_job_is_refused_not_raised(self, monkeypatch):
        import socket as socket_module

        import repro.workload
        from repro.parallel import wire
        from repro.parallel.service import _handle_job

        class ExplodingSession:
            def __init__(self, seed=0):
                self.last_stats = None

            def run_workload(self, *args, **kwargs):
                raise ZeroDivisionError("surprise inside a task runner")

        monkeypatch.setattr(repro.workload, "Session", ExplodingSession)
        server, client = socket_module.socketpair()
        try:
            client.settimeout(5.0)
            _handle_job(server, {"workload": _workload().to_dict()},
                        self._args(), lambda _m: None)
            msg_type, payload = wire.recv_frame(client)
            assert msg_type == wire.MSG_REFUSED
            error = wire.recv_json(payload)["error"]
            assert "job crashed" in error and "ZeroDivisionError" in error
        finally:
            server.close()
            client.close()

    @pytest.mark.parametrize("field, value", [
        ("workers", "2"), ("workers", 0), ("workers", True),
        ("workers", 2.5), ("workers", [2]), ("executor", "quantum"),
        ("executor", 7), ("full_reports", "yes"),
    ])
    def test_mistyped_job_field_is_a_bad_job_not_a_crash(self, field, value):
        import socket as socket_module

        from repro.parallel import wire
        from repro.parallel.service import _handle_job

        logged = []
        server, client = socket_module.socketpair()
        try:
            client.settimeout(5.0)
            _handle_job(server,
                        {"workload": _workload().to_dict(), field: value},
                        argparse.Namespace(workers=None, executor=None),
                        logged.append)
            msg_type, payload = wire.recv_frame(client)
            assert msg_type == wire.MSG_REFUSED
            error = wire.recv_json(payload)["error"]
            assert error.startswith("bad job: ") and repr(value) in error
            assert logged == []  # refused before the job was announced
        finally:
            server.close()
            client.close()

    def test_client_gone_mid_stream_does_not_raise(self, monkeypatch):
        import socket as socket_module

        import repro.workload
        from repro.parallel.service import _handle_job

        finished = {"sweep": False}

        class StreamingSession:
            def __init__(self, seed=0):
                self.last_stats = None

            def run_workload(self, workload, workers=None, executor=None,
                             on_result=None):
                class _Report:
                    def summary_dict(self):
                        return {"completed": True}

                    def to_dict(self):
                        return {"completed": True}

                class _Task:
                    def label(self):
                        return "t0"

                for index in range(3):
                    on_result(index, _Task(), _Report(), False)
                finished["sweep"] = True
                return []

        monkeypatch.setattr(repro.workload, "Session", StreamingSession)
        server, client = socket_module.socketpair()
        client.close()  # the peer is already gone
        try:
            # Must neither raise nor abort the sweep: the results are
            # still computed (and in real runs, cached).
            _handle_job(server, {"workload": _workload().to_dict()},
                        self._args(), lambda _m: None)
            assert finished["sweep"]
        finally:
            server.close()


class TestListenAddress:
    """`worker --listen` and `serve --listen` share one parser."""

    def _error(self, main, value, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--listen", value])
        assert excinfo.value.code == 2
        last_line = capsys.readouterr().err.strip().splitlines()[-1]
        return last_line.split("error: ", 1)[1]

    @pytest.mark.parametrize(
        "value", ["a:1,b:2", "host:70000", ":80", "host:x"])
    def test_malformed_values_get_the_same_error(self, value, capsys):
        from repro.parallel.service import serve_main
        from repro.parallel.worker import main as worker_main

        worker_error = self._error(worker_main, value, capsys)
        assert worker_error == self._error(serve_main, value, capsys)
        assert worker_error.startswith("argument --listen:")

    def test_port_zero_is_a_listen_address_only(self):
        from repro.parallel import wire

        assert wire.listen_address("127.0.0.1:0") == ("127.0.0.1", 0)
        with pytest.raises(ConfigurationError):
            wire.parse_address("127.0.0.1:0")
