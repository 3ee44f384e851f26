"""End-to-end smoke test for the serve telemetry exporter.

What CI wants to know before merging telemetry changes: does a real
``repro-serve`` process started with ``--telemetry-port`` actually
answer Prometheus scrapes and health probes while serving jobs?  The
unit tests drive :class:`TelemetryServer` in-process; this script
drives the whole stack over real sockets:

1. start ``python -m repro.parallel serve --telemetry-port 0`` and
   scrape both advertised ports from its stdout;
2. run one ``submit --connect`` job against it;
3. GET ``/metrics`` and assert well-formed Prometheus text exposition
   (``# TYPE`` lines, ``repro_``-prefixed samples, sweep counters
   moved by the job, the queue drained to 0);
4. GET ``/healthz`` and assert the JSON snapshot schema, and that the
   fleet counted the job's two transfers exactly once, with no ETA
   left once nothing remains.

Exit 0 on success, 1 with a diagnostic on any failure::

    PYTHONPATH=src python benchmarks/smoke_telemetry.py
"""

import http.client
import json
import os
import re
import subprocess
import sys
import tempfile

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _write_workload(directory: str) -> str:
    from repro.linkem.conditions import make_conditions
    from repro.workload.spec import TransferSpec, WorkloadSpec

    condition = make_conditions(seed=5)[1]
    workload = WorkloadSpec(
        name="telemetry-smoke", seed=11,
        transfers=(
            TransferSpec(kind="tcp", condition=condition,
                         nbytes=20 * 1024, path="wifi", seed=11),
            TransferSpec(kind="tcp", condition=condition,
                         nbytes=20 * 1024, path="lte", seed=11),
        ),
    )
    path = os.path.join(directory, "workload.json")
    with open(path, "w") as handle:
        json.dump(workload.to_dict(), handle)
    return path


def _http_get(host: str, port: int, path: str) -> "tuple":
    conn = http.client.HTTPConnection(host, port, timeout=10)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.read().decode("utf-8")
    finally:
        conn.close()


def _check_metrics(body: str) -> None:
    lines = [line for line in body.splitlines() if line.strip()]
    assert lines, "empty /metrics body"
    type_lines = [line for line in lines if line.startswith("# TYPE ")]
    assert type_lines, "no # TYPE lines in exposition"
    sample_re = re.compile(
        r"^repro_[a-zA-Z0-9_]+(\{[^}]*\})? [-+0-9.eEinfa]+$"
    )
    samples = [line for line in lines if not line.startswith("#")]
    assert samples, "no samples in exposition"
    for line in samples:
        assert sample_re.match(line), f"malformed sample line: {line!r}"
    joined = "\n".join(samples)
    assert "repro_sweep_tasks_done" in joined, \
        "submit job did not move repro_sweep_tasks_done"
    depth = re.findall(r"^repro_sweep_queue_depth (\S+)$", joined, re.M)
    assert depth and float(depth[0]) == 0, \
        f"queue not drained after the job: {depth}"


def _check_healthz(body: str) -> None:
    snapshot = json.loads(body)
    assert snapshot.get("ok") is True, "healthz not ok"
    assert snapshot["schema"] == "repro.obs.telemetry/v1", snapshot["schema"]
    fleet = snapshot["fleet"]
    assert fleet["tasks_done"] == fleet["tasks_total"] == 2, fleet
    assert fleet["eta_s"] is None, fleet


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        path for path in (os.path.join(REPO_ROOT, "src"),
                          env.get("PYTHONPATH")) if path
    )
    env["REPRO_CACHE"] = "0"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.parallel", "serve",
         "--listen", "127.0.0.1:0", "--telemetry-port", "0",
         "--executor", "inprocess", "--quiet"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, env=env, cwd=REPO_ROOT,
    )
    try:
        serve_line = proc.stdout.readline()
        match = re.match(r"repro-serve listening on (\S+):(\d+)", serve_line)
        assert match, f"bad serve banner: {serve_line!r}"
        serve_host, serve_port = match.group(1), int(match.group(2))
        tel_line = proc.stdout.readline()
        match = re.match(r"repro-serve telemetry on (\S+):(\d+)", tel_line)
        assert match, f"bad telemetry banner: {tel_line!r}"
        tel_host, tel_port = match.group(1), int(match.group(2))
        print(f"serve on {serve_host}:{serve_port}, "
              f"telemetry on {tel_host}:{tel_port}")

        with tempfile.TemporaryDirectory() as tmp:
            workload = _write_workload(tmp)
            submit = subprocess.run(
                [sys.executable, "-m", "repro.parallel", "submit",
                 workload, "--connect", f"{serve_host}:{serve_port}"],
                stdout=subprocess.DEVNULL, env=env, cwd=REPO_ROOT,
                timeout=120,
            )
            assert submit.returncode == 0, \
                f"submit exited {submit.returncode}"

        status, body = _http_get(tel_host, tel_port, "/metrics")
        assert status == 200, f"/metrics -> HTTP {status}"
        _check_metrics(body)
        print(f"/metrics ok ({len(body.splitlines())} lines)")

        status, body = _http_get(tel_host, tel_port, "/healthz")
        assert status == 200, f"/healthz -> HTTP {status}"
        _check_healthz(body)
        print("/healthz ok")
    except AssertionError as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1
    finally:
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
    print("telemetry smoke: PASS")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
    sys.exit(main())
