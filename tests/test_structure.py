"""Structure guards for the apparatus vocabulary: one spelling each.

A location is a :class:`ConditionSpec`, its network comes out of
:func:`mpshell`, its failures are a :class:`FaultSpec`.  The pre-spec
types those replaced must not grow back beside them.
"""

import ast
import importlib
import inspect
import os
import re
import subprocess
import sys

import pytest

import repro.linkem
import repro.workload

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Identifiers the spec types replaced (the bare word "MpShell" may
#: stay in prose as the paper's name for the assembly).
REPLACED = re.compile(
    r"LinkSpec|LocationCondition|build_scenario|to_link_spec|from_link_spec"
    r"|to_condition|_condition_spec|schedule_multipath|schedule_unplug"
    r"|schedule_replug|run_sweep|DatasetSink|class MpShell|MpShell\(|\.shell\("
    r"|run_all_configs|replay_over_conditions"
)


def _text_files(*roots):
    for root in roots:
        path = os.path.join(REPO_ROOT, root)
        if os.path.isfile(path):
            yield path
            continue
        for directory, _, files in os.walk(path):
            for name in files:
                if name.endswith((".py", ".md", ".json")):
                    yield os.path.join(directory, name)


def _grep(pattern, *roots):
    hits = []
    for path in _text_files(*roots):
        with open(path, encoding="utf-8") as handle:
            for number, line in enumerate(handle, start=1):
                if pattern.search(line):
                    hits.append(f"{os.path.relpath(path, REPO_ROOT)}:"
                                f"{number}: {line.strip()}")
    return hits


def test_replaced_identifiers_appear_nowhere():
    assert _grep(REPLACED, "src", "examples", "docs", "README.md") == []
    assert not os.path.exists(
        os.path.join(REPO_ROOT, "src", "repro", "mptcp", "events.py"))


def _chaos_clis():
    from repro.experiments.runner import main as experiments_main
    from repro.parallel.service import serve_main, submit_main
    from repro.parallel.supervisor import fleet_main

    workload = os.path.join(REPO_ROOT, "examples", "workload.json")
    return {
        "repro-experiments": lambda flag: experiments_main(["fig08"] + flag),
        "submit": lambda flag: submit_main([workload] + flag),
        "serve": lambda flag: serve_main(flag),
        "fleet up": lambda flag: fleet_main(["up"] + flag),
    }


def test_chaos_appears_nowhere_in_the_product():
    # The infrastructure chaos harness lives under tests/parallel/.
    assert _grep(re.compile("chaos", re.IGNORECASE), "src") == []


@pytest.mark.parametrize("prog", ["repro-experiments", "submit", "serve",
                                  "fleet up"])
def test_no_cli_takes_a_chaos_flag(prog, capsys):
    with pytest.raises(SystemExit) as excinfo:
        _chaos_clis()[prog](["--chaos", "x"])
    assert excinfo.value.code == 2
    assert "--chaos" in capsys.readouterr().err


def _loaded_after(code):
    """Every module a fresh interpreter holds once it has run ``code``."""
    probe = code + "\nimport sys\nprint(' '.join(sorted(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        check=True, env={**os.environ, "PYTHONPATH": os.path.join(
            REPO_ROOT, "src")}).stdout
    return set(out.split())


def test_importing_the_plane_loads_no_chaos_module():
    loaded = _loaded_after("import repro, repro.parallel, repro.parallel.worker")
    assert [name for name in loaded if "chaos" in name] == []


SERIAL_TRANSFER = """
from repro.workload import ConditionSpec, PathSpec, Session, TransferSpec
condition = ConditionSpec(0, (PathSpec("wifi", "wifi", 10.0, 5.0, 40.0),))
spec = TransferSpec(kind="tcp", condition=condition, nbytes=10_000,
                    path="wifi", seed=7)
assert Session().run(spec).completed
"""


def test_a_serial_transfer_loads_no_server_pool_or_report_module():
    # Each is imported where it is built or called, never on this path.
    unused = {"http.server", "multiprocessing", "concurrent.futures",
              "argparse", "repro.parallel.supervisor",
              "repro.parallel.service", "repro.parallel.socketexec",
              "repro.parallel.wire", "repro.obs.summary",
              "repro.analysis.bootstrap", "repro.analysis.plotting",
              "repro.analysis.export"}
    assert sorted(_loaded_after(SERIAL_TRANSFER) & unused) == []


def test_the_crowd_pipeline_loads_no_packet_core():
    loaded = _loaded_after("import repro.crowd.pipeline")
    packet_core = [name for name in loaded
                   if name.split(".")[:2] in (["repro", "tcp"],
                                              ["repro", "mptcp"],
                                              ["repro", "net"],
                                              ["repro", "scenario"])]
    assert packet_core == []


def test_a_socket_worker_loads_no_supervisor_or_http_server():
    loaded = _loaded_after("import repro.parallel.worker")
    assert sorted(loaded & {"repro.parallel.supervisor", "http.server"}) == []


def _packages():
    src = os.path.join(REPO_ROOT, "src")
    for directory, _, files in os.walk(os.path.join(src, "repro")):
        if "__init__.py" in files:
            package = os.path.relpath(directory, src).replace(os.sep, ".")
            yield package, os.path.join(directory, "__init__.py")


def _export_table(init_path):
    """The ``{name: module}`` literal an ``__init__`` gives lazy_exports."""
    with open(init_path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "lazy_exports"):
            return ast.literal_eval(node.args[1])
    return None


PACKAGES = sorted(_packages())


@pytest.mark.parametrize("package, init_path", PACKAGES,
                         ids=[package for package, _ in PACKAGES])
def test_package_exports_resolve_to_their_modules_objects(package,
                                                          init_path):
    table = _export_table(init_path)
    assert table, f"{package} does not export through lazy_exports"
    module = importlib.import_module(package)
    assert set(module.__all__) - {"__version__"} == set(table)
    for name, where in table.items():
        defining = importlib.import_module(where, package)
        own = defining if where == "." + name else getattr(defining, name)
        assert getattr(module, name) is own, name
        assert name in dir(module), name
    with pytest.raises(AttributeError,
                       match=re.escape(f"module {package!r} has no")):
        getattr(module, "no_such_export")


def test_experiments_have_one_way_to_build_a_network_and_run_a_batch():
    hand_built = re.compile(
        r"Scenario\(|PathConfig\(|def _scenario|def _run_backup_flow")
    assert _grep(hand_built, "src/repro/experiments") == []
    # §3.6 and §5 are a grid plus a reducer: one sweep per run().
    for module, sweeps in (("fig15", 1), ("fig16", 1), ("fig18_19", 1),
                           ("fig20_21", 0)):  # reuses fig18_19's
        path = f"src/repro/experiments/{module}.py"
        assert len(_grep(re.compile(r"SweepRunner\("), path)) == sweeps, path
    assert _grep(re.compile(r"\blambda\b"),
                 "src/repro/experiments/fig15.py") == []


def test_one_link_materializer_and_one_assembly():
    definitions = _grep(re.compile(r"def to_path_config"), "src")
    assert len(definitions) == 1, definitions
    callers = sorted(
        hit.split(":")[0]
        for hit in _grep(re.compile(r"\.to_path_config\("), "src")
    )
    # The MpShell assembly (packet engine) and the flow model.
    assert callers == ["src/repro/flow/model.py",
                       "src/repro/linkem/shells.py"]


def test_spec_types_are_defined_once_and_re_exported():
    for name in ("PathSpec", "ConditionSpec"):
        definitions = _grep(re.compile(rf"^class {name}\b"), "src")
        assert len(definitions) == 1, definitions
        assert getattr(repro.workload, name) is getattr(repro.linkem, name)
    # The frozen ledger's one call into the registry stays an identity.
    source = inspect.getsource(repro.linkem.ConditionSpec.from_condition)
    assert len(source.strip().splitlines()) <= 3
    row = repro.linkem.make_conditions()[0]
    assert repro.linkem.ConditionSpec.from_condition(row) is row


def test_one_module_touches_the_environment_and_the_old_rung_is_gone():
    touching = [hit.split(":")[0]
                for hit in _grep(re.compile(r"os\.environ"), "src/repro")]
    assert set(touching) == {"src/repro/core/env.py"}
    # Spelled in pieces so this file passes its own search.
    gone = [f"{verb}_default_{what}" for verb in ("set", "get")
            for what in ("workers", "executor", "fidelity")]
    gone += ["_default_" + what
             for what in ("workers", "executor_spec", "fidelity")]
    gone += ["_run_" + "kwargs", "_apply_obs_" + "flags"]
    gone += [f"_add_{what}_argument"
             for what in ("fidelity", "executor", "obs")]
    assert _grep(re.compile("|".join(gone)), "src", "tests", "docs",
                 "benchmarks/_harness.py", "README.md", "DESIGN.md") == []


def test_a_delivery_log_is_two_columns_everywhere():
    # The tuple-list spelling (annotation or default) and the
    # list(...) copy of one must not grow back beside DeliveryLog.
    tuple_list = re.compile(
        r"(List|Sequence)\[Tuple\[float, int\]\]"
        r"|list\(\s*[\w.]*delivery_log\s*\)"
        r"|delivery_logs?\b[^=\n]*=\s*(\[\]|field\(default_factory=list\))")
    assert _grep(tuple_list, "src/repro") == []
    definitions = _grep(re.compile(r"^class DeliveryLog\b"), "src")
    assert [hit.split(":")[0] for hit in definitions] == [
        "src/repro/analysis/throughput.py"]
