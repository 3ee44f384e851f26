"""The one resolution rule, over every ``REPRO_*`` variable and every CLI.

Explicit argument > variable > default; a flag is the variable for the
length of its command.  One row per variable (``repro.core.env``'s own
table says there are eight), one command line per CLI.
"""

import argparse
import os
import subprocess
from dataclasses import dataclass
from typing import Any, Callable, Optional, Tuple

import pytest

from repro.core import env
from repro.core.errors import ConfigurationError, SweepTaskError
from repro.flow.fidelity import apply_fidelity_override, resolve_fidelity
from repro.linkem.conditions import make_conditions
from repro.obs import telemetry
from repro.obs.progress import progress_enabled_by_env
from repro.obs.trace import active_trace_dir
from repro.parallel import (
    ResultCache,
    SweepRunner,
    TaskFailure,
    resolve_executor_spec,
    resolve_workers,
)
from repro.parallel.cache import cache_enabled_by_env, default_cache_dir
from repro.workload import TransferSpec, WorkloadSpec

pytestmark = pytest.mark.usefixtures("isolated_env")

_HOME_CACHE = os.path.join(os.path.expanduser("~"), ".cache", "repro-sweep")


def _serial(**kwargs):
    return SweepRunner(workers=1, executor="inprocess", **kwargs)


def _bus_with_plane_enabled():
    telemetry.enable()
    return telemetry.active_bus() is not None


@dataclass
class Row:
    resolve: Callable[[], Any]
    default: Any
    #: variable text -> resolved value.
    from_env: Tuple[str, Any]
    #: Text outside the domain (None: every text is in it).
    garbage: Optional[str] = None
    #: (variable text it must beat, call with an explicit argument, value).
    explicit: Optional[Tuple[str, Callable[[], Any], Any]] = None
    #: (option, parsed value, pre-set variable text it must beat, value).
    flag: Optional[Tuple[str, Any, str, Any]] = None


ROWS = {
    env.WORKERS: Row(
        resolve_workers, 1, ("5", 5), "zero",
        ("5", lambda: resolve_workers(3), 3), ("--workers", 2, "5", 2)),
    env.EXECUTOR: Row(
        resolve_executor_spec, "process", (" InProcess ", "inprocess"),
        "quantum", ("inprocess", lambda: resolve_executor_spec("process"),
                    "process"),
        ("--executor", "inprocess", "process", "inprocess")),
    env.CACHE: Row(
        cache_enabled_by_env, True, ("0", False), "maybe",
        ("0", lambda: _serial(cache=True).cache is not None, True),
        ("--no-cache", True, "1", False)),
    env.CACHE_DIR: Row(
        default_cache_dir, _HOME_CACHE, (" /x/y ", "/x/y"), None,
        ("/x/y", lambda: ResultCache("/z").root, "/z")),
    env.TRACE_DIR: Row(
        active_trace_dir, None, ("/x/traces", "/x/traces"), None, None,
        ("--trace", "{tmp}/t", "/x/traces", "{tmp}/t")),
    env.PROGRESS: Row(
        progress_enabled_by_env, False, ("YES", True), "2",
        ("1", lambda: _serial(progress=False)._resolve_progress(3), None),
        ("--progress", True, "0", True)),
    env.FIDELITY: Row(
        resolve_fidelity, None, ("flow", "flow"), "quantum", None,
        ("--fidelity", "packet", "flow", "packet")),
    env.TELEMETRY: Row(
        telemetry.telemetry_enabled_by_env, False, ("on", True), "2",
        ("0", _bus_with_plane_enabled, True)),
}


@pytest.fixture
def fill(tmp_path):
    """Substitute the per-test path into a row's text."""
    def substitute(value):
        if not isinstance(value, str):
            return value
        return value.format(tmp=tmp_path)
    return substitute


def test_the_table_is_the_eight_variables():
    assert set(ROWS) == {variable.name for variable in env.VARIABLES}
    assert len(env.VARIABLES) == 8


@pytest.mark.parametrize("name", ROWS)
def test_variable_beats_default_and_blank_means_unset(name, fill,
                                                      monkeypatch):
    row = ROWS[name]
    monkeypatch.delenv(name, raising=False)  # the fixtures set two of them
    assert row.resolve() == row.default
    monkeypatch.setenv(name, "  ")
    assert row.resolve() == row.default
    text, value = row.from_env
    monkeypatch.setenv(name, fill(text))
    assert row.resolve() == value


@pytest.mark.parametrize("name", [n for n in ROWS if ROWS[n].explicit])
def test_explicit_argument_beats_variable(name, monkeypatch):
    text, call, value = ROWS[name].explicit
    monkeypatch.setenv(name, text)
    assert call() == value


@pytest.mark.parametrize("name", [n for n in ROWS if ROWS[n].garbage])
def test_garbage_is_a_configuration_error_naming_the_variable(
        name, monkeypatch):
    monkeypatch.setenv(name, ROWS[name].garbage)
    with pytest.raises(ConfigurationError, match=name):
        ROWS[name].resolve()
    with pytest.raises(ConfigurationError, match=name):
        env.check()


@pytest.mark.parametrize("name", [n for n in ROWS if ROWS[n].flag])
def test_flag_beats_a_preset_variable_for_the_command_only(
        name, fill, monkeypatch):
    row = ROWS[name]
    option, parsed, preset, value = map(fill, row.flag)
    monkeypatch.setenv(name, preset)
    args = argparse.Namespace(**{option.lstrip("-").replace("-", "_"): parsed})
    with env.exported("prog", args, option):
        assert row.resolve() == fill(value)
    assert os.environ[name] == preset


@pytest.mark.parametrize("resolve, name, default", [
    (progress_enabled_by_env, env.PROGRESS, False),
    (telemetry.telemetry_enabled_by_env, env.TELEMETRY, False),
    (cache_enabled_by_env, env.CACHE, True),
])
def test_the_three_toggles_share_one_spelling(resolve, name, default,
                                              monkeypatch):
    for text, value in [("1", True), ("true", True), ("YES", True),
                        ("on", True), ("0", False), ("false", False),
                        ("No", False), ("off", False), (" 0", False),
                        ("", default)]:
        monkeypatch.setenv(name, text)
        assert resolve() is value, text
    for text in ("2", "maybe"):
        monkeypatch.setenv(name, text)
        with pytest.raises(ConfigurationError, match=name):
            resolve()


def test_fidelity_override_rewrites_specs_in_both_directions(monkeypatch):
    spec = TransferSpec(kind="tcp", condition=make_conditions()[0],
                        path="wifi", nbytes=100_000, seed=3, fidelity="flow")
    monkeypatch.setenv(env.FIDELITY, "packet")
    assert apply_fidelity_override(spec).fidelity == "packet"


# -- the CLIs ---------------------------------------------------------------
def _clis(tmp_path):
    """``prog -> (main, argv that runs a small real job, every flag)``."""
    from repro.crowd.__main__ import main as crowd_main
    from repro.experiments.runner import main as experiments_main
    from repro.parallel.service import serve_main, submit_main
    from repro.parallel.supervisor import fleet_main

    condition = make_conditions(seed=2)[0]
    workload = tmp_path / "workload.json"
    workload.write_text(WorkloadSpec(name="env-test", seed=4, transfers=(
        TransferSpec(kind="tcp", condition=condition, nbytes=16 * 1024,
                     path="wifi", seed=1),)).to_json())
    sweep = ["--workers", "2", "--executor", "inprocess"]
    run = sweep + ["--no-cache", "--fidelity", "flow",
                   "--trace", str(tmp_path / "t"), "--progress"]
    return {
        "repro-experiments": (experiments_main, ["failover", "--fast"], run),
        "run-spec": (experiments_main, ["run-spec", str(workload)], run),
        "submit": (submit_main, [str(workload)], sweep + ["--no-cache"]),
        "crowd": (crowd_main, ["--users", "300"], sweep + ["--progress"]),
        # These two serve until interrupted: only their refusals run here.
        "serve": (serve_main, [], sweep),
        "fleet up": (fleet_main, ["up"], []),
    }


def _settings():
    return ({k: v for k, v in os.environ.items() if k.startswith("REPRO_")},
            resolve_workers(), resolve_executor_spec(), resolve_fidelity())


@pytest.mark.parametrize("prog", ["repro-experiments", "run-spec", "submit",
                                  "crowd", "serve", "fleet up"])
def test_bad_variable_exits_2_in_one_line_before_any_work(
        prog, tmp_path, capsys, monkeypatch):
    main, argv, flags = _clis(tmp_path)[prog]
    for owner, attr in ((subprocess, "Popen"), (SweepRunner, "run")):
        monkeypatch.setattr(owner, attr, lambda *a, **k: pytest.fail(
            f"{prog} started work before resolving its settings"))
    # No flag exports this one; every variable is resolved all the same.
    monkeypatch.setenv(env.TELEMETRY, "maybe")
    before = _settings()[0]
    with pytest.raises(SystemExit) as excinfo:
        main(argv + flags)
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"{prog}: {env.TELEMETRY} ")
    assert captured.err.count("\n") == 1  # one line, no traceback
    assert _settings()[0] == before


@pytest.mark.parametrize("prog, argv, environ, named", [
    ("repro-experiments", ["--workers", "0"], {}, "--workers must be >= 1: 0"),
    ("repro-experiments", ["--executor", "bogus"], {}, "--executor: unknown"),
    ("repro-experiments", ["--fidelity", "bogus"], {}, "--fidelity: must be"),
    ("crowd", ["--workers", "0"], {}, "--workers must be >= 1: 0"),
    ("crowd", ["--executor", "bogus"], {}, "--executor: unknown"),
    ("crowd", [], {env.WORKERS: "0"}, f"{env.WORKERS} must be >= 1: 0"),
])
def test_a_bad_value_is_named_where_it_came_from(
        prog, argv, environ, named, tmp_path, capsys, monkeypatch):
    # The flag when a flag supplied it, the variable when the
    # environment did.
    main, job, _ = _clis(tmp_path)[prog]
    for name, value in environ.items():
        monkeypatch.setenv(name, value)
    with pytest.raises(SystemExit) as excinfo:
        main(job + argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{prog}: {named}")
    assert err.count("REPRO_") == (1 if environ else 0)


@pytest.mark.parametrize("prog", ["repro-experiments", "run-spec", "submit",
                                  "crowd"])
def test_a_command_with_every_flag_leaves_no_setting_behind(
        prog, tmp_path, capfd, monkeypatch):
    main, argv, flags = _clis(tmp_path)[prog]
    monkeypatch.setenv(env.WORKERS, "3")  # a pre-set value must come back
    before = _settings()
    assert main(argv + flags) == 0
    assert _settings() == before

    def poisoned(self, tasks):
        raise SweepTaskError([TaskFailure(0, "poison", "boom", 1)])

    monkeypatch.setattr(SweepRunner, "run", poisoned)
    try:
        assert main(argv + flags) != 0
    except SweepTaskError:
        pass  # repro-experiments and crowd let it propagate
    assert _settings() == before
    capfd.readouterr()
