"""Shared test configuration: a hermetic result cache and a global
per-test wall-clock guard.

The suite never reads or writes the developer's ``~/.cache/repro-sweep``:
a session-scoped fixture points ``REPRO_CACHE_DIR`` at a temp directory
(tests that set their own directory keep doing so).

A hung event loop (or a deadlocked worker pool) must fail the suite
quickly instead of stalling it.  CI installs ``pytest-timeout`` and
passes ``--timeout``; this SIGALRM fallback covers bare environments
where the plugin is absent, and steps aside whenever the plugin is
installed.  Tune with ``REPRO_TEST_TIMEOUT_S`` (``0`` disables).
"""

import os
import signal

import pytest

from repro.core import env
from repro.obs import telemetry

_DEFAULT_TIMEOUT_S = 120


def _timeout_s() -> int:
    try:
        return int(os.environ.get("REPRO_TEST_TIMEOUT_S",
                                  _DEFAULT_TIMEOUT_S))
    except ValueError:
        return _DEFAULT_TIMEOUT_S


@pytest.fixture(scope="session", autouse=True)
def _hermetic_result_cache(tmp_path_factory):
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_CACHE_DIR",
                     str(tmp_path_factory.mktemp("repro-cache")))
        yield


@pytest.fixture
def isolated_env(request, monkeypatch):
    """Opt-in: result cache off, every other run-level variable unset.

    A module's ``KEEP_ENV`` names variables to leave visible (CI varies
    ``REPRO_EXECUTOR`` under some).  The one setting a process holds
    once resolved — the telemetry bus — is dropped on the way in and
    out.
    """
    keep = (env.CACHE_DIR, *getattr(request.module, "KEEP_ENV", ()))
    for variable in env.VARIABLES:
        if variable.name not in keep:
            monkeypatch.delenv(variable.name, raising=False)
    monkeypatch.setenv(env.CACHE, "0")
    telemetry.disable()
    yield
    telemetry.disable()


@pytest.fixture(autouse=True)
def _wall_clock_guard(request):
    timeout = _timeout_s()
    if (
        timeout <= 0
        or os.name != "posix"
        or not hasattr(signal, "SIGALRM")
        or request.config.pluginmanager.hasplugin("timeout")
    ):
        yield
        return

    def _on_alarm(signum, frame):
        raise TimeoutError(
            f"test exceeded the {timeout}s wall-clock guard "
            f"(set REPRO_TEST_TIMEOUT_S to adjust)"
        )

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(timeout)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
