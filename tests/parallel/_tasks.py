"""Importable sweep tasks for executor and shared-cache tests.

Worker processes resolve tasks by ``"module:callable"`` path, so
these must live in a real importable module.  Every task accepts the
engine-injected ``seed`` kwarg.
"""

import os
import time


def double(value: int = 0, seed: int = 0) -> dict:
    """Deterministic output: identical on every backend and worker."""
    return {"value": value * 2, "seed": seed}


def slow_double(value: int = 0, seed: int = 0,
                duration_s: float = 0.2) -> dict:
    """`double` with a pause: slow enough that a multi-worker fleet
    spreads the shards, so chaos armed in one worker reliably sees
    in-flight work to hurt."""
    time.sleep(duration_s)
    return {"value": value * 2, "seed": seed}


def logged_task(log_path: str = "", value: int = 0, seed: int = 0) -> dict:
    """Append one line per *execution* so tests can count computations.

    ``O_APPEND`` writes of a short line are atomic on POSIX, so two
    racing runner processes can share one log file.  The sleep widens
    the window in which both runners miss the same key.
    """
    with open(log_path, "a", encoding="utf-8") as handle:
        handle.write(f"{value} pid={os.getpid()}\n")
    time.sleep(0.05)
    return {"value": value * 2, "seed": seed}


def fail_once(flag_path: str = "", value: int = 0, seed: int = 0) -> dict:
    """Raise on the first execution, succeed on the retry.

    The "already failed" flag is a file created with ``O_EXCL`` so
    exactly one attempt raises no matter which process runs it; the
    worker survives (an exception, not a crash), so this is safe on
    the in-process backend too.
    """
    try:
        os.close(os.open(flag_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
    except FileExistsError:
        return {"value": value * 2, "seed": seed}
    raise RuntimeError("first attempt fails")
