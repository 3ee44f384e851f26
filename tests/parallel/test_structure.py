"""Structure guards for the sweep plane: layering, docs, import surface."""

import ast
import os
import re

import repro.parallel
from repro.core import env
from repro.parallel import coordinator, runner

REPO_ROOT = os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__))
))
SRC_ROOT = os.path.join(REPO_ROOT, "src")
PARALLEL_DIR = os.path.dirname(os.path.abspath(repro.parallel.__file__))

#: Layers that sit *above* the sweep plane: they may import it, it may
#: only reach them from inside a function (the service CLI does).
UPWARD = ("repro.workload", "repro.crowd", "repro.flow", "repro.experiments")


def _module_level_imports(tree):
    """Dotted names imported when the module itself is imported."""
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            yield node.module or ""
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.ClassDef)):
            pending.extend(ast.iter_child_nodes(node))


def test_parallel_has_no_module_level_upward_imports():
    offenders = []
    for name in sorted(os.listdir(PARALLEL_DIR)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(PARALLEL_DIR, name), encoding="utf-8") as f:
            tree = ast.parse(f.read())
        offenders += [
            f"{name}: {imported}"
            for imported in _module_level_imports(tree)
            if imported.startswith(UPWARD)
        ]
    assert offenders == []


def test_readme_env_table_matches_the_source():
    in_source = set()
    for directory, _, files in os.walk(SRC_ROOT):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(directory, name),
                          encoding="utf-8") as f:
                    in_source.update(re.findall(r"REPRO_[A-Z_]+", f.read()))
    # | `NAME` | effect | accepted values | default |
    with open(os.path.join(REPO_ROOT, "README.md"), encoding="utf-8") as f:
        documented = dict(re.findall(
            r"^\| `(REPRO_[A-Z_]+)` *\|[^|]*\| *([^|]*?) *\|", f.read(),
            flags=re.MULTILINE))
    assert set(documented) == in_source
    assert documented == {v.name: v.accepts for v in env.VARIABLES}


def test_one_engine_class_and_a_resolvable_surface():
    assert runner.SweepRunner is coordinator.SweepRunner
    assert repro.parallel.SweepRunner is coordinator.SweepRunner
    missing = [name for name in repro.parallel.__all__
               if not hasattr(repro.parallel, name)]
    assert missing == []


def test_design_failure_table_cites_existing_tests():
    with open(os.path.join(REPO_ROOT, "DESIGN.md"), encoding="utf-8") as f:
        rows = [line for line in f if line.startswith("| **")]
    assert len(rows) == 6  # DESIGN §15: one row per failure class
    defined = set()
    for directory, _, files in os.walk(os.path.join(REPO_ROOT, "tests")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(directory, name),
                          encoding="utf-8") as f:
                    defined.update(re.findall(
                        r"^\s*(?:class|def) (\w+)", f.read(), re.MULTILINE))
    for row in rows:
        exercised_by = row.rstrip().rstrip("|").rsplit("|", 1)[1]
        cited = set(re.findall(r"\b(Test\w+|test_\w+)\b(?!\.py)",
                               exercised_by))
        assert cited, row
        assert cited <= defined, sorted(cited - defined)


def _calls_by_function(tree):
    """``(enclosing function name, call node)`` for every call."""
    for function in ast.walk(tree):
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(function):
                if isinstance(node, ast.Call):
                    yield function.name, node


def _attribute_chain(node):
    """``a.b.c`` as ``["a", "b", "c"]`` (empty for anything else)."""
    names = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        names.append(node.id)
    return names[::-1]


def _src_trees():
    for directory, _, files in os.walk(os.path.join(SRC_ROOT, "repro")):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                with open(path, encoding="utf-8") as f:
                    yield os.path.relpath(path, SRC_ROOT), ast.parse(f.read())


#: What feeds a ``SweepTally``: a resolution, a sweep's start and end, a
#: lost fleet.
_FEEDS = ("add", "begin", "settle", "note_degraded")


def test_a_resolved_task_is_reported_in_emit_only():
    """One count of a sweep: ``_emit`` feeds the tallies every live view
    reads, ``run`` opens and settles the sweep, ``_warn_degraded`` notes
    a lost fleet, and nothing else counts.

    The progress line and the bus both read a ``SweepTally``; the only
    other feeder is ``submit --connect``, whose tally reads the streamed
    ``result`` events of a sweep that runs (and is counted) elsewhere.
    """
    feeders, reporters, published = set(), set(), []
    for path, tree in _src_trees():
        for function, call in _calls_by_function(tree):
            chain = _attribute_chain(call.func)
            if chain[-1:] and chain[-1] in _FEEDS and chain[-2:-1] in (
                    ["tally"], ["sweep"]):
                feeders.add((path, function, chain[-1]))
            if chain[-1:] in (["render"], ["on_result"]):
                reporters.add((path, function, chain[-1]))
            if (chain[-1:] and chain[-1] in ("count", "observe", "timer")
                    and call.args and isinstance(call.args[0], ast.Constant)
                    and str(call.args[0].value).startswith("sweep.")):
                published.append((path, function, call.args[0].value))
            if "registry" in chain[:-1] and path.startswith("repro/parallel"):
                published.append((path, function, ".".join(chain)))
    engine = "repro/parallel/coordinator.py"
    assert feeders == {
        (engine, "run", "begin"), (engine, "run", "settle"),
        (engine, "_warn_degraded", "note_degraded"), (engine, "_emit", "add"),
        ("repro/parallel/service.py", "_run_remote", "add"),
    }
    assert {(path, function) for path, function, _ in reporters
            if path == engine} == {(engine, "_emit")}
    assert published == []  # no second count of the sweep, anywhere
    with open(coordinator.__file__, encoding="utf-8") as f:
        assert "_build_manifests" not in f.read()


def test_spec_identity_is_canonicalised_once_per_task(tmp_path, monkeypatch):
    from repro.parallel import ResultCache, SimTask, cache as cache_module

    depth = [0]
    top_level = []
    real = cache_module.canonical_spec

    def counting(obj):
        if depth[0] == 0:
            top_level.append(obj)
        depth[0] += 1
        try:
            return real(obj)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(cache_module, "canonical_spec", counting)
    tasks = [SimTask(fn="tests.parallel._tasks:double",
                     kwargs={"value": value, "seed": 1},
                     key=f"double.{value}") for value in range(5)]
    store = ResultCache(str(tmp_path))
    for expected_hits in (0, 5):  # cold, then warm
        del top_level[:]
        engine = coordinator.SweepRunner(workers=1, cache=store,
                                         executor="inprocess")
        engine.run(tasks)
        assert engine.last_stats.cache_hits == expected_hits
        assert len(top_level) == len(tasks)
        # Both identities of a task come from that one pass.
        for task, manifest in zip(tasks, engine.last_manifests):
            assert store.key_of(manifest.spec_hash) == store.key_for(
                task.fn, task.kwargs)
