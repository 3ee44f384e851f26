"""Structure guards for the sweep plane: layering, docs, import surface."""

import ast
import os
import re

import repro.parallel
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
    with open(os.path.join(REPO_ROOT, "README.md"), encoding="utf-8") as f:
        documented = set(re.findall(r"^\| `(REPRO_[A-Z_]+)`", f.read(),
                                    flags=re.MULTILINE))
    assert documented == in_source


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
