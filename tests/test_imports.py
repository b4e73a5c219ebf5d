"""Import cost: no pipeline step loads SciPy, and the process-pool modules are
loaded by a suite run on more than one CPU, not by import. Every module-level
import and private definition in the package is used, and no code outside
`allocator.track_sequence` branches on a model's family or a variant's name."""
import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import aeroalloc
from aeroalloc import dynamics, harness

from conftest import constant_affine_model

SRC = Path(aeroalloc.__file__).parent

SCIPY_PROBE_SCRIPT = """
import sys
import numpy as np

def scipy_modules():
    print(sorted(m for m in sys.modules if m.startswith("scipy")))

import aeroalloc
scipy_modules()
import aeroalloc.cli
scipy_modules()
aeroalloc.solve(aeroalloc.AllocationProblem(a=np.zeros(6), b=np.eye(6, 4), y_target=np.ones(6)))
scipy_modules()
from aeroalloc import dynamics, harness
model = dynamics.load_dynamics_model(sys.argv[1])
harness.closed_loop_run(model, harness.ExperimentConfig(duration_s=2.0), 10.0)
scipy_modules()
"""


def _run(script, *args):
    done = subprocess.run(
        [sys.executable, "-c", script, *args], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_no_pipeline_step_loads_scipy(tmp_path):
    # after import aeroalloc, import aeroalloc.cli, one solve and a 2 s closed loop
    path = tmp_path / "m.json"
    dynamics.save_dynamics_model(constant_affine_model(np.zeros(6), np.eye(6, 4)), path)
    assert _run(SCIPY_PROBE_SCRIPT, str(path)).split() == ["[]"] * 4


POOL_MODULES = ("multiprocessing", "concurrent.futures")

POOL_PROBE_SCRIPT = """
import sys
import aeroalloc
import aeroalloc.cli
print(sorted(m for m in {modules} if m in sys.modules))
""".format(modules=POOL_MODULES)

ONE_CPU_SUITE_SCRIPT = """
import os
import sys
os.sched_setaffinity(0, {{min(os.sched_getaffinity(0))}})
from aeroalloc import harness
harness.run_ablation_suite(harness.ExperimentConfig(**{cfg}), sys.argv[1])
print(sorted(m for m in {modules} if m in sys.modules))
"""
TINY_SUITE = dict(epochs=2, hidden=(8, 8), duration_s=2.0, test_speeds=(10.0, 12.0))


def test_import_loads_no_process_pool_module():
    assert _run(POOL_PROBE_SCRIPT).split() == ["[]"]


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
def test_one_cpu_suite_runs_without_a_pool_and_writes_the_same_bytes(tmp_path, monkeypatch):
    script = ONE_CPU_SUITE_SCRIPT.format(cfg=TINY_SUITE, modules=POOL_MODULES)
    assert _run(script, str(tmp_path / "one")).split() == ["[]"]
    monkeypatch.setattr(harness, "usable_cpus", lambda: 2)
    harness.run_ablation_suite(harness.ExperimentConfig(**TINY_SUITE), tmp_path / "two")
    for name in ("suite_report.json", "suite_report.csv", "suite_report.txt"):
        one = (tmp_path / "one" / "reports" / name).read_bytes()
        assert one == (tmp_path / "two" / "reports" / name).read_bytes(), name


def _module_level(node):
    """Every node that runs when the module is imported: all but function bodies."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield child
            yield from _module_level(child)


def _imports_scipy(node):
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom):
        names = [node.module or ""]
    else:
        return False
    return any(name.split(".")[0] == "scipy" for name in names)


def _functions_importing_scipy(tree, outer=()):
    """The dotted name of the function around each SciPy import in `tree`, "" at module level."""
    for child in ast.iter_child_nodes(tree):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _functions_importing_scipy(child, (*outer, child.name))
        elif _imports_scipy(child):
            yield ".".join(outer)
        else:
            yield from _functions_importing_scipy(child, outer)


def test_no_module_imports_scipy_at_module_level():
    # one import site, the LAPACK fallback for a numpy without its own dposv;
    # a module-level import would show as (file, "")
    sites = [(path.name, site) for path in sorted(SRC.glob("*.py"))
             for site in _functions_importing_scipy(ast.parse(path.read_text()))]
    assert sites == [("allocator.py", "_posv")]


def _bound_names(node):
    """The names a module-level import statement binds."""
    if isinstance(node, ast.Import):
        return [alias.asname or alias.name.split(".")[0] for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.module != "__future__":
        return [alias.asname or alias.name for alias in node.names]
    return []


def test_no_module_keeps_an_unused_import():
    # __init__ imports to re-export; every other module must use what it imports
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in _module_level(tree):
            unused += [f"{path.name}: {name}" for name in _bound_names(node) if name not in used]
    assert unused == []


def _calls_in_functions(tree, outer=()):
    """(dotted name of the enclosing function, "" at module level, call node) of each call."""
    for child in ast.iter_child_nodes(tree):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _calls_in_functions(child, (*outer, child.name))
        else:
            if isinstance(child, ast.Call):
                yield ".".join(outer), child
            yield from _calls_in_functions(child, outer)


MODEL_FAMILIES = {"AffineModel", "UnstructuredModel"}


def test_only_track_sequence_asks_a_model_its_family():
    # a family owns its checks, its file format and its wrench; track_sequence
    # alone picks predict or affine_at, the two per-step passes it calls by name
    sites = set()
    for path in sorted(SRC.glob("*.py")):
        for where, call in _calls_in_functions(ast.parse(path.read_text())):
            if (isinstance(call.func, ast.Name) and call.func.id == "isinstance"
                    and {getattr(n, "id", getattr(n, "attr", None))
                         for n in ast.walk(call.args[1])} & MODEL_FAMILIES):
                sites.add((path.name, where))
    assert sites == {("allocator.py", "track_sequence")}


def test_no_variant_name_is_parsed():
    # a variant's family, mirror prior and wing-tap use come from its VARIANTS row
    fragments = {part for name in harness.VARIANTS for i in range(len(name) - 2)
                 for part in (name[:i + 3], name[i:])}
    parsed = []
    for name in ("harness.py", "cli.py"):
        for where, call in _calls_in_functions(ast.parse((SRC / name).read_text())):
            if not (isinstance(call.func, ast.Attribute)
                    and call.func.attr in ("startswith", "endswith")):
                continue
            tested = {n.value for arg in call.args for n in ast.walk(arg)
                      if isinstance(n, ast.Constant) and isinstance(n.value, str)}
            if "variant" in ast.unparse(call.func.value) or tested & fragments:
                parsed.append(f"{name} {where}: {ast.unparse(call)}")
    assert parsed == []


def _private_definitions(tree):
    """The `_name`s a module defines at its top level: functions, classes, constants."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name))


def test_no_module_keeps_an_unused_private_definition():
    # a leftover `_helper` after a fold is dead code no caller can reach
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unused = [f"{name}: {defined}" for name, tree in trees.items()
              for defined in _private_definitions(tree)
              if defined.startswith("_") and not defined.startswith("__") and defined not in read]
    assert unused == []
