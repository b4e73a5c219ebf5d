"""Import cost: no pipeline step loads SciPy, and the process-pool modules are
loaded by a suite run on more than one CPU, not by import. The package
re-exports no names, and `import aeroalloc` loads its modules. Every module-level
import and private definition in the package is used, every public function and
class is reached by the package, the benchmark or an acceptance gate, no code
branches on a model's family or a variant's name, only the model families read
their input scaling, and seed streams, row blocks and shared run defaults each
have one owner, as do the allocation's penalties, trim and their terms (each
problem holds one checked TrackingConfig) and the airframe's layout
facts: the mirror pattern, the probe's tap count and the probe, surface and
wrench-channel names. The closed-loop step calls neither `all` nor `clip`; one
check rejects a config that is not a TrackingConfig, and one shim names numpy's core."""
import ast
import contextlib
import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import aeroalloc
from aeroalloc import dynamics, harness
from aeroalloc.allocator import AllocationProblem, TrackingConfig

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
from aeroalloc.allocator import AllocationProblem
aeroalloc.allocator.solve(AllocationProblem(a=np.zeros(6), b=np.eye(6, 4), y_target=np.ones(6)))
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


NON_PACKAGE_MODULES_SCRIPT = """
import sys
import {modules}
print(sorted(m for m in sys.modules if m.split(".")[0] != "aeroalloc"))
"""
# numpy and the standard modules the package imports at module level, cli aside
IMPORTED_AT_MODULE_LEVEL = ("numpy, __future__, collections, contextlib, csv, ctypes, dataclasses, "
                            "functools, hashlib, json, logging, math, numbers, os, pathlib, sys, "
                            "threading, typing, warnings")


def test_import_loads_no_module_the_package_does_not_name():
    # a module-level import of anything else shows here, before it costs
    # `import aeroalloc` (the benchmark's `setup_s`) time
    loaded = _run(NON_PACKAGE_MODULES_SCRIPT.format(modules="aeroalloc"))
    assert loaded == _run(NON_PACKAGE_MODULES_SCRIPT.format(modules=IMPORTED_AT_MODULE_LEVEL))


PACKAGE_MODULES_SCRIPT = """
import sys
import {module}
print(sorted(m for m in sys.modules if m.split(".")[0] == "aeroalloc"))
"""


def test_each_name_has_one_way_in():
    # the package re-exports no function or class; each is imported from its module
    flat = sorted(name for name, value in vars(aeroalloc).items()
                  if callable(value) and not name.startswith("__"))
    assert flat == []
    # and `import aeroalloc` loads the modules that any one of them needs
    loaded = _run(PACKAGE_MODULES_SCRIPT.format(module="aeroalloc"))
    assert loaded == _run(PACKAGE_MODULES_SCRIPT.format(module="aeroalloc.harness"))
    assert "'aeroalloc.harness'" in loaded


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
    # __init__ imports its modules to load them; every other module must use what it imports
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in _module_level(tree):
            unused += [f"{path.name}: {name}" for name in _bound_names(node) if name not in used]
    assert unused == []


def _in_functions(tree, node_type=ast.Call, outer=()):
    """(dotted name of the enclosing function or class, "" at module level, node) of
    each `node_type` node."""
    for child in ast.iter_child_nodes(tree):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _in_functions(child, node_type, (*outer, child.name))
        else:
            if isinstance(child, node_type):
                yield ".".join(outer), child
            yield from _in_functions(child, node_type, outer)


MODEL_FAMILIES = {cls.__name__ for cls in dynamics.MODEL_KINDS.values()}


def test_no_code_asks_a_model_its_family():
    # a family owns its checks, its file format, its wrench and whether that wrench
    # is affine in the command (`affine_in_u`), which track_sequence reads to pick
    # predict or affine_at; `dynamics._model_class` checks a model against MODEL_KINDS
    sites = set()
    for path in sorted(SRC.glob("*.py")):
        for where, call in _in_functions(ast.parse(path.read_text())):
            if (isinstance(call.func, ast.Name) and call.func.id == "isinstance"
                    and {getattr(n, "id", getattr(n, "attr", None))
                         for n in ast.walk(call.args[1])} & MODEL_FAMILIES):
                sites.add((path.name, where))
    assert sites == set()
    imported = {alias.name for node in ast.walk(ast.parse((SRC / "allocator.py").read_text()))
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert not imported & MODEL_FAMILIES


def _calls(attr):
    """(file, dotted name of the enclosing function) of each call of a function named `attr`."""
    return {(path.name, where) for path in sorted(SRC.glob("*.py"))
            for where, call in _in_functions(ast.parse(path.read_text()))
            if getattr(call.func, "attr", getattr(call.func, "id", None)) == attr}


def test_one_owner_derives_seed_streams():
    # every child seed comes from dynamics._child_seeds: the trainers' weights and
    # batch orders, and closed_loop_run's schedule, target and noise streams
    assert _calls("SeedSequence") == {("dynamics.py", "_child_seeds")}


def test_one_walker_splits_rows_into_blocks():
    # the wrench models' scoring and the probe's estimator walk their rows in
    # near-equal blocks through nncore.by_row_blocks
    assert _calls("array_split") == {("nncore.py", "by_row_blocks")}
    assert _calls("by_row_blocks") == {("dynamics.py", "predict_batch"),
                                       ("dynamics.py", "predict_wrench_batch"),
                                       ("probe.py", "_calibrate_rows")}


def test_the_closed_loop_step_makes_no_reduction_wrapper_call():
    # ndarray.all and ndarray.clip run numpy's Python-level wrappers; each step checks
    # finiteness with allocator._all_finite and clamps with np.minimum/np.maximum
    step = {("allocator.py", "track_sequence"), ("allocator.py", "solve")}
    assert not (_calls("all") | _calls("clip")) & step


def _names_numpy_core(node) -> bool:
    """Whether `node` names numpy's core package, `numpy._core` or `numpy.core`."""
    if isinstance(node, ast.ImportFrom):
        return re.fullmatch(r"numpy\._?core(\..*)?", node.module or "") is not None
    if isinstance(node, ast.Import):
        return any(re.fullmatch(r"numpy\._?core(\..*)?", a.name) for a in node.names)
    if isinstance(node, ast.Attribute):
        return node.attr in ("_core", "core") and getattr(node.value, "id", None) in ("np", "numpy")
    return isinstance(node, ast.Constant) and re.search(r"numpy\._?core", str(node.value))


def test_numpy_core_is_named_only_in_the_version_shim():
    # numpy 2 names its C core `numpy._core`, numpy 1 `numpy.core`; one shim knows both
    sites = {(path.name, where) for path in sorted(SRC.glob("*.py"))
             for where, node in _in_functions(ast.parse(path.read_text()), ast.AST)
             if _names_numpy_core(node)}
    assert sites == {("blas.py", "_multiarray_umath")}


# the run defaults each config shares, with the value their one owner writes
SHARED_DEFAULTS = {"lambda0": 0.01, "lambda1": 0.1, "lambda_sym": 0.1, "hidden": (64, 64)}


def test_each_shared_default_is_written_once():
    # TrackingConfig owns the penalties, SymmetryConfig the mirror weight and
    # DynamicsTrainConfig the hidden widths; the other configs read theirs
    written = []
    for path in sorted(SRC.glob("*.py")):
        for where, node in _in_functions(ast.parse(path.read_text()), ast.AnnAssign):
            name = getattr(node.target, "id", None)
            if name in SHARED_DEFAULTS and node.value is not None:
                with contextlib.suppress(ValueError):
                    if ast.literal_eval(node.value) == SHARED_DEFAULTS[name]:
                        written.append((name, where))
    assert sorted(written) == [("hidden", "DynamicsTrainConfig"),
                               ("lambda0", "TrackingConfig"),
                               ("lambda1", "TrackingConfig"),
                               ("lambda_sym", "SymmetryConfig")]


def _operands(node) -> list:
    """The names or attribute names of a binary operation's two operands."""
    return [getattr(n, "id", getattr(n, "attr", None)) for n in (node.left, node.right)]


def test_the_penalty_terms_are_written_once():
    # (lambda0 + lambda1) I and lambda0 u_trim are formed where a TrackingConfig is
    # checked, once per config; no problem and no tracking run forms them again
    def penalty_sum(node):
        return isinstance(node, ast.BinOp) and _operands(node) == ["lambda0", "lambda1"]

    products = [(path.name, where) for path in sorted(SRC.glob("*.py"))
                for where, node in _in_functions(ast.parse(path.read_text()), ast.BinOp)
                if isinstance(node.op, ast.Mult)
                and (penalty_sum(node.left) or penalty_sum(node.right)
                     or sorted(_operands(node), key=str) == ["lambda0", "u_trim"])]
    assert products == [("allocator.py", "TrackingConfig.__post_init__")] * 2


def test_one_check_names_a_config_that_is_not_a_tracking_config():
    # a problem and a tracking run share one check, so each rejects such a config alike
    sites = {(path.name, where) for path in sorted(SRC.glob("*.py"))
             for where, call in _in_functions(ast.parse(path.read_text()))
             if getattr(call.func, "id", None) == "isinstance"
             and "TrackingConfig" in ast.unparse(call.args[1])}
    assert sites == {("allocator.py", "_check_config")}
    assert _calls("_check_config") == {("allocator.py", "AllocationProblem.__post_init__"),
                                       ("allocator.py", "track_sequence")}


def test_a_problem_holds_its_penalties_and_trim_in_one_config():
    # the penalties and trim are TrackingConfig's fields, which a problem holds as `cfg`
    assert [f.name for f in dataclasses.fields(AllocationProblem)] == [
        "a", "b", "y_target", "u_prev", "cfg"]
    assert [f.name for f in dataclasses.fields(TrackingConfig)] == [
        "lambda0", "lambda1", "u_trim"]


def test_the_penalty_and_trim_rules_run_in_tracking_config_alone():
    # the penalty rule (finite, >= 0, a positive sum) and the trim rule (4 finite
    # entries within the actuator limits, copied read-only) are each written once
    def rule(node):
        names = {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(node)}
        if isinstance(node, ast.Raise) and "NotStrictlyConvexError" in names:
            return "penalty"
        if isinstance(node, ast.Compare) and names & {"lambda0", "lambda1"}:
            return "penalty"
        if isinstance(node, ast.Compare) and any("trim" in str(name) for name in names):
            return "trim"
        if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_vec"
                and "trim" in ast.unparse(node)):
            return "trim"
        return None

    sites = sorted({(rule(node), path.name, where) for path in sorted(SRC.glob("*.py"))
                    for where, node in _in_functions(ast.parse(path.read_text()), ast.AST)
                    if rule(node)})
    assert sites == [("penalty", "allocator.py", "TrackingConfig.__post_init__"),
                     ("trim", "allocator.py", "TrackingConfig.__post_init__")]


def _top_level_name(stmt) -> str:
    """What a module-level statement defines: a function, class or assigned name."""
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        target = stmt.targets[0] if isinstance(stmt, ast.Assign) else stmt.target
        return getattr(target, "id", ast.unparse(target))
    return getattr(stmt, "name", f"line {stmt.lineno}")


def _docstrings(tree) -> set:
    return {id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and node.body and isinstance(node.body[0], ast.Expr)
            and isinstance(node.body[0].value, ast.Constant)}


def _constants(path):
    """(top-level name, value) of each constant in a module's code, docstrings aside."""
    tree = ast.parse(path.read_text())
    docs = _docstrings(tree)
    for stmt in tree.body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Constant) and id(node) not in docs:
                yield _top_level_name(stmt), node.value


# each owner tuple in dynamics, with the names it holds
LAYOUT_NAMES = {"PROBES": ("probe0", "probe1"), "SURFACES": ("la", "ra", "el", "ru"),
                "WRENCH_CHANNELS": ("fx", "fy", "fz", "tx", "ty", "tz")}


def test_each_layout_name_is_written_once():
    # probe, surface and wrench-channel names are string literals (any case, or a
    # token of one such as "d_la") only in their owner tuples; headers, file names
    # and the CLI's metavars read them
    names = {name for owned in LAYOUT_NAMES.values() for name in owned}
    written = sorted((path.name, where, name) for path in sorted(SRC.glob("*.py"))
                     for where, value in _constants(path) if isinstance(value, str)
                     for name in set(re.split(r"[^a-z0-9]+", value.lower())) & names)
    assert written == sorted(("dynamics.py", owner, name)
                             for owner, owned in LAYOUT_NAMES.items() for name in owned)
    assert {owner: getattr(dynamics, owner) for owner in LAYOUT_NAMES} == LAYOUT_NAMES


def test_the_tap_count_is_written_once():
    # probe.TAPS owns a probe's five taps; the probe and the plant read it
    sites = [(name, where) for name in ("probe.py", "plant.py")
             for where, value in _constants(SRC / name) if type(value) is int and value == 5]
    assert sites == [("probe.py", "TAPS")]


def test_plant_builds_its_mirror_column_from_mirror_signs():
    # the right flaperon column is -MIRROR_SIGNS times the left, not hand-placed signs
    tree = ast.parse((SRC / "plant.py").read_text())
    (params,) = [node for node in tree.body
                 if isinstance(node, ast.ClassDef) and node.name == "PlantParams"]
    assert "MIRROR_SIGNS" in {node.id for node in ast.walk(params) if isinstance(node, ast.Name)}


SCALING_FIELDS = {"obs_mean", "obs_std", "in_mean", "in_std"}


def test_only_the_model_families_read_their_input_scaling():
    # a family's `inputs` selects, joins and standardizes what its first network
    # reads; affine_at reads the command scales only to turn its Jacobian in
    # standardized inputs into one per degree (`in_std[-CONTROL_DIM:]`)
    reads = [(path.name, where, ast.unparse(node)) for path in sorted(SRC.glob("*.py"))
             for where, node in _in_functions(ast.parse(path.read_text()), ast.Attribute)
             if node.attr in SCALING_FIELDS and where.split(".")[0] not in MODEL_FAMILIES]
    assert reads == [("dynamics.py", "affine_at", "model.in_std")]


def test_no_variant_name_is_parsed():
    # a variant's family, mirror prior and wing-tap use come from its VARIANTS row
    fragments = {part for name in harness.VARIANTS for i in range(len(name) - 2)
                 for part in (name[:i + 3], name[i:])}
    parsed = []
    for name in ("harness.py", "cli.py"):
        for where, call in _in_functions(ast.parse((SRC / name).read_text())):
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



def _reached_names(tree, bare=True):
    """The names a file reaches: attribute names, the names it imports and, with
    `bare`, the bare names it reads (outside the package a bare name is the file's own)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and bare and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def _instrumented_names(tree):
    """The strings of the benchmark's `INSTRUMENTED` table: the functions its tracer wraps."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "INSTRUMENTED"
                                                for t in node.targets):
            return {n.value for n in ast.walk(node.value)
                    if isinstance(n, ast.Constant) and isinstance(n.value, str)}
    raise AssertionError("perfbench/spans.py has no INSTRUMENTED table")


# the documented objective that the allocator tests check `solve` against
REACHED_ONLY_BY_UNIT_TESTS = {"allocator.objective"}


def test_no_public_name_is_reached_only_by_unit_tests():
    # a public function or class that no pipeline code, benchmark or acceptance gate
    # reaches is a second way in that only the unit tests keep alive
    root = SRC.parents[1]
    trees = {path: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    reached = set().union(*map(_reached_names, trees.values()))
    for path in [*sorted((root / "perfbench").glob("*.py")), root / "tests" / "test_acceptance.py"]:
        reached |= _reached_names(ast.parse(path.read_text()), bare=False)
    reached |= _instrumented_names(ast.parse((root / "perfbench" / "spans.py").read_text()))
    unreached = {f"{path.stem}.{node.name}" for path, tree in trees.items() for node in tree.body
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                 and not node.name.startswith("_") and node.name not in reached}
    assert unreached == REACHED_ONLY_BY_UNIT_TESTS
