"""Import cost: SciPy is loaded by the first allocation solve, and the
process-pool modules by a suite run on more than one CPU, not by import."""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import aeroalloc
from aeroalloc import harness

SRC = Path(aeroalloc.__file__).parent

PROBE_SCRIPT = """
import sys
import numpy as np
import aeroalloc
print("scipy.linalg" in sys.modules)
import aeroalloc.cli
print("scipy.linalg" in sys.modules)
aeroalloc.solve(aeroalloc.AllocationProblem(a=np.zeros(6), b=np.eye(6, 4), y_target=np.ones(6)))
print("scipy.linalg" in sys.modules)
"""


def _run(script, *args):
    done = subprocess.run(
        [sys.executable, "-c", script, *args], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_scipy_linalg_loads_at_first_solve():
    # loaded after: import aeroalloc, import aeroalloc.cli, one solve
    assert _run(PROBE_SCRIPT).split() == ["False", "False", "True"]


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


def test_no_module_imports_scipy_at_module_level():
    importers = []
    for path in sorted(SRC.glob("*.py")):
        for node in _module_level(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "scipy" for name in names):
                importers.append(path.name)
    assert importers == []
