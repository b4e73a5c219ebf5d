"""Import cost: SciPy is loaded by the first allocation solve, not by import."""
import ast
import os
import subprocess
import sys
from pathlib import Path

import aeroalloc

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


def test_scipy_linalg_loads_at_first_solve():
    done = subprocess.run(
        [sys.executable, "-c", PROBE_SCRIPT], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
    )
    assert done.returncode == 0, done.stderr
    # loaded after: import aeroalloc, import aeroalloc.cli, one solve
    assert done.stdout.split() == ["False", "False", "True"]


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
