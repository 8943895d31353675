"""The demo scripts run against the current package.

The quick demos run to completion as subprocesses; the slow comparison demo
only has its imports from optiprecond checked, so a removed public name
cannot break it unnoticed.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import optiprecond

DEMOS = Path(__file__).resolve().parents[1] / "demos"
SRC = Path(optiprecond.__file__).resolve().parents[1]


@pytest.mark.parametrize("name", ["concentration", "interior_point_trace",
                                  "pcg_speedup", "row_sampling"])
def test_demo_runs(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(DEMOS / f"{name}.py")],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_slow_demo_imports_exist():
    tree = ast.parse((DEMOS / "optimal_vs_heuristics.py").read_text())
    imports = [(node.module, alias.name) for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and node.module.split(".")[0] == "optiprecond"
               for alias in node.names]
    assert imports
    for module, name in imports:
        assert hasattr(importlib.import_module(module), name), \
            f"{module}.{name}"
