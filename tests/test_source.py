"""Guards on the package source itself."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "contract_solve"


def test_no_assert_statements():
    # python -O strips assert: invariants must raise exceptions that map to
    # the documented exit codes instead
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [f"{path.name}:{node.lineno}" for path in files
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in src: {found}"


def test_benchmark_trace_targets_exist():
    # the traced benchmark wraps contract_solve.<layer>.<name> for every
    # entry of TARGETS in bench/spans.py and fails if one is missing; the
    # file is parsed, not imported, so the test leaves bench/ untouched
    tree = ast.parse((ROOT / "bench" / "spans.py").read_text(encoding="utf-8"))
    [targets] = [ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "TARGETS" for t in node.targets)]
    assert targets
    missing = [f"{layer}.{name}" for layer, names in targets.items() for name in names
               if not callable(getattr(importlib.import_module(f"contract_solve.{layer}"),
                                       name, None))]
    assert not missing, f"benchmark trace targets missing from the package: {missing}"


def test_no_numpy_strings():
    # np.strings needs numpy 2; the package declares numpy>=1.24
    pattern = re.compile(r"\b(?:np|numpy)\.strings\b")
    found = [f"{path.name}:{lineno}" for path in sorted(SRC.glob("*.py"))
             for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
             if pattern.search(line)]
    assert not found, f"numpy.strings used in src: {found}"


def test_solve_and_estimate_leave_numpy_polynomial_unloaded():
    # the quadrature oracle builds its Gauss-Legendre rule on first use:
    # numpy.polynomial and the eigensolver it calls add about 1.4 MiB of
    # peak memory to every process that loads them
    code = ("import sys\n"
            "import contract_solve as cs\n"
            "params = cs.default_params()\n"
            "sb = cs.howard_solve(params, cs.Grid.make())\n"
            "cs.mc_principal_value(params, sb, 0.1, cs.SimConfig(n_paths=20))\n"
            "print('numpy.polynomial' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.strip() == "False", out.stderr
