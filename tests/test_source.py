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


def _os_sites(attr):
    """(file, innermost function) of each read of os.<attr> in the package
    source; any read counts, so an alias cannot hide a second site."""
    def is_read(node):
        return (isinstance(node, ast.Attribute) and node.attr == attr
                and getattr(node.value, "id", None) == "os")

    sites = {}  # (file, line) -> the innermost function holding it
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        sites.update({(path.name, node.lineno): "<module>" for node in ast.walk(tree)
                      if is_read(node)})
        for func in ast.walk(tree):  # breadth first: an inner function overwrites its outer one
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                sites.update({(path.name, node.lineno): func.name for node in ast.walk(func)
                              if is_read(node)})
    return [(name, func) for (name, _), func in sites.items()]


def test_one_fork_call_site():
    # every forked shard of an estimate goes through simulate._run_forked,
    # which reaps or kills each child it forks
    assert _os_sites("fork") == [("simulate.py", "_run_forked")]


def test_one_shard_count_rule():
    # the CPUs a run shards its paths over are counted in
    # simulate._cpu_count alone, so no second CPU rule can drift from it;
    # report forks nothing of its own
    assert _os_sites("sched_getaffinity") == [("simulate.py", "_cpu_count")]


def test_one_generator_positioning_site():
    # the Monte Carlo noise is addressed by Philox key and counter: only
    # simulate._seek sets the generator's state, and nothing reads it back,
    # so neither a redraw of earlier blocks nor a saved state (the getter
    # costs about 3 µs a call) can come back unnoticed
    path = SRC / "simulate.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))

    def is_state(node):
        return (isinstance(node, ast.Attribute) and node.attr == "state"
                and getattr(node.value, "attr", None) == "bit_generator")

    sites = {node: "<module>" for node in ast.walk(tree) if is_state(node)}
    for func in ast.walk(tree):  # breadth first: an inner function overwrites its outer one
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            sites.update({node: func.name for node in ast.walk(func) if is_state(node)})
    sets = [func for node, func in sites.items() if isinstance(node.ctx, ast.Store)]
    reads = [node.lineno for node in sites if not isinstance(node.ctx, ast.Store)]
    assert sets == ["_seek"], sets
    assert not reads, f"simulate.py reads bit_generator.state at lines {reads}"


def test_one_stencil_route():
    # every cascade level assembles the one monotone stencil: no function
    # takes a coarse flag that would choose another, and a scheme fails only
    # by its diagonal, named at one site
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"), str(path))
             for path in (SRC / "hjbvi.py", ROOT / "tests" / "helpers.py")}
    flags = [f"{name}:{func.name}" for name, tree in trees.items() for func in ast.walk(tree)
             if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
             and any(arg.arg == "coarse" for arg in ast.walk(func.args)
                     if isinstance(arg, ast.arg))]
    assert not flags, f"functions with a coarse parameter: {flags}"
    tree = trees["hjbvi.py"]
    sites = {node: "<module>" for node in ast.walk(tree) if isinstance(node, ast.Call)
             and getattr(node.func, "id", None) == "NonMonotoneScheme"}
    for func in ast.walk(tree):  # breadth first: an inner function overwrites its outer one
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            sites.update({node: func.name for node in ast.walk(func) if node in sites})
    assert list(sites.values()) == ["_evaluate"], sorted(sites.values())


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


def test_benchmark_child_names_exist():
    # bench/child.py reads contract_solve as cs and a RunConfig as cfg: every
    # cs.<name> must exist in the package and every cfg.<field> must be a
    # RunConfig field; the file is parsed, not imported
    import dataclasses

    import contract_solve as cs

    tree = ast.parse((ROOT / "bench" / "child.py").read_text(encoding="utf-8"))
    read = {"cs": set(), "cfg": set()}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in read:
            read[node.value.id].add(node.attr)
    assert read["cs"] and read["cfg"]
    fields = {f.name for f in dataclasses.fields(cs.RunConfig)}
    missing = sorted(f"cs.{name}" for name in read["cs"] if not hasattr(cs, name))
    missing += sorted(f"cfg.{name}" for name in read["cfg"] - fields)
    assert not missing, f"names bench/child.py reads are missing: {missing}"


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


def test_benchmark_counters_read_real_results(tmp_path):
    # the traced benchmark reads its counters off the results of the wrapped
    # calls (bench/spans.py's _COUNTERS), so a change to the data model can
    # break it while every other test passes; the file is run from its
    # source, not imported, so the test leaves bench/ untouched
    import contract_solve as cs

    path = ROOT / "bench" / "spans.py"
    spans = {"__name__": "spans"}
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), spans)
    params, grid = cs.default_params(), cs.Grid.make(n=201)
    cfg = cs.SimConfig(n_paths=50, seed=3)
    sol = cs.howard_solve(params, grid)
    table = cs.simulate_paths(params, sol, 0.1, cfg)
    csv_args = (str(tmp_path / "x.csv"), ("x",), (grid.x,))
    cs.write_csv(*csv_args)
    # span name -> (positional arguments, result, the counter's value)
    calls = {
        "hjbvi.howard_solve": ((params, grid), sol, sol.iterations),
        "simulate.mc_principal_value": ((params, sol, 0.1, cfg),
                                        cs.mc_principal_value(params, sol, 0.1, cfg),
                                        cfg.n_paths),
        "simulate.simulate_paths": ((params, sol, 0.1, cfg), table, table.steps.sum()),
        "report_cli.write_csv": (csv_args, None, (tmp_path / "x.csv").stat().st_size),
    }
    counters = spans["_COUNTERS"]
    assert set(counters) == set(calls)
    for name, (args, out, want) in calls.items():
        assert counters[name][1](args, out) == want, name
    assert table.steps.sum() > len(table) > 1
    # a partly recorded table, report's shape: the counter sees the recorded paths only
    partial = cs.simulate_paths(params, sol, 0.1, cfg, n_recorded=20)
    want = partial.steps[:len(partial)].sum()
    assert counters["simulate.simulate_paths"][1]((params, sol, 0.1, cfg), partial) == want
    assert 0 < want < partial.steps.sum()
