import gc
import inspect
import json
import os
import re
import subprocess
import sys
import time
import weakref
from pathlib import Path

import numpy as np
import pytest

import contract_solve
from contract_solve import (
    ConfigError,
    Grid,
    NonMonotoneScheme,
    cli_dispatch,
    howard_solve,
    load,
    sigma_sweep,
    simulate_paths,
    summarize_paths,
    value_of_information,
    write_csv,
)
from contract_solve import PolicyOutOfRange, SimConfig, first_best, hjbvi, report_cli
from contract_solve.config import parse_lines, parse_overrides
from contract_solve.first_best import BracketFailure

from .helpers import assert_no_child_left, count_forks, percent_write_csv, set_cpus, split_bundles

# keep every dispatch cheap: coarse grid, few paths, short profiles
FAST = ["--set", "grid.n=201", "--set", "fb.x_n=8", "--set", "fb.t_n=9",
        "--set", "voi.x_n=9", "--set", "sim.n_paths=30",
        "--set", "sweep.sigmas=1.7,1.85"]
README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.fixture(autouse=True)
def isolated_out_env(monkeypatch):
    monkeypatch.delenv("CONTRACT_SOLVE_OUT", raising=False)


class TestConfigParsing:
    def test_comments_and_spacing(self):
        raw = parse_lines(["# full line", "grid.n = 401  # trailing", "",
                           "sigma=2.0"])
        assert raw == {"grid.n": "401", "sigma": "2.0"}

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_lines(["sigma=1.0", "sigma=2.0"], source="conf")

    def test_non_assignment_rejected(self):
        with pytest.raises(ConfigError, match="conf:2"):
            parse_lines(["sigma=1.0", "what is this"], source="conf")

    def test_overrides_later_wins(self):
        assert parse_overrides(["sim.seed=1", "sim.seed=2"])["sim.seed"] == "2"

    def test_defaults(self):
        cfg = load()
        assert cfg.grid_n == 2001 and cfg.grid_x_max == 1.0
        assert cfg.sim == SimConfig()  # the sim.* keys take SimConfig's defaults
        assert cfg.sim.n_paths == 10_000 and cfg.sim.seed == 42
        assert cfg.sweep_sigmas == (1.5, 1.85, 2.2)
        assert cfg.params.sigma == 1.85

    def test_solver_defaults_are_the_configs(self):
        # hjbvi declares the howard.* and grid.* defaults once: every
        # signature that takes one has the config's value, of its type
        cfg = load()
        want = {"tol": cfg.howard_tol, "max_iter": cfg.howard_max_iter,
                "x_max": cfg.grid_x_max, "n": cfg.grid_n}
        assert want == {"tol": 1e-9, "max_iter": 200, "x_max": 1.0, "n": 2001}
        for fn in (hjbvi.howard_solve, hjbvi.howard_solve_many, sigma_sweep, Grid.make):
            sig = inspect.signature(fn).parameters
            got = {k: sig[k].default for k in want if k in sig}
            assert got and got == {k: want[k] for k in got}, fn.__name__
            assert all(type(v) is type(want[k]) for k, v in got.items()), fn.__name__

    def test_model_keys_merge_over_defaults(self):
        cfg = load(None, ["sigma=2.0", "grid.n=401"])
        assert cfg.params.sigma == 2.0
        assert cfg.params.lam == 0.2  # untouched default
        assert cfg.grid_n == 401
        assert cfg.snapshot["sigma"] == "2"
        assert cfg.snapshot["grid.n"] == "401"

    def test_bad_values_rejected(self):
        for pair, frag in (("grid.n=1", "grid.n"), ("howard.tol=0", "howard.tol"),
                           ("sim.dt=-1e-3", "sim.dt"), ("fb.x_n=1", "fb.x_n"),
                           ("sweep.sigmas=1.5,-2", "sweep.sigmas"),
                           ("sweep.sigmas=", "sweep.sigmas"),
                           ("grid.n=abc", "grid.n"), ("bogus=1", "bogus"),
                           ("lambda=0.05", "lambda"), ("sim.seed=-3", "sim.seed"),
                           ("fb.x_min=-1", "fb.x_min"), ("fb.t_max=-1", "fb.t_max"),
                           ("sim.n_paths=0", "sim.n_paths"), ("sim.horizon=-1", "sim.horizon"),
                           # the step rule names both keys, whichever one was set
                           ("sim.horizon=1e-4", "sim.horizon / sim.dt"),
                           ("sim.dt=1e9", "sim.horizon / sim.dt"),
                           ("sim.horizon=inf", "sim.horizon"),
                           ("fb.x_max=inf", "fb.x_max"), ("fb.t_max=inf", "fb.t_max"),
                           ("grid.x_max=inf", "grid.x_max"), ("grid.x_max=0", "grid.x_max"),
                           ("grid.x_max=-1", "grid.x_max"),
                           ("sweep.sigmas=inf", "sweep.sigmas"), ("sim.x0=nan", "sim.x0"),
                           ("sweep.sigmas=1.5,1.5", "sweep.sigmas"), ("voi.x_max=0", "voi.x_max")):
            with pytest.raises(ConfigError, match=frag.replace(".", r"\.")):
                load(None, [pair])

    def test_config_file(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("sigma = 2.2\nsim.seed = 7\n")
        cfg = load(str(path))
        assert cfg.params.sigma == 2.2 and cfg.sim.seed == 7
        with pytest.raises(ConfigError, match="cannot read"):
            load(str(tmp_path / "missing.conf"))


class TestValueOfInformation:
    def test_nonnegative_and_convex(self, params, sb):
        xs = np.linspace(0.0, 0.32, 17)
        table = value_of_information(params, xs, solution=sb)
        assert np.all(table.voi >= -1e-6)
        assert np.all(np.diff(table.voi, 2) >= -1e-6)
        assert np.all(table.v_fb >= table.v_sb - 1e-6)

    def test_zero_state_gives_full_information_value(self, params, sb):
        table = value_of_information(params, [0.0], solution=sb)
        assert table.v_sb[0] == 0.0
        assert table.voi[0] == table.v_fb[0]
        assert table.v_fb[0] > 1.0

    def test_domain_checked(self, params, sb):
        for xs in ([1.2], [-0.1], []):
            with pytest.raises(ValueError):
                value_of_information(params, xs, solution=sb)

    def test_reads_the_solution_on_its_own_grid(self, params):
        sol = howard_solve(params, Grid.make(0.8, 2001))
        table = value_of_information(params, [0.0, 0.3, 0.8], sol)
        assert np.array_equal(table.v_sb, np.interp([0.0, 0.3, 0.8], sol.grid.x, sol.w))
        assert table.v_sb[1] == pytest.approx(0.00181, abs=5e-6)
        with pytest.raises(ValueError, match="0.8"):
            value_of_information(params, [0.85], sol)


class TestSigmaSweep:
    def test_single_sigma_matches_direct_solve(self, params, grid, sb):
        [(sg, sol)] = sigma_sweep(params, [1.85], grid=grid).items()
        assert sg == 1.85
        assert np.array_equal(sol.w, sb.w)
        assert np.array_equal(sol.stop, sb.stop)

    def test_failures_reported_and_sweep_continues(self, params):
        g = Grid.make(x_max=1.0, n=201)
        solved = sigma_sweep(params, [-2.0, 1.85], grid=g)
        assert list(solved) == [-2.0, 1.85]
        assert isinstance(solved[-2.0], ValueError) and str(solved[-2.0]) == "sigma must be > 0"
        assert isinstance(solved[1.85], hjbvi.SecondBestSolution)
        [failed] = sigma_sweep(params, [1.85], grid=g, max_iter=3).values()
        assert isinstance(failed, hjbvi.NoConvergence)

    @pytest.mark.parametrize("bad", [1e300, np.inf])
    def test_a_non_monotone_sigma_fails_alone(self, params, bad):
        # howard_solve_many returns the NonMonotoneScheme in its sigma's place
        g = Grid.make(x_max=1.0, n=201)
        good, failed = hjbvi.howard_solve_many(params, [1.85, bad], g)
        assert isinstance(failed, NonMonotoneScheme)
        assert good.level_sweeps == hjbvi.howard_solve(params, g).level_sweeps
        solved = sigma_sweep(params, [1.85, bad, 1.7], grid=g)
        assert list(solved) == [1.85, bad, 1.7]
        failed = solved.pop(bad)
        assert isinstance(failed, NonMonotoneScheme)
        # named on the 51-node level, where the cascade of 201 nodes starts
        assert str(failed) == "non-finite or non-positive diagonal at node 1 (x = 0.02)"
        alone = sigma_sweep(params, [1.85, 1.7], grid=g)
        for sg, sol in solved.items():
            for name in ("w", "r_star", "a_star", "stop"):
                assert np.array_equal(getattr(sol, name), getattr(alone[sg], name)), name
            assert (sol.b_hat, sol.iterations, sol.level_sweeps) == (
                alone[sg].b_hat, alone[sg].iterations, alone[sg].level_sweeps)

    def test_empty_list_rejected(self, params, grid):
        with pytest.raises(ValueError):
            sigma_sweep(params, [], grid=grid)

    def test_a_budget_below_one_raises(self, params, grid):
        # the config rejects howard.max_iter < 1, so only library callers get here
        with pytest.raises(ValueError, match="max_iter must be >= 1"):
            sigma_sweep(params, [1.85, 2.2], grid=grid, max_iter=0)


class TestDispatch:
    def test_help(self, capsys):
        assert cli_dispatch(["--help"]) == 0
        assert "usage" in capsys.readouterr().out

    @pytest.mark.parametrize("unbuffered", ["", "1"])
    def test_closed_stdout_changes_nothing(self, tmp_path, unbuffered):
        # a pipe whose reader has gone; buffered, the list fails only at exit's flush
        src = str(Path(contract_solve.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src, "PYTHONUNBUFFERED": unbuffered}
        code = "from contract_solve.report_cli import main; main()"
        read, write = os.pipe()
        os.close(read)
        try:
            runs = [subprocess.run([sys.executable, "-c", code, *argv], stdout=write,
                                   stderr=subprocess.PIPE, env=env, timeout=120)
                    for argv in (["--help"], ["first-best", "--out", str(tmp_path / "closed"),
                                              *FAST])]
        finally:
            os.close(write)
        assert [(run.returncode, run.stderr) for run in runs] == [(0, b"")] * 2
        assert cli_dispatch(["first-best", "--out", str(tmp_path / "open"), *FAST]) == 0
        for name in ("fb_value.csv", "fb_schedule.csv"):
            assert ((tmp_path / "closed" / name).read_bytes()
                    == (tmp_path / "open" / name).read_bytes())
        assert sorted(os.listdir(tmp_path / "closed")) == sorted(os.listdir(tmp_path / "open"))

    def test_unknown_subcommand(self, capsys):
        assert cli_dispatch(["frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_flag(self, capsys):
        assert cli_dispatch(["first-best", "--wat"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_config_key(self, tmp_path, capsys):
        code = cli_dispatch(["first-best", "--out", str(tmp_path),
                             "--set", "bogus=1"])
        assert code == 1
        assert "bogus" in capsys.readouterr().err

    def test_invalid_model_value(self, tmp_path, capsys):
        code = cli_dispatch(["first-best", "--out", str(tmp_path),
                             "--set", "sigma=0"])
        assert code == 1
        assert "sigma" in capsys.readouterr().err

    def test_solver_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        code = cli_dispatch(["second-best", "--out", str(tmp_path),
                             "--set", "grid.n=201", "--set", "howard.max_iter=5"])
        assert code == 2
        assert "NoConvergence" in capsys.readouterr().err

        def broken(params, grid, r, a, stop, psi):
            # every problem's scheme fails, on every level
            return np.zeros(stop.shape), [NonMonotoneScheme("non-finite or non-positive "
                                                            "diagonal")] * len(stop)

        monkeypatch.setattr(hjbvi, "_evaluate", broken)
        code = cli_dispatch(["second-best", "--out", str(tmp_path), "--set", "grid.n=201"])
        assert code == 2
        assert capsys.readouterr().err == (
            "solver failure: NonMonotoneScheme: non-finite or non-positive diagonal\n")

    def test_a_residual_above_criterion_05_is_flagged_and_warned(self, tmp_path, capsys):
        # a loose tol certifies a loose solve: the run succeeds, says so on
        # stderr, and the manifest carries the flag
        for tol, within in ((None, True), ("1", False)):
            out = tmp_path / str(tol)
            extra = [] if tol is None else ["--set", f"howard.tol={tol}"]
            assert cli_dispatch(["second-best", "--out", str(out), *extra]) == 0
            diag = json.loads((out / "manifest.json").read_text())["diagnostics"]
            assert diag["residual_within_bound"] is within
            assert (diag["residual"] <= 1e-8) is within
            err = capsys.readouterr().err
            if within:
                assert err == ""
            else:
                assert err == (f"warning: residual {diag['residual']:.3e} is above criterion "
                               f"05's bound of 1e-08 (howard.tol = 1)\n")

    def test_a_changed_tol_shows_in_a_manifest_diff(self, tmp_path):
        # a tighter tol costs sweeps and buys residual; both read from the
        # deterministic diagnostics of two manifests, without a debugger
        diag = {}
        for tol in ("1e-9", "1e-7"):
            out = tmp_path / tol
            assert cli_dispatch(["second-best", "--out", str(out),
                                 "--set", f"howard.tol={tol}"]) == 0
            diag[tol] = json.loads((out / "manifest.json").read_text())["diagnostics"]
        tight, loose = diag["1e-9"], diag["1e-7"]
        assert (tight["iterations"], loose["iterations"]) == (36, 33)
        assert tight["level_sweeps"] != loose["level_sweeps"]
        assert [sum(n for _, n in d["level_sweeps"]) for d in (tight, loose)] == [36, 33]
        assert (f"{tight['residual']:.1e}", f"{loose['residual']:.1e}") == ("2.2e-11", "4.8e-08")
        assert tight["residual_within_bound"] and not loose["residual_within_bound"]

    @pytest.mark.parametrize("budget", [15, 24, 32])
    def test_budget_spent_at_a_level_boundary_is_a_solver_failure(self, tmp_path, capsys,
                                                                  budget):
        # the default cascade levels take 15/9/8/4 sweeps; the configured
        # sigma's failure is known after the batch, so report writes nothing
        # and the defect is that of the next level's starting policy (on 2001
        # nodes 1998 and 1999 start continuing: they round to the 501-node
        # level's end, whose forced stop the warm start does not copy)
        nodes, residual = {15: (126, "1.192e+00"), 24: (501, "9.370e-01"),
                           32: (2001, "7.173e-09")}[budget]
        for sub in ("second-best", "report"):
            out = tmp_path / sub
            code = cli_dispatch([sub, "--out", str(out), "--set", f"howard.max_iter={budget}"])
            assert code == 2
            assert capsys.readouterr().err == (
                f"solver failure: NoConvergence: no convergence after {budget} iterations "
                f"(residual {residual} on the {nodes}-node level)\n")
            assert not out.exists() or not os.listdir(out)

    def test_sweep_lists_its_failures_and_exits_0(self, tmp_path):
        # sigma = 1.85 is a sweep sigma here, not one a stage needs as its own;
        # 1.5 is one sweep short of the end of its 16-sweep cold-start level,
        # and 1.85 and 2.2 spend the budget exactly on their 15-sweep ones
        out = tmp_path / "sw"
        assert cli_dispatch(["sweep", "--out", str(out), "--set", "howard.max_iter=15"]) == 0
        failures = json.loads((out / "manifest.json").read_text())["diagnostics"]["sweep_failures"]
        assert failures == [
            "1.5: NoConvergence: no convergence after 15 iterations "
            "(residual 1.805e-13 on the 32-node level)",
            "1.85: NoConvergence: no convergence after 15 iterations "
            "(residual 1.192e+00 on the 126-node level)",
            "2.2: NoConvergence: no convergence after 15 iterations "
            "(residual 4.620e-01 on the 126-node level)"]
        assert (out / "sweep.csv").read_bytes() == b"sigma,x,w\n"

    def test_a_non_monotone_sweep_sigma_is_a_failure_entry(self, tmp_path):
        alone = tmp_path / "alone"
        assert cli_dispatch(["sweep", "--out", str(alone), *FAST,
                             "--set", "sweep.sigmas=1.85"]) == 0
        for sub in ("sweep", "report"):
            out = tmp_path / sub
            assert cli_dispatch([sub, "--out", str(out), *FAST,
                                 "--set", "sweep.sigmas=1.85,1e300"]) == 0
            diag = json.loads((out / "manifest.json").read_text())["diagnostics"]
            assert diag["sweep_failures"] == ["1e+300: NonMonotoneScheme: non-finite or "
                                              "non-positive diagonal at node 1 (x = 0.02)"]
            assert (out / "sweep.csv").read_bytes() == (alone / "sweep.csv").read_bytes()

    def test_an_underflowing_sweep_sigma_solves_without_a_warning(self, tmp_path, capsys):
        # D underflows to 0 at sigma 1e-200: every continuation row is upwind
        out = tmp_path / "sw"
        assert cli_dispatch(["sweep", "--out", str(out),
                             "--set", "sweep.sigmas=1e-200,1.85"]) == 0
        diag = json.loads((out / "manifest.json").read_text())["diagnostics"]
        assert diag["sweep_failures"] == []
        assert capsys.readouterr().err == ""

    def test_simulate_start_out_of_range(self, tmp_path, capsys):
        code = cli_dispatch(["simulate", "--out", str(tmp_path), *FAST,
                             "--set", "sim.x0=0.8"])
        assert code == 1
        assert "sim.x0" in capsys.readouterr().err

    def test_simulate_start_on_stopped_node(self, tmp_path, capsys):
        # inside (0, b_hat = 0.4655) but within dx/2 of it: the path would
        # stop at once, which is a bad sim.x0, not a solver failure; the
        # failed run publishes none of the files its stages wrote
        for sub in ("simulate", "report"):
            out = tmp_path / sub
            code = cli_dispatch([sub, "--out", str(out), "--set", "sim.n_paths=30",
                                 "--set", "sim.x0=0.4654"])
            assert code == 1
            assert capsys.readouterr().err == (
                "error: sim.x0 = 0.4654 rounds to a stopped grid node "
                "(within dx/2 of b_hat = 0.4655)\n")
            assert not out.exists() or not os.listdir(out)

    def test_voi_range_exits_with_config_error(self, tmp_path, capsys):
        # beyond grid.x_max: rejected by the voi stage
        code = cli_dispatch(["voi", "--out", str(tmp_path / "voi"), *FAST,
                             "--set", "voi.x_max=1.5"])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: voi.x_max = 1.5: x_grid must lie within [0, 1]\n")
        assert not (tmp_path / "voi").exists() or not os.listdir(tmp_path / "voi")
        # inside a wide grid but past the first-best boundary (about 4.55):
        # the voi stage fails, and the run publishes no file
        for sub in ("voi", "report"):
            out = tmp_path / sub
            code = cli_dispatch([sub, "--out", str(out), *FAST, "--set", "grid.x_max=5",
                                 "--set", "voi.x_max=4.9"])
            assert code == 1
            assert capsys.readouterr().err == (
                "error: voi.x_max = 4.9: x_grid must lie within [0, 4.54837]\n")
            assert not out.exists() or not os.listdir(out)

    @pytest.mark.parametrize("sub,x_max", [("second-best", "0.5"), ("simulate", "0.8"),
                                           ("sweep", "0.9")])
    def test_a_grid_narrower_than_voi_runs_without_voi(self, tmp_path, sub, x_max):
        # voi.x_max (0.95) lies past grid.x_max, but only the voi stage reads it
        assert cli_dispatch([sub, "--out", str(tmp_path), *FAST,
                             "--set", f"grid.x_max={x_max}"]) == 0
        assert "voi.csv" not in os.listdir(tmp_path)

    def test_empty_sweep_rejected(self, tmp_path, capsys):
        # the config rejects it before any stage runs: report writes nothing
        for sub in ("sweep", "report"):
            out = tmp_path / sub
            code = cli_dispatch([sub, "--out", str(out), *FAST, "--set", "sweep.sigmas="])
            assert code == 1
            assert "sweep.sigmas" in capsys.readouterr().err
            assert not out.exists() or not os.listdir(out)

    @pytest.mark.parametrize("failing", range(5))
    def test_a_failed_stage_leaves_out_as_it_was(self, tmp_path, monkeypatch, capsys, failing):
        # the stage at index failing writes its files, then raises: earlier
        # stages have written theirs too, yet out keeps exactly its old bytes;
        # the stage logs its files to a file, as the simulation stage runs in
        # a forked child
        out = tmp_path / "out"
        out.mkdir()
        (out / "paths.csv").write_bytes(b"path_id\nold\n")
        (out / "notes.txt").write_bytes(b"kept\n")

        def contents():  # a left-over staging directory shows as None
            return {p.name: p.read_bytes() if p.is_file() else None for p in out.iterdir()}

        before = contents()
        stages = report_cli._SUBCOMMANDS["report"]
        key, stage, need = stages[failing]
        written = tmp_path / "written"

        def fail(exc):
            def failing_stage(cfg, outdir, solved):
                with open(written, "a") as fh:
                    fh.write("".join(f"{name}\n" for name in stage(cfg, outdir, solved)[0]))
                raise exc
            return stages[:failing] + ((key, failing_stage, need),) + stages[failing + 1:]

        monkeypatch.setitem(report_cli._SUBCOMMANDS, "report",
                            fail(PolicyOutOfRange("injected failure")))
        assert cli_dispatch(["report", "--out", str(out), *FAST]) == 2
        assert capsys.readouterr().err == "solver failure: PolicyOutOfRange: injected failure\n"
        assert written.read_text() and contents() == before
        # an exception no exit code covers propagates, and still leaves nothing
        monkeypatch.setitem(report_cli._SUBCOMMANDS, "report", fail(KeyError("unexpected")))
        with pytest.raises(KeyError):
            cli_dispatch(["report", "--out", str(out), *FAST])
        assert contents() == before
        # a run that succeeds replaces paths.csv and leaves only what it lists
        monkeypatch.setitem(report_cli._SUBCOMMANDS, "report", stages)
        (out / "notes.txt").unlink()
        assert cli_dispatch(["report", "--out", str(out), *FAST]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert sorted(os.listdir(out)) == manifest["files"]
        assert (out / "paths.csv").read_bytes() != before["paths.csv"]

    def test_voi_finds_the_first_best_boundary_once(self, tmp_path, monkeypatch, capsys):
        calls = []
        boundary = report_cli.continuation_boundary

        def counted(params):
            calls.append(params.sigma)
            return boundary(params)

        monkeypatch.setattr(report_cli, "continuation_boundary", counted)
        monkeypatch.setattr(first_best, "continuation_boundary", counted)
        assert cli_dispatch(["voi", "--out", str(tmp_path / "ok"), *FAST]) == 0
        assert calls == [1.85]
        calls.clear()
        assert cli_dispatch(["voi", "--out", str(tmp_path / "bad"), *FAST,
                             "--set", "grid.x_max=5", "--set", "voi.x_max=4.9"]) == 1
        assert "x_grid must lie within" in capsys.readouterr().err
        assert calls == [1.85]
        # only a run with the simulation stage checks sim.x0
        assert cli_dispatch(["voi", "--out", str(tmp_path / "x0"), *FAST,
                             "--set", "sim.x0=0.8"]) == 0

    def test_sweep_outputs(self, tmp_path):
        out = tmp_path / "sw"
        assert cli_dispatch(["sweep", "--out", str(out), *FAST]) == 0
        assert sorted(os.listdir(out)) == ["manifest.json", "sweep.csv"]
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "sigma,x,w"
        assert len(lines) == 1 + 2 * 201

    def test_sweep_with_every_sigma_failing_writes_the_header_only(self, tmp_path):
        out = tmp_path / "sw"
        assert cli_dispatch(["sweep", "--out", str(out), *FAST,
                             "--set", "howard.max_iter=5"]) == 0
        assert (out / "sweep.csv").read_bytes() == b"sigma,x,w\n"
        failures = json.loads((out / "manifest.json").read_text())["diagnostics"]["sweep_failures"]
        assert len(failures) == 2 and all("NoConvergence" in f for f in failures)

    def test_a_directory_in_a_files_place_leaves_out_as_it_was(self, tmp_path, capsys):
        # os.replace cannot put paths.csv over a directory; the run finds that
        # before it moves the first file, so out keeps its listing and bytes
        out = tmp_path / "out"
        (out / "paths.csv").mkdir(parents=True)
        (out / "paths.csv" / "inner.txt").write_bytes(b"inner\n")
        (out / "voi.csv").write_bytes(b"x\nold\n")

        def contents():
            return {str(p.relative_to(out)): p.read_bytes() if p.is_file() else None
                    for p in sorted(out.rglob("*"))}

        before = contents()
        assert cli_dispatch(["report", "--out", str(out), *FAST]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write to {out}:") and "Is a directory" in err
        assert contents() == before

    def test_unwritable_out_dir(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory\n")
        for out in (blocker / "x", blocker):
            assert cli_dispatch(["first-best", "--out", str(out), *FAST]) == 1
            assert f"error: cannot write to {out}:" in capsys.readouterr().err
        assert blocker.read_text() == "not a directory\n"

    def test_subcommands_agree_with_readme_and_usage(self):
        readme = README.read_text(encoding="utf-8")
        section = readme[readme.index("## Command line"):readme.index("### Configuration keys")]
        in_readme = re.findall(r"^\| `([a-z-]+)` +\|", section, flags=re.M)
        usage = report_cli._USAGE.split("subcommands:\n", 1)[1].split("\n\n", 1)[0]
        in_usage = [line.split()[0] for line in usage.splitlines()]
        assert len(in_readme) == 6
        assert in_readme == in_usage == list(report_cli._SUBCOMMANDS)

    def test_readme_config_table_gives_the_defaults(self):
        readme = README.read_text(encoding="utf-8")
        section = readme[readme.index("### Configuration keys"):readme.index("### Path file")]
        documented = {}
        for keys, defaults in re.findall(r"^\| `([^`]+)` *\| `([^`]+)` *\|", section, flags=re.M):
            group, names = keys.split(".", 1)  # a row like fb.x_min/x_max/x_n
            for name, default in zip(names.split("/"), defaults.split("/"), strict=True):
                documented[f"{group}.{name}"] = default
        snapshot = load().snapshot
        assert set(documented) == {key for key in snapshot if "." in key}
        for key, default in documented.items():
            assert ([float(v) for v in default.split(",")]
                    == [float(v) for v in snapshot[key].split(",")]), key

    def test_readme_library_imports_are_exported(self):
        readme = README.read_text(encoding="utf-8")
        block = re.search(r"^from contract_solve import \((.*?)^\)", readme, flags=re.M | re.S)
        names = re.findall(r"\b[A-Za-z_]\w*\b", re.sub(r"#.*", "", block.group(1)))
        assert len(names) >= 10
        missing = [name for name in names if not callable(getattr(contract_solve, name, None))]
        assert not missing, f"README imports names the package does not export: {missing}"

    def test_readme_stop_set_table_is_the_solvers(self):
        # each cell: a sigma's interior stop set (the stopped nodes below
        # grid.x_max) on 2,001 nodes, one batch per column
        readme = README.read_text(encoding="utf-8")
        start = readme.index("| sigma | `grid.x_max")
        lines = readme[start:readme.index("\n\n", start)].splitlines()
        x_maxes = [float(v) for v in re.findall(r"`grid\.x_max = ([\d.]+)`", lines[0])]
        cells = {float(sigma): cols for sigma, *cols in
                 ([c.strip() for c in line.strip("|").split("|")] for line in lines[2:])}
        assert list(cells) == [1.5, 1.85, 2.2] and x_maxes == [1.0, 2.0, 5.0]
        for col, x_max in enumerate(x_maxes):
            grid = Grid.make(x_max, 2001)
            x = grid.x[1:-1]
            sols = hjbvi.howard_solve_many(contract_solve.default_params(), list(cells), grid)
            for (sigma, cols), sol in zip(cells.items(), sols):
                assert not isinstance(sol, Exception), (sigma, x_max, sol)
                want = np.zeros(x.size, dtype=bool)
                if cols[col] != "none":
                    lo, hi = (float(v) for v in cols[col].strip("[]").split(","))
                    want = (x > lo - grid.dx / 2) & (x < hi + grid.dx / 2)
                assert np.array_equal(sol.stop[1:-1], want), (sigma, x_max, x[sol.stop[1:-1]])

    def test_first_best_outputs(self, tmp_path, capsys):
        out = tmp_path / "fb"
        assert cli_dispatch(["first-best", "--out", str(out), *FAST]) == 0
        printed = capsys.readouterr().out.splitlines()
        assert str(out / "fb_value.csv") in printed
        header = (out / "fb_value.csv").read_text().splitlines()[0]
        assert header == "x,lambda_lag,tau_star,value"
        header = (out / "fb_schedule.csv").read_text().splitlines()[0]
        assert header == "t,rent,effort,H"

    def test_out_dir_env_override(self, tmp_path, monkeypatch):
        flag_dir = tmp_path / "flagged"
        env_dir = tmp_path / "enved"
        monkeypatch.setenv("CONTRACT_SOLVE_OUT", str(env_dir))
        assert cli_dispatch(["voi", "--out", str(flag_dir), *FAST]) == 0
        assert (env_dir / "voi.csv").exists()
        assert not flag_dir.exists()

    def test_manifest_lists_exactly_what_exists(self, tmp_path):
        out = tmp_path / "rpt"
        assert cli_dispatch(["report", "--out", str(out), *FAST]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert sorted(os.listdir(out)) == manifest["files"]
        assert manifest["subcommand"] == "report"
        assert manifest["config"]["grid.n"] == "201"
        assert "diagnostics" in manifest and "timings" in manifest
        assert manifest["diagnostics"]["effort_convex_nodes"] > 0
        assert manifest["diagnostics"]["added_diffusion_rows"] == 0
        levels = manifest["diagnostics"]["level_sweeps"]  # [nodes, sweeps] per level
        assert [n for n, _ in levels] == [51, 201]
        assert sum(k for _, k in levels) == manifest["diagnostics"]["iterations"]

    def test_csv_number_format_round_trips(self, tmp_path):
        out = tmp_path / "sb"
        assert cli_dispatch(["second-best", "--out", str(out), *FAST]) == 0
        blob = (out / "sb_solution.csv").read_bytes()
        assert b"\r" not in blob
        lines = blob.decode().splitlines()
        assert lines[0] == "x,w,r_star,a_star,stop"
        for line in lines[1:50]:
            fields = line.split(",")
            for text in fields[:4]:
                assert f"{float(text):.17g}" == text
            assert fields[4] in ("0", "1")


class TestPathsCsv:
    def test_row_semantics(self, tmp_path):
        out = tmp_path / "sim"
        assert cli_dispatch(["simulate", "--out", str(out), *FAST,
                             "--set", "sim.n_paths=12"]) == 0
        lines = (out / "paths.csv").read_text().splitlines()
        assert lines[0] == "path_id,t,j,x,dw,stopped"
        rows = [line.split(",") for line in lines[1:]]
        by_path = {}
        for r in rows:
            by_path.setdefault(int(r[0]), []).append(r)
        assert set(by_path) == set(range(12))
        for path_rows in by_path.values():
            assert float(path_rows[0][1]) == 0.0   # starts at t = 0
            assert float(path_rows[0][4]) == 0.0   # no increment before start
            assert float(path_rows[0][2]) == 0.1   # starts at x0
            flags = [r[5] for r in path_rows]
            assert all(f == "0" for f in flags[:-1])
            assert flags[-1] in ("0", "1")  # 1 unless censored

    def test_manifest_counts_match_the_rows(self, tmp_path):
        out = tmp_path / "sim"
        assert cli_dispatch(["simulate", "--out", str(out), *FAST,
                             "--set", "sim.horizon=0.2"]) == 0
        rows = [line.split(",") for line in (out / "paths.csv").read_text().splitlines()[1:]]
        manifest = json.loads((out / "manifest.json").read_text())
        diag = manifest["diagnostics"]
        # every path ends in the stop region, at the floor or at the horizon
        assert diag["n_stopped"] + diag["n_floor"] + diag["n_censored"] == 30
        assert diag["n_censored"] > 0 and diag["n_stopped"] > 0
        assert diag["n_stopped"] + diag["n_floor"] == sum(r[5] == "1" for r in rows)
        assert diag["path_steps"] == len(rows) - 30  # one first row per path
        per_path = np.bincount([int(r[0]) for r in rows])
        assert diag["max_path_steps"] == per_path.max() - 1  # every path is recorded
        assert not {"n_stopped", "path_steps"} & set(manifest["timings"])

    def test_bytes_match_bundles_written_directly(self, tmp_path):
        # oracle: one block per path from the per-path bundles, concatenated
        # into one table and written by %-formatting
        out = tmp_path / "sim"
        assert cli_dispatch(["simulate", "--out", str(out), *FAST]) == 0
        cfg = load(None, FAST[1::2])
        sol = howard_solve(cfg.params, cfg.grid, tol=cfg.howard_tol, max_iter=cfg.howard_max_iter)
        bundles = split_bundles(cfg.params, sol, cfg.sim_x0, cfg.sim)
        assert len({b.times.size for b in bundles}) > 1

        def block(b):
            n = b.w_increments.size
            stopped = np.zeros(n + 1, dtype=int)
            stopped[n] = not b.censored
            return (np.full(n + 1, b.path_id), b.times, b.j_path, b.x_path,
                    np.concatenate(([0.0], b.w_increments)), stopped)

        table = [np.concatenate(col) for col in zip(*map(block, bundles))]
        percent_write_csv(tmp_path / "oracle.csv", ("path_id", "t", "j", "x", "dw", "stopped"),
                          table)
        assert (out / "paths.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()

    def test_the_first_100_paths_are_written_and_the_counts_cover_all(self, tmp_path):
        # 300 paths: paths.csv is the first 100 paths' rows of the full
        # table, a byte prefix of the file of all paths, while the manifest
        # reads every path as the table of all paths does
        out = tmp_path / "report"
        assert cli_dispatch(["report", "--out", str(out), *FAST,
                             "--set", "sim.n_paths=300"]) == 0
        cfg = load(None, [*FAST[1::2], "sim.n_paths=300"])
        sol = howard_solve(cfg.params, cfg.grid, tol=cfg.howard_tol, max_iter=cfg.howard_max_iter)
        full = simulate_paths(cfg.params, sol, cfg.sim_x0, cfg.sim)
        names = ("path_id", "t", "j", "x", "dw", "stopped")
        rows = int(full.starts[100])
        write_csv(tmp_path / "first.csv", names, [getattr(full, k)[:rows] for k in names])
        write_csv(tmp_path / "all.csv", names, [getattr(full, k) for k in names])
        got = (out / "paths.csv").read_bytes()
        assert got == (tmp_path / "first.csv").read_bytes()
        assert (tmp_path / "all.csv").read_bytes().startswith(got) and rows < full.j.size
        mc = summarize_paths(cfg.params, sol, cfg.sim, full)
        assert full.steps.max() > full.steps[:100].max()  # the longest path is not written
        diag = json.loads((out / "manifest.json").read_text())["diagnostics"]
        assert {k: diag[k] for k in ("x0", "n_paths", "mc_estimate", "mc_std_error", "n_floor",
                                     "n_stopped", "n_censored", "path_steps",
                                     "max_path_steps", "censoring_bias_bound")} == {
            "x0": cfg.sim_x0, "n_paths": 300, "mc_estimate": mc.estimate,
            "mc_std_error": mc.std_error, "n_floor": mc.n_floor,
            "n_stopped": 300 - mc.n_floor - mc.n_censored, "n_censored": mc.n_censored,
            "path_steps": int(full.steps.sum()), "max_path_steps": int(full.steps.max()),
            "censoring_bias_bound": mc.censoring_bias_bound}

    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            assert cli_dispatch(["report", "--out", str(out), *FAST]) == 0
        names = ["fb_value.csv", "fb_schedule.csv", "sb_solution.csv",
                 "voi.csv", "sweep.csv", "paths.csv"]
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
        # wall-clock numbers live under "timings"; everything else must repeat
        manifests = [json.loads((out / "manifest.json").read_text())
                     for out in (out1, out2)]
        for manifest in manifests:
            del manifest["timings"]
        assert manifests[0] == manifests[1]


class TestReportComposition:
    def test_report_is_its_stages_run_together(self, tmp_path, monkeypatch):
        sweeps, batches, seconds = [], [], []
        sweep, solve = report_cli.sigma_sweep, hjbvi.howard_solve_many

        def counted_sweep(params, sigmas, **kwargs):
            sweeps.append(list(sigmas))
            t0 = time.perf_counter()
            out = sweep(params, sigmas, **kwargs)
            seconds.append(time.perf_counter() - t0)
            return out

        def counted(params, sigmas, *args, **kwargs):
            batches.append(list(sigmas))
            return solve(params, sigmas, *args, **kwargs)

        monkeypatch.setattr(report_cli, "sigma_sweep", counted_sweep)
        monkeypatch.setattr(hjbvi, "howard_solve_many", counted)
        for cpus in (1, 2):
            set_cpus(monkeypatch, cpus)
            sweeps.clear()
            batches.clear()
            seconds.clear()
            rpt = tmp_path / f"report-{cpus}"
            assert cli_dispatch(["report", "--out", str(rpt), *FAST]) == 0
            # one sigma_sweep call, one batch, one solve per distinct sigma
            assert sweeps == batches == [[1.85, 1.7]]
            report = json.loads((rpt / "manifest.json").read_text())
            assert set(report["timings"]) == {"solve_seconds", "fb_seconds", "sb_seconds",
                                              "voi_seconds", "sweep_seconds", "sim_seconds",
                                              "total_seconds"}
            assert report["timings"]["solve_seconds"] >= sum(seconds)

        files, diag, n_keys = ["manifest.json"], {}, 0
        for sub in ("first-best", "second-best", "voi", "sweep", "simulate"):
            out = tmp_path / sub
            assert cli_dispatch([sub, "--out", str(out), *FAST]) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            for name in manifest["files"]:
                if name != "manifest.json":
                    assert (out / name).read_bytes() == (rpt / name).read_bytes(), name
                    files.append(name)
            diag.update(manifest["diagnostics"])
            n_keys += len(manifest["diagnostics"])
            # the stage's own key and total_seconds, and solve_seconds if it solves
            assert len(manifest["timings"]) == (2 if sub == "first-best" else 3)
        assert report["files"] == sorted(files)
        assert report["diagnostics"] == diag and len(diag) == n_keys

    def test_sweep_stage_keeps_its_solutions_local(self, tmp_path):
        # the sweep's solutions must be freed with its stage, not held in
        # the run's solved dict through the simulate stage: only the
        # configured sigma stays
        cfg = load(None, [*FAST[1::2], "sweep.sigmas=1.7,2.0"])
        solved = sigma_sweep(cfg.params, [1.85, 1.7, 2.0], grid=cfg.grid)
        assert report_cli._sweep(cfg, str(tmp_path), solved)[0] == ["sweep.csv"]
        assert list(solved) == [1.85] and solved[1.85].grid.n == 201

    def test_only_the_own_solution_lives_through_simulate(self, tmp_path, monkeypatch):
        # nothing in cli_dispatch may keep the sweep's solutions alive past
        # its stage, beside the solved dict
        refs, live = [], []
        solve, simulate = hjbvi.howard_solve_many, report_cli.simulate_paths

        def tracked(*args, **kwargs):
            out = solve(*args, **kwargs)
            refs.extend(weakref.ref(sol) for sol in out)
            return out

        def counted(*args, **kwargs):
            gc.collect()
            live.append(sum(ref() is not None for ref in refs))
            return simulate(*args, **kwargs)

        monkeypatch.setattr(hjbvi, "howard_solve_many", tracked)
        monkeypatch.setattr(report_cli, "simulate_paths", counted)
        for cpus in (1, 2):
            set_cpus(monkeypatch, cpus)
            refs.clear()
            live.clear()
            assert cli_dispatch(["report", "--out", str(tmp_path / str(cpus)), *FAST,
                                 "--set", "sweep.sigmas=1.7,2.0"]) == 0
            assert len(refs) == 3 and live == [1]

    def test_repeated_sweep_sigma_is_solved_once(self, tmp_path, monkeypatch, capsys):
        batches = []
        solve = hjbvi.howard_solve_many

        def counted(params, sigmas, *args, **kwargs):
            batches.append(list(sigmas))
            return solve(params, sigmas, *args, **kwargs)

        monkeypatch.setattr(hjbvi, "howard_solve_many", counted)
        # the config rejects a repeated sweep sigma before any stage runs
        out = tmp_path / "twice"
        assert cli_dispatch(["sweep", "--out", str(out), *FAST,
                             "--set", "sweep.sigmas=1.7,1.7,1.85"]) == 1
        assert capsys.readouterr().err == (
            "error: sweep.sigmas must be distinct: 1.7 is listed twice\n")
        assert not batches and (not out.exists() or not os.listdir(out))
        # a library call solves it once
        solved = sigma_sweep(load(None, FAST[1::2]).params, [1.7, 1.7], grid=Grid.make(1.0, 201))
        assert batches == [[1.7]]
        assert list(solved) == [1.7] and isinstance(solved[1.7], hjbvi.SecondBestSolution)


class TestReportProcesses:
    """report runs its stages in order in this process at any CPU count;
    the only children are the shards of a simulation that shards itself."""

    @staticmethod
    def _published(out):
        return out.exists() and os.listdir(out)

    @staticmethod
    def _count_sweeps(monkeypatch):
        sweeps, sweep = [], report_cli.sigma_sweep

        def counted_sweep(params, sigmas, **kwargs):
            sweeps.append(sorted(set(sigmas)))
            return sweep(params, sigmas, **kwargs)

        monkeypatch.setattr(report_cli, "sigma_sweep", counted_sweep)
        return sweeps

    @staticmethod
    def _record_stages(monkeypatch, forks):
        """A list that gets (stage key, forks made so far) as each report
        stage starts."""
        ran = []

        def recorded(key, stage):
            def run(cfg, outdir, solved):
                ran.append((key, len(forks)))
                return stage(cfg, outdir, solved)
            return run

        monkeypatch.setitem(report_cli._SUBCOMMANDS, "report",
                            tuple((key, recorded(key, stage), need)
                                  for key, stage, need in report_cli._SUBCOMMANDS["report"]))
        return ran

    def test_a_one_shard_report_forks_nothing_at_one_or_two_cpus(self, tmp_path,
                                                                  monkeypatch):
        forks, sweeps = count_forks(monkeypatch), self._count_sweeps(monkeypatch)
        for cpus in (2, 1):
            set_cpus(monkeypatch, cpus)
            sweeps.clear()
            assert cli_dispatch(["report", "--out", str(tmp_path / str(cpus)), *FAST]) == 0
            assert not forks and sweeps == [[1.7, 1.85]]
            assert_no_child_left()
        names = sorted(os.listdir(tmp_path / "1"))
        assert names == sorted(os.listdir(tmp_path / "2")) and "paths.csv" in names
        manifests = []
        for name in names:
            one, two = ((tmp_path / str(cpus) / name).read_bytes() for cpus in (1, 2))
            if name == "manifest.json":
                manifests = [json.loads(m) for m in (one, two)]
            else:
                assert one == two, name
        assert set(manifests[0]["timings"]) == set(manifests[1]["timings"])
        for manifest in manifests:
            del manifest["timings"]
        assert manifests[0] == manifests[1]

    def test_a_failing_stage_keeps_its_exit_code(self, tmp_path, monkeypatch, capsys):
        # a failing stage's own exit code and stderr line, and nothing
        # published; a voi failure wins over the simulation's, as voi runs first
        forks = count_forks(monkeypatch)

        def failing(exc):
            def run(*args, **kwargs):
                raise exc
            return run

        monkeypatch.setattr(report_cli, "simulate_paths",
                            failing(PolicyOutOfRange("injected in the simulation")))
        for cpus in (2, 1):
            set_cpus(monkeypatch, cpus)
            for extra, code, err in (
                    ([], 2, "solver failure: PolicyOutOfRange: injected in the simulation\n"),
                    (["--set", "grid.x_max=5", "--set", "voi.x_max=4.9"], 1,
                     "error: voi.x_max = 4.9: x_grid must lie within [0, 4.54837]\n")):
                out = tmp_path / f"{cpus}-{code}"
                assert cli_dispatch(["report", "--out", str(out), *FAST, *extra]) == code
                assert capsys.readouterr().err == err
                assert not forks
                assert_no_child_left()
                assert not self._published(out)
        monkeypatch.setattr(report_cli, "principal_value_fb",
                            failing(BracketFailure("injected bracket failure")))
        out = tmp_path / "fb"
        assert cli_dispatch(["report", "--out", str(out), *FAST]) == 2
        assert capsys.readouterr().err == (
            "solver failure: BracketFailure: injected bracket failure\n")
        assert not forks
        assert_no_child_left()
        assert not self._published(out)

    def test_a_sharded_simulation_runs_after_the_other_stages(self, tmp_path, monkeypatch,
                                                               capsys):
        # a simulation that shards itself already uses every CPU: report
        # solves in one batch and forks nothing of its own, so the only
        # child is the simulation's shard, forked after the other stages; a
        # failing voi stage ends the run before any fork
        set_cpus(monkeypatch, 2)
        monkeypatch.setattr(contract_solve.simulate, "_CHUNK", 8)
        argv = ["report", *FAST, "--set", "sim.n_paths=300"]  # 2 shards, 100 paths recorded
        forks, sweeps = count_forks(monkeypatch), self._count_sweeps(monkeypatch)
        ran = self._record_stages(monkeypatch, forks)
        assert cli_dispatch([*argv, "--out", str(tmp_path / "ok")]) == 0
        assert ran == [(key, 0) for key in ("fb", "sb", "voi", "sweep", "sim")]
        assert len(forks) == 1 and sweeps == [[1.7, 1.85]]
        assert_no_child_left()
        forks.clear()
        out = tmp_path / "voi"
        assert cli_dispatch([*argv, "--out", str(out),
                             "--set", "grid.x_max=5", "--set", "voi.x_max=4.9"]) == 1
        assert capsys.readouterr().err == (
            "error: voi.x_max = 4.9: x_grid must lie within [0, 4.54837]\n")
        assert not forks
        assert_no_child_left()
        assert not self._published(out)

    def test_a_bad_start_fails_before_any_stage_or_fork(self, tmp_path, monkeypatch, capsys):
        # check_start runs on the simulated sigma's solution right after the
        # one batch: no stage and no fork
        set_cpus(monkeypatch, 2)
        forks, sweeps = count_forks(monkeypatch), self._count_sweeps(monkeypatch)
        ran = self._record_stages(monkeypatch, forks)
        out = tmp_path / "out"
        assert cli_dispatch(["report", "--out", str(out), *FAST, "--set", "sim.x0=0.8"]) == 1
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: sim\.x0 = 0\.8 must lie strictly inside "
                            r"\(0, b_hat = 0\.\d+\)\n", err), err
        assert not ran and not forks and sweeps == [[1.7, 1.85]]
        assert not self._published(out)
