"""End-to-end acceptance battery.

One test per released guarantee, each printing a single measured line
(visible with -rA or -s, and in the failure report otherwise). Timed
criteria do their own fresh solves so the clock is honest; the default
second-best solve is shared by the criteria that only read it.
"""

import time

import numpy as np
import pytest

import contract_solve.simulate as sim
from contract_solve import (
    Grid,
    SimConfig,
    cli_dispatch,
    closed_form_G,
    continuation_boundary,
    effort_from_z,
    howard_solve,
    incentive_check,
    mc_principal_value,
    reconstruction_report,
    residual_check,
    schedules,
    simulate_paths,
    solve_lagrange,
    value_of_information,
    z_from_effort,
)
from contract_solve.first_best import reservation_integral


def _line(num: int, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    message = f"criterion {num:02d}: {verdict}  {detail}"
    print(message)
    assert ok, message


@pytest.fixture(scope="module")
def default_solve_timed(params):
    grid = Grid.make()
    t0 = time.perf_counter()
    sol = howard_solve(params, grid)
    return sol, time.perf_counter() - t0


@pytest.fixture(scope="module")
def sigma_family(params, default_solve_timed):
    import dataclasses
    sol, _ = default_solve_timed
    out = {1.85: sol}
    for sg in (1.5, 2.2):
        out[sg] = howard_solve(dataclasses.replace(params, sigma=sg), sol.grid)
    return out


def test_01_lagrange_anchor(params):
    # times the production route (closed form); the quadrature is the oracle
    t0 = time.perf_counter()
    value = closed_form_G(params, 3.0)
    secs = time.perf_counter() - t0
    oracle = reservation_integral(params, 3.0)
    ok = abs(value - 1.64) <= 0.01 and abs(oracle - 1.64) <= 0.01 and secs < 1.0
    _line(1, ok, f"G(3) = {value:.6f}, quadrature {oracle:.6f} (target 1.64 +- 0.01) "
                 f"in {secs:.3f} s (< 1 s)")


def test_02_first_best_boundary(params):
    t0 = time.perf_counter()
    x_max = continuation_boundary(params)
    secs = time.perf_counter() - t0
    ok = abs(x_max - 5.45) <= 0.05 and secs < 10.0
    _line(2, ok, f"x_max = {x_max:.4f} (target 5.45 +- 0.05) in {secs:.2f} s (< 10 s)")


def test_03_quadrature_oracle(params):
    worst = max(abs(reservation_integral(params, m) - closed_form_G(params, m))
                for m in (0.5, 1.0, 3.0, 10.0))
    _line(3, worst < 1e-6, f"max |quadrature - closed form| = {worst:.3e} (< 1e-6)")


def test_04_free_boundary(default_solve_timed):
    sol, secs = default_solve_timed
    ok = 0.30 <= sol.b_hat <= 0.34 and sol.iterations <= 200 and secs < 30.0
    _line(4, ok, f"b_hat = {sol.b_hat:.4f} (target [0.30, 0.34]), "
                 f"{sol.iterations} iterations (<= 200), {secs:.2f} s (< 30 s)")


def test_05_variational_defect(params, default_solve_timed):
    sol, _ = default_solve_timed
    g = sol.grid
    defect = residual_check(sol, params, g)
    pinned = sol.w[0] == 0.0
    stop_gap = float(np.max(np.abs(sol.w[sol.stop] + g.x[sol.stop] ** 4)))
    ok = defect <= 1e-8 and pinned and stop_gap <= 1e-9
    _line(5, ok, f"defect = {defect:.2e} (<= 1e-8), w(0) == 0: {pinned}, "
                 f"stop-region gap = {stop_gap:.2e} (<= 1e-9)")


def test_06_concavity_and_noise_ordering(sigma_family):
    sol = sigma_family[1.85]
    g = sol.grid
    cont = ~sol.stop
    mask = cont[1:-1] & cont[2:] & cont[:-2]
    d2 = (sol.w[2:] - 2.0 * sol.w[1:-1] + sol.w[:-2]) / g.dx**2
    worst_d2 = float(np.max(d2[mask]))
    gap_lo = float(np.min(sigma_family[1.5].w - sigma_family[1.85].w))
    gap_hi = float(np.min(sigma_family[1.85].w - sigma_family[2.2].w))
    ok = worst_d2 <= 1e-7 / g.dx**2 and gap_lo >= -1e-6 and gap_hi >= -1e-6
    _line(6, ok, f"max w'' = {worst_d2:.3e} (<= {1e-7 / g.dx**2:.1e}), "
                 f"ordering margins {gap_lo:.2e}, {gap_hi:.2e} (>= -1e-6)")


def test_07_monotonicity_suites(params):
    guard = 1e-12
    violations = 0
    t = np.linspace(0.0, 50.0, 26)
    rent, effort, _ = schedules(params, 3.0, t)
    violations += int(np.sum(np.diff(rent) > guard))
    violations += int(np.sum(np.diff(effort) < -guard))
    xs = np.linspace(0.1, 5.4, 22)
    ms = [solve_lagrange(params, x) for x in xs]
    rows = [schedules(params, m, 1.0) for m in ms]
    rent_x = np.array([float(r) for r, _, _ in rows])
    effort_x = np.array([float(a) for _, a, _ in rows])
    h_x = np.array([float(h) for _, _, h in rows])
    violations += int(np.sum(np.diff(rent_x) < -guard))
    violations += int(np.sum(np.diff(effort_x) > guard))
    violations += int(np.sum(np.diff(h_x) > guard))
    m_grid = np.geomspace(0.2, 20.0, 25)
    g_vals = np.array([closed_form_G(params, m) for m in m_grid])
    violations += int(np.sum(np.diff(g_vals) < guard))
    _line(7, violations == 0, f"{violations} monotonicity violations across "
                              f"rent/effort/surplus/G grids (need 0)")


def test_08_bijection_round_trips(params):
    rng = np.random.default_rng(2024)
    a = 10.0 ** rng.uniform(-3.0, 1.6, size=10_000)
    worst_a = float(np.max(np.abs(effort_from_z(params, z_from_effort(params, a)) - a)
                           / np.maximum(1.0, a)))
    x = 10.0 ** rng.uniform(-6.0, 3.0, size=10_000)
    worst_u = float(np.max(np.abs(params.u_inv(params.u(x)) - x) / x))
    worst_du = float(np.max(np.abs(params.du_inv(params.du(x)) - x) / x))
    worst = max(worst_a, worst_u, worst_du)
    _line(8, worst <= 1e-10,
          f"worst round-trip rel errors: maps {worst_a:.2e}, U {worst_u:.2e}, "
          f"U' {worst_du:.2e} (<= 1e-10)")


def test_09_mc_cross_validation(params, default_solve_timed):
    sol, _ = default_solve_timed
    cfg = SimConfig()  # dt = 1e-3, 1e4 paths
    t0 = time.perf_counter()
    gaps = []
    for x0 in (0.05, 0.1, 0.2):
        mc = mc_principal_value(params, sol, x0, cfg)
        w0 = float(np.interp(x0, sol.grid.x, sol.w))
        gaps.append((x0, abs(mc.estimate - w0), 3.0 * mc.std_error + 0.05))
    secs = time.perf_counter() - t0
    ok = all(gap <= bound for _, gap, bound in gaps) and secs < 120.0
    detail = ", ".join(f"x0={x0}: |diff| {gap:.4f} <= {bound:.4f}"
                       for x0, gap, bound in gaps)
    _line(9, ok, f"{detail}; total {secs:.1f} s (< 120 s)")


def test_10_no_profitable_deviation(params, default_solve_timed):
    sol, _ = default_solve_timed
    g = sol.grid
    a_of = lambda x: np.interp(x, g.x, sol.a_star)
    devs = [lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            lambda x: 2.0 * a_of(x),
            lambda x: 0.5 * a_of(x)]
    report = incentive_check(params, sol, 0.1, SimConfig(), devs)
    detail = ", ".join(f"margin {d.margin:+.2e} >= {-2.0 * d.margin_se:+.2e}"
                       for d in report.deviations)
    _line(10, report.satisfied, f"zero/double/half effort: {detail}")


def test_11_noise_reconstruction(params, default_solve_timed):
    sol, _ = default_solve_timed
    table = simulate_paths(params, sol, 0.1, SimConfig(n_paths=2000))
    noise, state, excluded = reconstruction_report(params, sol, table)
    _line(11, max(noise, state) <= 1e-12,
          f"max reconstruction error: noise {noise:.2e}, state {state:.2e} (<= 1e-12) "
          f"over {len(table) - excluded} paths ({excluded} excluded)")


def test_12_value_of_information(params, default_solve_timed):
    sol, _ = default_solve_timed
    table = value_of_information(params, np.linspace(0.0, 0.32, 33), solution=sol)
    floor_margin = float(np.min(table.voi))
    convexity = float(np.min(np.diff(table.voi, 2)))
    ok = floor_margin >= -1e-6 and convexity >= -1e-6
    _line(12, ok, f"min voi = {floor_margin:.3e} (>= -1e-6), "
                  f"min second difference = {convexity:.3e} (>= -1e-6)")


def test_13_deterministic_outputs(tmp_path, monkeypatch):
    args = ["--set", "sim.n_paths=2000"]
    names = ["fb_value.csv", "fb_schedule.csv", "sb_solution.csv",
             "voi.csv", "sweep.csv", "paths.csv"]
    outs = [tmp_path / f"run{k}" for k in range(3)]
    assert cli_dispatch(["report", "--out", str(outs[0]), *args]) == 0
    assert cli_dispatch(["report", "--out", str(outs[1]), *args]) == 0
    # different path-batch decomposition stands in for a parallel schedule:
    # per-path counter streams make the grouping irrelevant
    monkeypatch.setattr(sim, "_CHUNK", 61)
    assert cli_dispatch(["report", "--out", str(outs[2]), *args]) == 0
    mismatched = [name for name in names
                  if len({(out / name).read_bytes() for out in outs}) != 1]
    _line(13, not mismatched,
          f"6 csv outputs byte-identical across 3 runs "
          f"(mismatched: {mismatched or 'none'})")
