import dataclasses
import math
import os
import tracemalloc

import numpy as np
import pytest

import contract_solve
import contract_solve.simulate as sim
from contract_solve import (
    Grid,
    InvalidStart,
    PolicyOutOfRange,
    SimConfig,
    in_stop_region,
    incentive_check,
    interpolate_policy,
    mc_principal_value,
    reconstruction_report,
    simulate_paths,
    summarize_paths,
)

from .helpers import (assert_no_child_left, count_forks, lockstep_paths, replay_bundle, set_cpus,
                      split_bundles)

CFG_SMALL = SimConfig(dt=1e-3, horizon=200.0, n_paths=400, seed=20240817)
# record buffers start at one noise block per lane; these rows outgrow that twice
CFG_GROWING = SimConfig(n_paths=3000, seed=7)
BUNDLE_ARRAYS = ("times", "j_path", "x_path", "w_increments")


def _deviations(sb):
    a_of = lambda x: np.interp(x, sb.grid.x, sb.a_star)
    return [lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            lambda x: 2.0 * a_of(x),
            lambda x: 0.5 * a_of(x)]


def _bits(v):
    return np.asarray(v, dtype=float).view(np.uint64)


def _assert_matches_lockstep(params, sb, table, ref, cfg):
    assert len(table) == cfg.n_paths
    for pid, (b, (j, x, dw, r, a)) in enumerate(zip(table, ref["paths"])):
        assert b.path_id == pid
        assert np.array_equal(b.times, np.arange(dw.size + 1) * cfg.dt)
        for name, want in zip(BUNDLE_ARRAYS[1:], (j, x, dw)):
            assert np.array_equal(getattr(b, name), want), (pid, name)
        # what the table leaves out comes back from it and the solution, bitwise:
        # the policies at each step's start, and the stopping time
        for got, want in zip(interpolate_policy(sb, b.j_path[:-1]), (r, a)):
            assert np.array_equal(_bits(got), _bits(want)), pid
        assert (b.times[-1], b.discounted_payoff, b.floor, b.censored) == (
            ref["tau"][pid], ref["principal"][pid], ref["floor"][pid], ref["censored"][pid])
    # and the terminal payment, under the floor convention
    settled = np.where(table.floor, 0.0, table.j[table.starts + table.steps])
    assert np.array_equal(_bits(params.u_inv(settled)), _bits(ref["terminal"]))


def _count_normals(monkeypatch):
    """A list that receives the size of every standard_normal draw the
    stepper's generator makes."""
    drawn = []

    class Counting(np.random.Generator):
        def standard_normal(self, *args, out=None, **kwargs):
            drawn.append(out.size)
            return super().standard_normal(*args, out=out, **kwargs)

    monkeypatch.setattr(np.random, "Generator", Counting)
    return drawn


def _normals_per_run(steps, block, snapshot_block):
    """Normals a run draws: each path draws its ceil(steps / block) blocks
    once, and a refill of block b < snapshot_block first redraws the b
    blocks before it."""
    return sum(block * (b + 1 if b < snapshot_block else 1)
               for n in steps.tolist() for b in range(-(-n // block)))


def _pool_outputs(params, sb):
    """What each user of the lane pool returns for one small run."""
    cfg = SimConfig(n_paths=64, seed=123)
    return (mc_principal_value(params, sb, 0.1, cfg),
            incentive_check(params, sb, 0.1, cfg, _deviations(sb)[:2]),
            simulate_paths(params, sb, 0.1, cfg))


def _assert_same_pool_outputs(got, want, setting):
    assert got[:2] == want[:2], setting
    _assert_same_bundles(got[2], want[2])


def _assert_same_bundles(got, want):
    assert len(got) == len(want)
    for b1, b2 in zip(got, want):
        for name in BUNDLE_ARRAYS:
            assert np.array_equal(getattr(b1, name), getattr(b2, name)), (b1.path_id, name)
        assert (b1.path_id, b1.discounted_payoff, b1.floor, b1.censored) == (
            b2.path_id, b2.discounted_payoff, b2.floor, b2.censored)


@pytest.fixture(scope="module")
def bundles(params, sb):
    return simulate_paths(params, sb, 0.1, CFG_SMALL)


class TestConfig:
    def test_defaults(self):
        cfg = SimConfig()
        assert cfg.dt == 1e-3 and cfg.horizon == 200.0
        assert cfg.n_paths == 10_000 and cfg.seed == 42
        assert cfg.n_steps == 200_000

    def test_rejects_bad_values(self):
        for kwargs in (dict(dt=0.0), dict(dt=-1e-3), dict(horizon=-1.0),
                       dict(n_paths=0), dict(seed=2**64), dict(seed=-1),
                       dict(horizon=1e-4),  # rounds to zero steps
                       dict(horizon=math.inf), dict(dt=math.inf), dict(dt=math.nan),
                       dict(dt=1e-320),  # horizon / dt overflows
                       # int() would take 3.7 as seed 3 and -0.5 as seed 0
                       dict(seed=3.7), dict(seed=-0.5), dict(n_paths=100.5)):
            with pytest.raises(ValueError):
                SimConfig(**kwargs)


class TestPolicyLookup:
    def test_interpolation_hits_nodes(self, sb):
        g = sb.grid
        idx = [0, 5, 930, g.n - 1]
        r, a = interpolate_policy(sb, g.x[idx])
        assert np.array_equal(r, sb.r_star[idx])
        assert np.array_equal(a, sb.a_star[idx])

    def test_out_of_domain_rejected(self, sb):
        with pytest.raises(PolicyOutOfRange):
            interpolate_policy(sb, -1e-9)
        with pytest.raises(PolicyOutOfRange):
            interpolate_policy(sb, sb.grid.x_max + 1e-9)
        for x in (math.nan, [0.1, math.nan]):
            with pytest.raises(PolicyOutOfRange):
                interpolate_policy(sb, x)

    @pytest.mark.parametrize("x_max", [None, 0.8])
    def test_one_lookup_is_interp_and_the_stop_flag_bitwise(self, sb, x_max):
        # on the default grid floor(x[k] / dx) never falls below k; with
        # x_max = 0.8 it does at 137 nodes, so both interval corrections run
        if x_max is not None:
            sb = dataclasses.replace(sb, grid=Grid.make(x_max, sb.grid.n))
        g = sb.grid
        lookup = sim._Lookup(sb)
        b = int(np.argmax(sb.stop))  # first stopped node
        points = np.concatenate([
            g.x, np.nextafter(g.x, -np.inf), np.nextafter(g.x, np.inf),
            (np.arange(g.n - 1) + 0.5) * g.dx,  # half-nodes: rint's ties go to even
            np.linspace(g.x[b - 1], g.x[b], 1001),  # the last interval below the stop region
            np.linspace(g.x[-2], g.x[-1], 1001),  # the grid's last interval, x_max included
        ])
        inside = points[(points > 0.0) & (points <= g.x_max)]
        k, stop = lookup.locate(inside)
        r, a = lookup.policy(inside, k)
        assert np.array_equal(_bits(r), _bits(np.interp(inside, g.x, sb.r_star)))
        assert np.array_equal(_bits(a), _bits(np.interp(inside, g.x, sb.a_star)))
        assert np.array_equal(stop, in_stop_region(sb, inside))
        below = inside < g.x_max
        assert np.all(g.x[k[below]] <= inside[below]) and np.all(inside[below] < g.x[k[below] + 1])
        # at or below 0 only the stop flag is defined: the node is floored at 0
        low = np.concatenate([points[points <= 0.0], [-0.0, -1e-300, -0.5 * g.dx, -g.dx, -g.x_max]])
        assert np.array_equal(lookup.locate(low)[1], in_stop_region(sb, low))

    def test_stop_lookup_rounds_to_nearest_node(self, sb):
        dx = sb.grid.dx
        assert in_stop_region(sb, sb.b_hat)
        assert in_stop_region(sb, sb.b_hat - 0.4 * dx)
        assert not in_stop_region(sb, sb.b_hat - 0.6 * dx)
        assert not in_stop_region(sb, 0.0)

    def test_stop_lookup_off_the_grid(self, sb):
        # an infinite state is above x_max like 2.0, at the end node's stop
        assert in_stop_region(sb, [np.inf, 2.0]).tolist() == [True, True]
        with pytest.raises(PolicyOutOfRange, match="NaN"):
            in_stop_region(sb, [0.1, np.nan])


class TestPreconditions:
    def test_start_must_be_interior(self, params, sb):
        cfg = SimConfig(n_paths=4)
        for x0 in (0.0, -0.1, sb.b_hat, 0.9, 2.0):
            with pytest.raises(InvalidStart, match="strictly inside"):
                simulate_paths(params, sb, x0, cfg)

    def test_start_on_stop_node_is_rejected(self, params, sb):
        # nearest-node stop flag means this start would be a zero-length path
        x0 = sb.b_hat - 0.25 * sb.grid.dx
        with pytest.raises(InvalidStart, match="stopped grid node"):
            mc_principal_value(params, sb, x0, SimConfig(n_paths=4))


class TestDeterminism:
    def test_bitwise_repeatable(self, params, sb, bundles):
        again = simulate_paths(params, sb, 0.1, CFG_SMALL)
        for b1, b2 in zip(bundles[:32], again[:32]):
            assert np.array_equal(b1.j_path, b2.j_path)
            assert np.array_equal(b1.w_increments, b2.w_increments)
            assert b1.discounted_payoff == b2.discounted_payoff

    def test_mc_estimate_repeatable(self, params, sb):
        cfg = SimConfig(n_paths=600, seed=9)
        est1 = mc_principal_value(params, sb, 0.1, cfg)
        est2 = mc_principal_value(params, sb, 0.1, cfg)
        assert est1.estimate == est2.estimate
        assert est1.std_error == est2.std_error

    def test_chunk_width_does_not_change_results(self, params, sb, monkeypatch):
        # widths from one lane to more lanes than paths; 1024 is the default
        base = _pool_outputs(params, sb)
        for width in (1, 61, 1024, 4096):
            monkeypatch.setattr(sim, "_CHUNK", width)
            _assert_same_pool_outputs(_pool_outputs(params, sb), base, width)

    def test_snapshot_block_does_not_change_results(self, params, sb, monkeypatch):
        # a path of three blocks restores a saved state at its last refill
        # when the snapshot block is 1 or 2, and redraws its first two
        # blocks there at the default and at 64
        base = _pool_outputs(params, sb)
        assert base[2].steps.max() > 2 * sim._NOISE_BLOCK
        for snapshot_block in (1, 2, 64):
            monkeypatch.setattr(sim, "_SNAPSHOT_BLOCK", snapshot_block)
            _assert_same_pool_outputs(_pool_outputs(params, sb), base, snapshot_block)

    def test_normals_drawn_are_linear_past_the_snapshot_block(self, params, sb, monkeypatch):
        # 4-normal blocks: paths run to 79 blocks, so a redraw on every
        # refill would make the work per path quadratic in its length
        monkeypatch.setattr(sim, "_NOISE_BLOCK", 4)
        drawn = _count_normals(monkeypatch)
        cfg = SimConfig(n_paths=300, seed=123)
        for snapshot_block in (1, 3, 8, 100):
            monkeypatch.setattr(sim, "_SNAPSHOT_BLOCK", snapshot_block)
            drawn.clear()
            steps = simulate_paths(params, sb, 0.1, cfg).steps
            assert -(-steps.max() // 4) > 8
            assert sum(drawn) == _normals_per_run(steps, 4, snapshot_block), snapshot_block
        assert sum(drawn) > 8 * _normals_per_run(steps, 4, 1)  # all refills redraw at 100

    @pytest.mark.parametrize("seed", [0, 42, 2**64 - 1])
    def test_rekey_is_the_keyed_philox_stream(self, seed):
        gen = np.random.Generator(np.random.Philox(0))
        start = sim._philox_start(seed)
        for path_id in (0, 1, 9_999):
            gen.standard_normal(3)  # leave state and buffer behind
            sim._rekey(gen, start, path_id)
            want = np.random.Generator(np.random.Philox(key=(seed << 64) | path_id))
            assert np.array_equal(gen.standard_normal(1_000), want.standard_normal(1_000))

    def test_seed_changes_draws(self, params, sb):
        a = mc_principal_value(params, sb, 0.1, SimConfig(n_paths=200, seed=1))
        b = mc_principal_value(params, sb, 0.1, SimConfig(n_paths=200, seed=2))
        assert a.estimate != b.estimate


class TestShards:
    """Estimates split by path id across forked processes: the serial run's
    bits, and no process left behind."""

    CFG = SimConfig(n_paths=400, seed=123)  # with 64-lane pools: up to 6 shards

    def _outputs(self, params, sb):
        return (mc_principal_value(params, sb, 0.1, self.CFG),
                incentive_check(params, sb, 0.1, self.CFG, _deviations(sb)))

    def test_shard_count_does_not_change_results(self, params, sb, monkeypatch):
        monkeypatch.setattr(sim, "_CHUNK", 64)
        forks = count_forks(monkeypatch)
        set_cpus(monkeypatch, 1)
        serial = self._outputs(params, sb)
        assert not forks
        for k in (2, 3, 5):
            set_cpus(monkeypatch, k)
            forks.clear()
            assert self._outputs(params, sb) == serial, k
            assert len(forks) == 5 * (k - 1)  # one estimate and four incentive arms
            assert_no_child_left()

    @pytest.mark.parametrize("failing", ["child", "parent"])
    def test_a_shard_error_is_raised_and_no_child_is_left(self, params, sb, monkeypatch,
                                                          failing):
        monkeypatch.setattr(sim, "_CHUNK", 64)
        set_cpus(monkeypatch, 3)
        run_paths = sim._run_paths

        def failing_run_paths(*args, first=0, **kwargs):
            if (first > 0) == (failing == "child"):
                raise PolicyOutOfRange(f"failed from path {first}")
            return run_paths(*args, first=first, **kwargs)

        monkeypatch.setattr(sim, "_run_paths", failing_run_paths)
        with pytest.raises(PolicyOutOfRange) as info:
            mc_principal_value(params, sb, 0.1, self.CFG)
        # the first shard to fail in id order: the parent's own, or the first child's
        assert type(info.value) is PolicyOutOfRange
        assert str(info.value) == f"failed from path {0 if failing == 'parent' else 133}"
        assert_no_child_left()

    def test_fewer_than_two_pools_of_paths_run_in_process(self, params, sb, monkeypatch):
        forks = count_forks(monkeypatch)
        set_cpus(monkeypatch, 8)
        n = 2 * sim._CHUNK
        mc_principal_value(params, sb, 0.1, SimConfig(n_paths=n - 1, seed=1))
        assert not forks
        mc_principal_value(params, sb, 0.1, SimConfig(n_paths=n, seed=1))
        assert len(forks) == 1
        # a platform without the affinity mask runs every estimate in process
        monkeypatch.delattr(os, "sched_getaffinity")
        mc_principal_value(params, sb, 0.1, SimConfig(n_paths=n, seed=1))
        assert len(forks) == 1
        assert_no_child_left()

    def test_a_recorded_sample_is_the_full_tables_first_paths(self, params, sb, monkeypatch):
        # 400 paths in 64-lane pools: shard 0 holds ids 0-199 at 2 CPUs and
        # 0-132 at 3, so K = 200 and 300 widen it (300 empties the 3-CPU
        # run's second shard); every K is one shard at 1 CPU
        monkeypatch.setattr(sim, "_CHUNK", 64)
        forks = count_forks(monkeypatch)
        set_cpus(monkeypatch, 1)
        full = simulate_paths(params, sb, 0.1, self.CFG)
        mc = mc_principal_value(params, sb, 0.1, self.CFG)
        recorded = (1, 100, 200, 300, 400)
        for cpus, n_forks in ((1, (0, 0, 0, 0, 0)), (2, (1, 1, 1, 1, 0)), (3, (2, 2, 2, 1, 0))):
            set_cpus(monkeypatch, cpus)
            for k, want_forks in zip(recorded, n_forks):
                forks.clear()
                table = simulate_paths(params, sb, 0.1, self.CFG, n_recorded=k)
                assert len(forks) == want_forks, (cpus, k)
                assert_no_child_left()
                rows = full.starts[k] if k < len(full) else full.j.size
                assert len(table) == k and np.array_equal(table.starts, full.starts[:k])
                for name in ("path_id", "stopped"):
                    assert np.array_equal(getattr(table, name), getattr(full, name)[:rows])
                for name in ("t", "j", "x", "dw"):
                    assert np.array_equal(_bits(getattr(table, name)),
                                          _bits(getattr(full, name)[:rows])), (cpus, k, name)
                for name in ("steps", "payoff", "floor", "censored"):
                    assert np.array_equal(getattr(table, name), getattr(full, name)), name
                assert summarize_paths(params, sb, self.CFG, table) == mc
                _assert_same_bundles(table, full[:k])
            forks.clear()
            assert mc_principal_value(params, sb, 0.1, self.CFG) == mc
            assert len(forks) == cpus - 1

    def test_every_slot_survives_a_forked_shard(self, params, sb, monkeypatch):
        # a deviation arm that records: agent and records filled in one run
        monkeypatch.setattr(sim, "_CHUNK", 64)
        forks = count_forks(monkeypatch)
        runs = []
        for cpus in (1, 2, 3):
            set_cpus(monkeypatch, cpus)
            forks.clear()
            runs.append(sim._run_sharded(params, sb, 0.1, self.CFG, _deviations(sb)[1],
                                         agent=True, record=100))
            assert len(forks) == cpus - 1
            assert_no_child_left()

        def bits(out, name):  # each column's dtype, shape and bytes
            cols = getattr(out, name)
            return [(c.dtype, c.shape, c.tobytes()) for c in
                    (cols if name == "records" else [cols])]

        for name in sim._Paths.__slots__:
            assert getattr(runs[0], name) is not None, name
            for cpus, out in zip((2, 3), runs[1:]):
                assert bits(out, name) == bits(runs[0], name), (cpus, name)

    def test_recorded_count_is_checked(self, params, sb):
        for bad in (0, -1, self.CFG.n_paths + 1, 2.5, "100"):
            with pytest.raises(ValueError, match="n_recorded must be an integer"):
                simulate_paths(params, sb, 0.1, self.CFG, n_recorded=bad)


class TestLockstepOracle:
    """The lane pool against the lockstep stepper it replaced: same bits."""

    @pytest.fixture(scope="class")
    def oracle(self, params, sb):
        cfgs = (SimConfig(n_paths=300, seed=123),
                SimConfig(dt=1e-3, horizon=0.05, n_paths=64, seed=3),  # censors
                CFG_GROWING)
        return {cfg: lockstep_paths(params, sb, 0.1, cfg) for cfg in cfgs}

    def test_some_path_refills_mid_path(self, oracle):
        # 64 normals per refill: a path past 128 steps draws three blocks
        longest = max(p[2].size for ref in oracle.values() for p in ref["paths"])
        assert longest > 128

    def test_estimate_fields(self, params, sb, oracle):
        for cfg, ref in oracle.items():
            out = sim._run_paths(params, sb, 0.1, cfg)
            for key in ("principal", "floor", "censored"):
                assert np.array_equal(getattr(out, key), ref[key]), key
            # an estimate allocates nothing for the agent or for recording
            assert (out.agent, out.steps, out.records) == (None, None, None)
            mc = mc_principal_value(params, sb, 0.1, cfg)
            assert mc.estimate == np.mean(ref["principal"])
            assert mc.n_floor == ref["floor"].sum()
            assert mc.n_censored == ref["censored"].sum()
        assert any(ref["censored"].any() for ref in oracle.values())

    def test_agent_objectives_under_deviations(self, params, sb, oracle):
        cfg = next(iter(oracle))
        assert np.array_equal(sim._run_sharded(params, sb, 0.1, cfg, agent=True).agent,
                              oracle[cfg]["agent"])
        for dev in _deviations(sb):
            ref = lockstep_paths(params, sb, 0.1, cfg, effort_map=dev)
            assert np.array_equal(sim._run_sharded(params, sb, 0.1, cfg, dev, agent=True).agent,
                                  ref["agent"])

    def test_recording_deviation_arm(self, params, sb, monkeypatch):
        # agent, a deviated effort and records: every row of the lane state is
        # live; 16 lanes for 64 paths, so the pool both refills and drains
        monkeypatch.setattr(sim, "_CHUNK", 16)
        cfg = SimConfig(n_paths=64, seed=123)
        for dev in _deviations(sb):
            out = sim._run_paths(params, sb, 0.1, cfg, dev, agent=True, record=cfg.n_paths)
            ref = lockstep_paths(params, sb, 0.1, cfg, effort_map=dev)
            for key in ("principal", "agent"):
                assert np.array_equal(_bits(getattr(out, key)), _bits(ref[key])), key
            for key in ("floor", "censored"):
                assert np.array_equal(getattr(out, key), ref[key]), key
            pids, *records = out.records
            order = np.argsort(pids, kind="stable")
            assert np.array_equal(out.steps, [p[2].size for p in ref["paths"]])
            cuts = np.cumsum(out.steps)[:-1]
            per_path = zip(*(np.split(v[order], cuts) for v in records))
            for pid, ((j, x, dw), want) in enumerate(zip(per_path, ref["paths"])):
                for got, w in zip((j, x, dw), (want[0][1:], want[1][1:], want[2])):
                    assert np.array_equal(_bits(got), _bits(w)), pid

    def test_recorded_paths(self, params, sb, oracle):
        for cfg, ref in oracle.items():
            _assert_matches_lockstep(params, sb, simulate_paths(params, sb, 0.1, cfg), ref, cfg)

    @pytest.mark.parametrize("snapshot_block", [1, 3])
    def test_paths_past_the_snapshot_block(self, params, sb, monkeypatch, snapshot_block):
        # 4-normal blocks: nearly every path passes the snapshot block, so
        # its early refills redraw and its later ones restore a saved state
        monkeypatch.setattr(sim, "_NOISE_BLOCK", 4)
        monkeypatch.setattr(sim, "_SNAPSHOT_BLOCK", snapshot_block)
        for cfg in (SimConfig(n_paths=300, seed=123),
                    SimConfig(dt=1e-3, horizon=0.05, n_paths=64, seed=3)):
            ref = lockstep_paths(params, sb, 0.1, cfg, block=4)
            table = simulate_paths(params, sb, 0.1, cfg)
            assert np.median(table.steps) > 4 * snapshot_block
            _assert_matches_lockstep(params, sb, table, ref, cfg)
            out = sim._run_paths(params, sb, 0.1, cfg)
            for key in ("principal", "floor", "censored"):
                assert np.array_equal(getattr(out, key), ref[key]), key


class TestPathTable:
    """The flat table against the per-path split route: same bundles, bitwise."""

    CENSORING = SimConfig(dt=1e-3, horizon=0.05, n_paths=64, seed=3)

    def test_bundles_match_split_route(self, params, sb, bundles):
        short = simulate_paths(params, sb, 0.1, self.CENSORING)
        assert short.censored.any() and not short.censored.all()
        _assert_same_bundles(short, split_bundles(params, sb, 0.1, self.CENSORING))
        _assert_same_bundles(bundles, split_bundles(params, sb, 0.1, CFG_SMALL))
        growing = simulate_paths(params, sb, 0.1, CFG_GROWING)
        assert growing.steps.sum() > 2 * sim._CHUNK * sim._NOISE_BLOCK
        _assert_same_bundles(growing, split_bundles(params, sb, 0.1, CFG_GROWING))

    def test_recording_peak_is_the_table_plus_one_column(self, params, sb):
        simulate_paths(params, sb, 0.1, SimConfig(n_paths=4, seed=1))  # one-time imports
        tracemalloc.start()
        try:
            table = simulate_paths(params, sb, 0.1, SimConfig(n_paths=2000, seed=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        sizes = [getattr(table, f.name).nbytes for f in dataclasses.fields(table)]
        assert peak <= sum(sizes) + max(sizes), (peak, sum(sizes), max(sizes))

    def test_list_like_indexing(self, bundles):
        n = CFG_SMALL.n_paths
        assert len(bundles) == n
        _assert_same_bundles([bundles[-1], bundles[-n]], [bundles[n - 1], bundles[0]])
        _assert_same_bundles(bundles[5:9], [bundles[k] for k in range(5, 9)])
        _assert_same_bundles(bundles[::-97], [bundles[k] for k in range(n - 1, -1, -97)])
        assert bundles[n:] == [] and bundles[np.int64(3)].path_id == 3
        for bad in (n, -n - 1):
            with pytest.raises(IndexError):
                bundles[bad]

    def test_iteration_counts_path_steps(self, bundles):
        assert sum(b.w_increments.size for b in bundles) == bundles.steps.sum()
        assert sum(1 for _ in bundles) == len(bundles)

    def test_columns_in_paths_csv_layout(self, params, sb):
        table = simulate_paths(params, sb, 0.1, self.CENSORING)
        rows = table.steps.sum() + len(table)
        for name in ("path_id", "t", "j", "x", "dw", "stopped"):
            assert getattr(table, name).shape == (rows,), name
        first = table.starts
        assert np.all(table.dw[first] == 0.0) and np.all(table.t[first] == 0.0)
        assert np.array_equal(np.flatnonzero(table.stopped),
                              (first + table.steps)[~table.censored])
        assert np.array_equal(np.bincount(table.path_id), table.steps + 1)


class TestPathContents:
    def test_recorded_policy_is_the_public_one(self, params, sb, monkeypatch):
        table = simulate_paths(params, sb, 0.1, SimConfig(n_paths=300, seed=123))
        last = table.starts + table.steps
        begins = np.ones(table.j.size, dtype=bool)  # nodes that start a step
        begins[last] = False
        # the stepper's lookup at the states it recorded
        lookup = sim._Lookup(sb)
        k, stop = lookup.locate(table.j[begins])
        policy = lookup.policy(table.j[begins], k)
        # the references must not route through the stepper's lookup
        monkeypatch.setattr(sim, "_Lookup", None)
        for got, want in zip(policy, interpolate_policy(sb, table.j[begins])):
            assert np.array_equal(_bits(got), _bits(want))
        assert np.array_equal(stop, in_stop_region(sb, table.j[begins]))
        assert not stop.any()
        ends = last[~table.floor]
        assert np.array_equal(table.stopped[ends], in_stop_region(sb, table.j[ends]))
        assert table.stopped[ends].all() and table.floor.any()
        assert (contract_solve.interpolate_policy, contract_solve.in_stop_region) == (
            sim.interpolate_policy, sim.in_stop_region)

    def test_array_shapes_agree(self, bundles):
        for b in bundles[:64]:
            n = b.w_increments.size
            assert b.times.size == n + 1
            assert b.j_path.size == n + 1
            assert b.x_path.size == n + 1

    def test_terminal_conventions(self, params, sb, bundles):
        # the payoff is the discounted flow less the discounted terminal
        # payment u_inv(J_tau), which is nothing at the floor
        saw_floor = saw_stop = False
        for b in bundles:
            if b.censored:
                assert b.times[-1] == pytest.approx(CFG_SMALL.horizon)
            elif b.floor:
                saw_floor = True
                assert b.j_path[-1] <= 0.0
            else:
                saw_stop = True
                assert in_stop_region(sb, b.j_path[-1])
            r, a = interpolate_policy(sb, b.j_path[:-1])
            disc = np.exp(-params.delta * b.times)
            flow = np.sum(disc[:-1] * (params.phi(a) - r)) * CFG_SMALL.dt
            terminal = 0.0 if b.floor else params.u_inv(b.j_path[-1])
            # the stepper discounts by repeated products and sums in step order
            assert b.discounted_payoff == pytest.approx(flow - disc[-1] * terminal,
                                                        rel=1e-11, abs=1e-14)
        assert saw_floor and saw_stop

    def test_zero_effort_state_still_loads_on_noise(self, params, sb):
        # the PDE's diffusion stays positive at a = 0, and so must the
        # simulated state's noise loading, or the MC checks another operator
        lazy = dataclasses.replace(sb, a_star=np.zeros_like(sb.a_star))
        cfg = SimConfig(horizon=0.05, n_paths=4, seed=4)
        for b in simulate_paths(params, lazy, 0.1, cfg):
            r, a = interpolate_policy(lazy, b.j_path[:-1])
            assert not a.any()
            drift = params.lam * b.j_path[:-1] - params.u(r) + params.h(a)
            noise = np.diff(b.j_path) - drift * cfg.dt
            assert np.allclose(noise, params.exposure(0.0) * b.w_increments,
                               rtol=1e-9, atol=1e-15)
            assert np.all(noise != 0.0)

    def test_output_consistent_with_noise(self, params, sb, bundles):
        # X is a deterministic function of effort and the stored noise
        for b in bundles[:32]:
            _, a = interpolate_policy(sb, b.j_path[:-1])
            dx = params.phi(a) * CFG_SMALL.dt + params.sigma * b.w_increments
            assert np.allclose(np.diff(b.x_path), dx, atol=1e-15)


class TestMartingaleProperty:
    def test_discounted_agent_value_is_flat(self, params, sb, bundles):
        # e^{-lam(t^tau)} J + int_0^{t^tau} e^{-lam s}(U(r)-h(a)) ds has
        # constant mean across checkpoints (it is the agent's value process)
        lam, dt = params.lam, CFG_SMALL.dt
        checkpoints = (0.005, 0.02, 0.05, 0.1)
        stats = {t: [] for t in checkpoints}
        for b in bundles:
            n = b.w_increments.size
            r, a = interpolate_policy(sb, b.j_path[:-1])
            flows = (params.u(r) - params.h(a)) * dt
            disc = np.exp(-lam * b.times[:-1])
            cum = np.concatenate([[0.0], np.cumsum(disc * flows)])
            for t in checkpoints:
                k = min(int(round(t / dt)), n)
                stats[t].append(math.exp(-lam * b.times[k]) * b.j_path[k] + cum[k])
        for t, vals in stats.items():
            vals = np.asarray(vals)
            se = vals.std(ddof=1) / math.sqrt(vals.size)
            assert abs(vals.mean() - 0.1) <= 3.0 * se, (t, vals.mean(), se)


class TestMonteCarloValue:
    def test_matches_pde_value(self, params, sb):
        cfg = SimConfig(n_paths=2000, seed=31)
        mc = mc_principal_value(params, sb, 0.1, cfg)
        w0 = float(np.interp(0.1, sb.grid.x, sb.w))
        assert abs(mc.estimate - w0) <= 3.0 * mc.std_error + 0.05
        assert mc.n_floor + mc.n_censored <= cfg.n_paths

    def test_start_near_boundary_pays_the_obstacle(self, params, sb):
        x0 = sb.b_hat - 2.0 * sb.grid.dx
        mc = mc_principal_value(params, sb, x0, SimConfig(n_paths=1500, seed=8))
        assert abs(mc.estimate + params.u_inv(sb.b_hat)) <= 0.01

    def test_censoring_accounting(self, params, sb):
        cfg = SimConfig(dt=1e-3, horizon=0.02, n_paths=64, seed=3)
        mc = mc_principal_value(params, sb, 0.1, cfg)
        assert mc.n_censored > 0
        expected = math.exp(-params.delta * cfg.horizon) * (
            sb.k_growth + params.u_inv(sb.grid.x_max))
        assert mc.censoring_bias_bound == pytest.approx(expected, rel=1e-12)

    def test_summary_of_recorded_paths_is_the_mc_value(self, params, sb):
        # the censored short horizon makes every field of the summary non-trivial
        for cfg in (CFG_SMALL, SimConfig(dt=1e-3, horizon=0.5, n_paths=64, seed=3)):
            paths = simulate_paths(params, sb, 0.1, cfg)
            assert summarize_paths(params, sb, cfg, paths) == mc_principal_value(
                params, sb, 0.1, cfg)


class TestIncentives:
    def test_identity_deviation_is_exactly_free(self, params, sb):
        g = sb.grid
        identity = lambda x: np.interp(x, g.x, sb.a_star)
        report = incentive_check(params, sb, 0.1, SimConfig(n_paths=300, seed=5),
                                 [identity])
        (dev,) = report.deviations
        assert dev.margin == 0.0
        assert dev.margin_se == 0.0
        assert dev.satisfied and report.satisfied

    def test_standard_deviations_do_not_beat_baseline(self, params, sb):
        report = incentive_check(params, sb, 0.1, SimConfig(n_paths=1500, seed=13),
                                 _deviations(sb))
        assert report.satisfied
        for dev in report.deviations:
            assert dev.margin >= -2.0 * dev.margin_se

    @pytest.mark.parametrize("where", ["parent", "child"])
    @pytest.mark.parametrize("bad", [math.nan, -0.5, math.inf])
    def test_a_bad_deviation_effort_raises(self, params, sb, monkeypatch, where, bad):
        # 2,048 paths over 2 CPUs: the second shard runs in a forked child,
        # which must send the same error back
        set_cpus(monkeypatch, 2)
        parent = os.getpid()

        def deviation(x):
            a = np.interp(x, sb.grid.x, sb.a_star)
            in_child = os.getpid() != parent
            return np.where(x > 0.05, bad, a) if in_child == (where == "child") else a

        with pytest.raises(ValueError) as info:
            incentive_check(params, sb, 0.1, SimConfig(n_paths=2048, seed=5), [deviation])
        assert type(info.value) is ValueError
        assert str(info.value) == f"effort map gave a = {bad}: efforts must be finite and >= 0"
        assert_no_child_left()


class TestReconstruction:
    def test_noise_recovery_is_roundoff(self, params, sb, bundles):
        noise, state, excluded = reconstruction_report(params, sb, bundles)
        assert noise <= 1e-12 and state <= 1e-12
        assert excluded == 0  # baseline effort is strictly positive

    def test_report_is_the_per_bundle_loop(self, params, sb, bundles):
        # zero effort low in the continuation region: paths that go there are excluded
        lazy = dataclasses.replace(sb, a_star=np.where(sb.grid.x < 0.09, 0.0, sb.a_star))
        partly = simulate_paths(params, lazy, 0.1, SimConfig(n_paths=200, seed=5))
        for sol, table in ((sb, bundles), (lazy, partly)):
            noise, state, skipped = sim._replay(params, sol, table)
            want = [replay_bundle(params, sol, b) for b in table]
            assert [None if s else (n, e) for n, e, s in zip(noise, state, skipped)] == want
            clean = [w for w in want if w is not None]
            assert reconstruction_report(params, sol, table) == (
                max(n for n, _ in clean), max(e for _, e in clean), len(table) - len(clean))
        assert 0 < len(partly) - len(clean) < len(partly)

    def test_state_recovery_is_roundoff(self, params, sb, bundles):
        # from the principal's information: output plus the contract, and J_0;
        # the stored noise goes unread and the later states are only compared
        blind = dataclasses.replace(bundles, dw=np.full_like(bundles.dw, np.nan))
        noise, state, excluded = reconstruction_report(params, sb, blind)
        assert math.isnan(noise) and excluded == 0
        assert state == reconstruction_report(params, sb, bundles)[1] <= 1e-12

    def test_nan_output_is_out_of_range(self, params, sb, bundles):
        # a NaN output makes the rebuilt state NaN: rejected, not counted as
        # a zero-effort exclusion
        x = bundles.x.copy()
        x[bundles.starts[np.argmax(bundles.steps >= 2)] + 1] = math.nan  # not a path's last node
        with pytest.raises(PolicyOutOfRange):
            reconstruction_report(params, sb, dataclasses.replace(bundles, x=x))

    def test_zero_effort_step_is_degenerate(self, params, sb):
        lazy = dataclasses.replace(sb, a_star=np.zeros_like(sb.a_star))
        table = simulate_paths(params, lazy, 0.1, SimConfig(horizon=0.05, n_paths=20, seed=4))
        assert reconstruction_report(params, lazy, table) == (0.0, 0.0, len(table))
