import hashlib
import math
import multiprocessing
import os
import pickle
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from gridmanip import harness
from gridmanip.gridsim import (Action, ConfigError, Primitive, TaskConfig,
                               TaskKind)
from gridmanip.harness import (ABLATION_VARIANTS, EpisodeSummary, RunConfig,
                               derive_seed, evaluate, fan_out,
                               ideal_actions, run_ablation, train,
                               variant_config)
from gridmanip.qfunc import (QNetwork, TrainHyper, TrainingDivergence,
                             build_target_map, compute_target, robust_loss)
from gridmanip.reward import RewardParams, step_reward, tpg_reward_map

from test_policy import eager_select_action


def small_config(**kw):
    task = TaskConfig(kind=TaskKind.BLOCK_STACKING, n_blocks=4,
                      goal_stack_height=2, width=7, height=7,
                      allowed_primitives=(Primitive.PICK, Primitive.PLACE))
    defaults = dict(task=task, train_steps=80, eval_runs=4, seed=0,
                    checkpoint_every=0)
    defaults.update(kw)
    return RunConfig(**defaults)


def clutter_config(**kw):
    task = TaskConfig(kind=TaskKind.CLUTTER_REMOVAL, n_blocks=3,
                      width=7, height=7,
                      allowed_primitives=(Primitive.PUSH, Primitive.PICK))
    defaults = dict(task=task, train_steps=40, eval_runs=5, seed=1,
                    checkpoint_every=0)
    defaults.update(kw)
    return RunConfig(**defaults)


def dead_end_config(**kw):
    """One block on a 4x1 strip, push only, one rotation: every episode is
    push x0->x2, push x2->x3, and then no valid action is left."""
    task = TaskConfig(kind=TaskKind.SCRIPTED_ARRANGEMENT, n_blocks=0,
                      width=4, height=1, rotations=1, layout="1...",
                      allowed_primitives=(Primitive.PUSH,))
    defaults = dict(task=task, seed=0, checkpoint_every=0)
    defaults.update(kw)
    return RunConfig(**defaults)


def net_digest(net):
    h = hashlib.sha256()
    for name, arr in net.param_arrays():
        h.update(name.encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def oracle_pick_net(rotations=4):
    """Hand-built network whose pick map equals the occupancy channel and
    whose other maps are identically zero."""
    net = QNetwork.init(np.random.default_rng(0), hidden_channels=16,
                        rotations=rotations)
    for prim in net.stacks:
        stack = net.stacks[prim]
        for name, arr in stack.params().items():
            arr[:] = 0.0
    pick = net.stacks[Primitive.PICK]
    pick.w1[0, 0, 1, 1] = 1.0          # channel 0 = occupancy, centre tap
    pick.w2[0, 0, 1, 1] = 1.0
    pick.w3[0, 0, 0, 0] = 1.0
    return net


class TestSeeds:
    def test_derive_seed_deterministic_and_stream_separated(self):
        assert derive_seed(7, 0) == derive_seed(7, 0)
        assert derive_seed(7, 0) != derive_seed(7, 1)
        assert derive_seed(7, 0, 1) != derive_seed(7, 0, 2)
        assert derive_seed(8, 0) != derive_seed(7, 0)


class TestIdealActions:
    def test_clutter_is_block_count(self):
        assert ideal_actions(clutter_config().task) == 3

    def test_stacking_two_per_level(self):
        task = TaskConfig(kind=TaskKind.BLOCK_STACKING, n_blocks=10,
                          goal_stack_height=4)
        assert ideal_actions(task) == 6


class TestTrain:
    def test_zero_steps_returns_initial_weights(self):
        cfg = small_config(train_steps=0)
        report = train(cfg)
        assert report.records == [] and len(report.success_curve) == 0
        fresh = harness._fresh_network(cfg)
        assert net_digest(report.net) == net_digest(fresh)

    def test_fixed_seed_reproducible(self):
        a = train(small_config())
        b = train(small_config())
        assert a.records == b.records
        assert net_digest(a.net) == net_digest(b.net)
        assert a.final_exploration == b.final_exploration

    def test_seed_changes_trajectory(self):
        a = train(small_config())
        b = train(small_config(seed=5))
        assert a.records != b.records

    def test_records_cover_every_step(self):
        cfg = small_config(train_steps=60)
        report = train(cfg)
        assert [r.step for r in report.records] == list(range(60))

    def test_curve_windows(self):
        cfg = small_config(train_steps=110, window=50)
        report = train(cfg)
        assert len(report.success_curve) == 3
        assert 0.0 <= np.nanmin(report.success_curve)

    def test_epsilon_logged_matches_mode(self):
        cfg = small_config(exploration_kind="decay", train_steps=5)
        report = train(cfg)
        assert report.records[0].epsilon == pytest.approx(0.5)
        cfg2 = small_config(exploration_kind="lae", train_steps=5)
        report2 = train(cfg2)
        assert report2.records[0].epsilon == pytest.approx(
            cfg2.exploration.epsilon)

    def test_checkpoint_callback_cadence(self):
        seen = []
        cfg = small_config(train_steps=40, checkpoint_every=10)
        train(cfg, checkpoint_cb=lambda step, net: seen.append(step))
        assert seen == [10, 20, 30, 40]

    def test_baseline_reward_kind_spike_rewards(self):
        cfg = small_config(reward_kind="baseline", train_steps=30)
        report = train(cfg)
        assert set(round(r.r_tp, 6) for r in report.records) <= {0.0, 1.0}

    def test_report_survives_pickle_round_trip(self):
        report = train(small_config(train_steps=30))
        copy = pickle.loads(pickle.dumps(report))
        assert copy.records == report.records
        assert copy.replay_buffer.dump_records() == \
            report.replay_buffer.dump_records()
        assert net_digest(copy.net) == net_digest(report.net)

    def test_unplayable_task_raises(self):
        # A 2x2 grid full of blocks leaves no push a free cell to go to, so
        # the task is refused before any run starts.
        with pytest.raises(ConfigError, match="task.allowed_primitives=push"):
            TaskConfig(kind=TaskKind.CLUTTER_REMOVAL, n_blocks=4, width=2,
                       height=2, allowed_primitives=(Primitive.PUSH,))

    def test_dead_resets_dropped_until_one_can_act(self):
        # Push only along +x: a reset whose free cell lies in the left
        # column has no valid push.
        task = TaskConfig(kind=TaskKind.CLUTTER_REMOVAL, n_blocks=3, width=2,
                          height=2, rotations=1,
                          allowed_primitives=(Primitive.PUSH,))
        report = train(small_config(task=task, train_steps=30))
        assert [r.step for r in report.records] == list(range(30))
        dead = [ep for ep in report.episodes if ep.actions == 0]
        assert dead
        assert {ep.done_reason for ep in dead} == {"no_valid_action"}

    def test_buffered_prev_action_is_the_row_before(self):
        report = train(small_config(train_steps=120))
        items = report.replay_buffer.items()
        assert len(items) == len(report.records) == 120
        starts = 0
        for i, tr in enumerate(items):
            if i == 0 or report.records[i - 1].done:
                starts += 1
                assert tr.prev_action is None
            else:
                assert tr.prev_action is items[i - 1].action
        assert starts == len(report.episodes) + (not report.records[-1].done)

    def test_train_and_evaluate_leave_the_task_unchanged(self):
        # The scripted layout resolves n_blocks and max_steps when the task
        # is built; running it must not write into the caller's config.
        cfg = dead_end_config(train_steps=7, eval_runs=2)
        before = replace(cfg.task)
        assert (before.n_blocks, before.max_steps) == (1, 8)
        evaluate(train(cfg).net, cfg)
        assert cfg.task == before

    def test_mid_episode_dead_end_drops_the_episode(self):
        cfg = dead_end_config(train_steps=7)
        report = train(cfg)
        assert [r.x for r in report.records] == [0, 2, 0, 2, 0, 2, 0]
        assert [r.step for r in report.records] == list(range(7))
        assert report.episodes == [
            EpisodeSummary(end, 2, "no_valid_action") for end in (2, 4, 6)]

    # A bad part raises as soon as it is built, so parts are given as
    # partials and built inside pytest.raises.
    @pytest.mark.parametrize("bad", [
        dict(replay_capacity=4),
        dict(replay_capacity=0),
        dict(rank_exponent=-0.7),
        dict(window=0),
        dict(hidden_channels=0),
        dict(task=partial(TaskConfig, kind=TaskKind.BLOCK_STACKING, n_blocks=4,
                          goal_stack_height=2, width=8, height=7)),
        dict(reward_kind="nope"),
        dict(exploration_kind="nope"),
        dict(hyper=partial(TrainHyper, loss_scale=0.0)),
        dict(hyper=partial(TrainHyper, lr=-1.0)),
        dict(hyper=partial(TrainHyper, momentum=1.5)),
        dict(hyper=partial(TrainHyper, gamma=-2.0)),
        dict(task=partial(TaskConfig, kind=TaskKind.BLOCK_STACKING, n_blocks=4,
                          goal_stack_height=2, width=7, height=7,
                          fail_limit=0)),
        dict(task=partial(TaskConfig, kind=TaskKind.BLOCK_STACKING, n_blocks=4,
                          goal_stack_height=2, width=7, height=7,
                          push_distance=0)),
        dict(decay_rate=1.5),
        dict(decay_floor=0.9),
        dict(checkpoint_every=-5),
    ])
    def test_out_of_range_run_config_rejected(self, bad):
        def built():
            return {k: v() if callable(v) else v for k, v in bad.items()}
        with pytest.raises(ValueError):
            small_config(**built())
        with pytest.raises(ValueError):
            train(small_config(**built()))

    def test_decay_schedule_may_reach_epsilon_one(self):
        # decay_floor + decay_span == 1 is a valid schedule that starts at 1.
        cfg = small_config(exploration_kind="decay", decay_floor=0.6,
                           decay_span=0.4, train_steps=5)
        assert train(cfg).records[0].epsilon == 1.0

    @pytest.mark.parametrize("exploration", [
        dict(),
        # epsilon fixed at 1: every step explores
        dict(exploration_kind="decay", decay_floor=1.0, decay_span=0.0),
    ], ids=["lae", "epsilon_one"])
    def test_lazy_maps_equal_eager_oracle(self, exploration, monkeypatch):
        cfg = small_config(train_steps=200, **exploration)
        map_sets = []
        real_forward_all = harness.forward_all

        def counted(*args):
            map_sets.append(args)
            return real_forward_all(*args)

        monkeypatch.setattr(harness, "forward_all", counted)
        lazy = train(cfg)
        lazy_map_sets = len(map_sets)
        # The oracle computes every map on every step, then selects as
        # selection did before the maps became lazy.
        monkeypatch.setattr(
            harness, "select_action",
            lambda q_maps, q_one, masks, rotations, epsilon, rng:
            eager_select_action(q_maps(), masks, epsilon, rng))
        eager = train(cfg)
        assert len(map_sets) - lazy_map_sets == 200
        assert lazy.records == eager.records
        assert lazy.episodes == eager.episodes
        assert net_digest(lazy.net) == net_digest(eager.net)
        assert lazy.final_exploration == eager.final_exploration
        if exploration:
            assert lazy_map_sets == 0
        else:
            assert 0 < lazy_map_sets < 200

    def test_reward_scale_bounded(self):
        # weight x max(1, kernel peak) x (1 + gamma): 1e200 x 1 x 1.5 is over
        # the limit, 1e100 x 1 x 1.5 under it.
        with pytest.raises(ConfigError, match="reward.weight_push=1e"):
            small_config(reward=RewardParams(
                weights={p: 1e200 for p in Primitive}))
        small_config(reward=RewardParams(weights={p: 1e100 for p in Primitive}))
        # With sigma_y=0.1 and anisotropy 1 the peak is 1/(0.02 pi), ~15.9.
        peaky = dict(sigma_y=0.1, anisotropy=1.0)
        hyper = TrainHyper(gamma=1.0)
        weight = 0.99 * harness.REWARD_SCALE_LIMIT / (2.0 / (0.02 * math.pi))
        with pytest.raises(ConfigError, match="reward scale"):
            small_config(hyper=hyper, reward=RewardParams(
                weights={p: 1.02 * weight for p in Primitive}, **peaky))
        cfg = small_config(hyper=hyper, reward=RewardParams(
            weights={p: weight for p in Primitive}, **peaky))
        # At the limit, the largest reward and target keep build_target_map's
        # product and the loss's square finite, with room to spare.
        action = Action(Primitive.PICK, 3, 3, 0, 0.0)
        r_tp = step_reward(Primitive.PICK, 1, 1.0, 0.0, cfg.reward)
        rmap = tpg_reward_map(r_tp, (3, 3, 0.0), cfg.reward, (7, 7))
        y = compute_target(r_tp, r_tp, cfg.hyper.gamma)
        assert (y * rmap.grid).max() < 1e250
        targets = build_target_map(rmap, action, y)
        losses, _ = robust_loss(-targets, cfg.hyper.loss_alpha,
                                cfg.hyper.loss_scale)
        assert np.isfinite(losses).all() and losses.max() > 1e100

    def test_tiny_loss_scale_bounded(self):
        # The reward scale over min(1, loss_scale): 1.5 / 1e-200 is over the
        # limit, 1.5 / 1e-100 under it.
        with pytest.raises(ConfigError, match="network.loss_scale=1e-200"):
            small_config(hyper=TrainHyper(loss_scale=1e-200))
        small_config(hyper=TrainHyper(loss_scale=1e-100))
        # Tiny weights keep the scale small, but loss_scale squared must not
        # underflow to 0: the loss divides by it.
        tiny = RewardParams(weights={p: 1e-200 for p in Primitive})
        assert 1e-170 * 1e-170 == 0.0
        with pytest.raises(ConfigError, match="loss_scale"):
            small_config(reward=tiny, hyper=TrainHyper(loss_scale=1e-170))
        small_config(reward=tiny, hyper=TrainHyper(loss_scale=1e-150))

    def test_invalid_kind_rejected(self):
        with pytest.raises(ValueError):
            train(small_config(reward_kind="bogus"))
        with pytest.raises(ValueError):
            train(small_config(exploration_kind="bogus"))


class TestEvaluate:
    def test_oracle_policy_perfect_metrics(self):
        cfg = clutter_config(eval_runs=6)
        metrics = evaluate(oracle_pick_net(), cfg)
        assert metrics.completion_rate == 1.0
        assert metrics.pick_success == 1.0
        assert metrics.action_efficiency == 1.0
        assert all(r.actions == 3 for r in metrics.runs)

    def test_completion_rate_is_completed_over_runs(self):
        cfg = small_config(eval_runs=6)
        metrics = evaluate(harness._fresh_network(cfg), cfg)
        completed = sum(r.completed for r in metrics.runs)
        assert metrics.completion_rate == pytest.approx(completed / 6)
        assert len(metrics.runs) == 6

    def test_zero_completions_reports_absent_metrics(self):
        # On a stacking task the pick-chasing oracle lifts a block and then
        # keeps trying to pick while holding: ten straight failures per run.
        cfg = small_config(eval_runs=3)
        metrics = evaluate(oracle_pick_net(), cfg)
        assert metrics.completion_rate == 0.0
        assert metrics.pick_success is None
        assert metrics.action_efficiency is None
        assert all(r.done_reason == "fail_streak" for r in metrics.runs)

    def test_evaluation_purity(self):
        cfg = small_config(eval_runs=3)
        net = harness._fresh_network(cfg)
        before = net_digest(net)
        evaluate(net, cfg)
        assert net_digest(net) == before

    def test_evaluation_deterministic(self):
        cfg = small_config(eval_runs=4)
        net = harness._fresh_network(cfg)
        a = evaluate(net, cfg)
        b = evaluate(net, cfg)
        assert [r.done_reason for r in a.runs] == [r.done_reason for r in b.runs]
        assert a.completion_rate == b.completion_rate
        assert [rec for run in a.runs for rec in run.records] == \
            [rec for run in b.runs for rec in run.records]

    def test_efficiency_example_ratio(self):
        # a completed goal-4 stacking run of 8 actions scores 6/8
        task = TaskConfig(kind=TaskKind.BLOCK_STACKING, n_blocks=10,
                          goal_stack_height=4)
        assert ideal_actions(task) / 8 == pytest.approx(0.75)

    def test_dead_end_ends_the_run(self):
        cfg = dead_end_config(eval_runs=3)
        metrics = evaluate(harness._fresh_network(cfg), cfg)
        assert [(r.done_reason, r.actions, len(r.records))
                for r in metrics.runs] == [("no_valid_action", 2, 2)] * 3
        assert [rec.x for rec in metrics.runs[0].records] == [0, 2]
        assert metrics.completion_rate == 0.0

    def test_nan_network_ends_every_run_without_action(self):
        # NaN Q maps leave greedy selection nothing to pick, although the
        # masks offer valid poses.
        cfg = small_config(eval_runs=2)
        net = harness._fresh_network(cfg)
        for stack in net.stacks.values():
            stack.b3[:] = np.nan
        metrics = evaluate(net, cfg)
        assert [(r.done_reason, r.actions, r.records) for r in metrics.runs] \
            == [("no_valid_action", 0, [])] * 2

    def test_run_traces_present(self):
        cfg = small_config(eval_runs=2)
        metrics = evaluate(harness._fresh_network(cfg), cfg)
        for run in metrics.runs:
            assert run.records
            assert run.actions == len(run.records)
            assert run.records[-1].done or run.done_reason == "no_valid_action"


class TestAblation:
    def test_variant_configs_differ_only_in_kinds(self):
        cfg = small_config()
        base = variant_config(cfg, "baseline")
        tpgr = variant_config(cfg, "tpgr")
        full = variant_config(cfg, "full")
        assert (base.reward_kind, base.exploration_kind) == ("baseline", "decay")
        assert (tpgr.reward_kind, tpgr.exploration_kind) == ("tpg", "decay")
        assert (full.reward_kind, full.exploration_kind) == ("tpg", "lae")
        assert replace(base, reward_kind="tpg") == tpgr
        assert replace(tpgr, exploration_kind="lae") == full

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            variant_config(small_config(), "extra")

    def test_ladder_runs_and_aligns(self):
        cfg = small_config(train_steps=60, eval_runs=2)
        out = list(run_ablation(cfg))
        assert [name for name, _, _ in ABLATION_VARIANTS] == \
            [entry.name for entry in out]
        lengths = {len(entry.report.success_curve) for entry in out}
        assert len(lengths) == 1
        for entry in out:
            assert len(entry.report.records) == 60
            assert 0.0 <= entry.metrics.completion_rate <= 1.0


def stack3_config(**kw):
    task = TaskConfig(kind=TaskKind.BLOCK_STACKING, n_blocks=4,
                      goal_stack_height=3, width=6, height=6,
                      allowed_primitives=(Primitive.PUSH, Primitive.PICK,
                                          Primitive.PLACE))
    defaults = dict(task=task, train_steps=60, eval_runs=5, seed=2,
                    checkpoint_every=0)
    defaults.update(kw)
    return RunConfig(**defaults)


def _fail_on_three(item):
    if item == 3:
        raise ValueError("item 3")
    return item


def _die_on_three(item):
    if item == 3:
        os._exit(1)
    return item


def _use_cpus(monkeypatch, cpus):
    """With 2 CPUs, fan_out forks whenever two or more calls follow the
    first; with 1 it never does."""
    monkeypatch.setattr(harness, "usable_cpus", lambda: cpus)
    monkeypatch.setattr(harness, "POOL_START_S", 0.0)


@pytest.fixture
def forked(monkeypatch):
    _use_cpus(monkeypatch, 2)


def _diverge_full(monkeypatch):
    """Make training of the last rung (the only LAE one) diverge."""
    real_train = harness.train

    def train(cfg, checkpoint_cb=None):
        if cfg.exploration_kind == "lae":
            raise TrainingDivergence("non-finite training loss nan")
        return real_train(cfg, checkpoint_cb)
    monkeypatch.setattr(harness, "train", train)


class TestParallel:
    """Forked workers give exactly the serial results."""

    @pytest.mark.parametrize("make_cfg", [
        stack3_config,
        lambda: clutter_config(eval_runs=5),
        lambda: dead_end_config(eval_runs=5),
    ], ids=["stack3", "clutter", "dead_end"])
    def test_evaluate_forked_equals_serial(self, make_cfg, monkeypatch):
        cfg = make_cfg()
        net = train(replace(cfg, train_steps=30)).net
        _use_cpus(monkeypatch, 1)
        serial = evaluate(net, cfg)
        _use_cpus(monkeypatch, 2)
        parallel = evaluate(net, cfg)
        assert parallel == serial   # every EvalRun and StepRecord, by field
        assert not multiprocessing.active_children()

    def test_ablation_forked_equals_serial_in_ladder_order(self, monkeypatch):
        cfg = small_config(train_steps=40, eval_runs=3)
        out = {}
        for path, cpus in (("serial", 1), ("forked", 2)):
            _use_cpus(monkeypatch, cpus)
            out[path] = list(run_ablation(cfg))
        ladder = [name for name, _, _ in ABLATION_VARIANTS]
        assert [e.name for e in out["serial"]] == \
            [e.name for e in out["forked"]] == ladder
        for serial, parallel in zip(out["serial"], out["forked"]):
            assert parallel.cfg == serial.cfg
            assert parallel.metrics == serial.metrics
            assert parallel.report.records == serial.report.records
            assert parallel.report.episodes == serial.report.episodes
            np.testing.assert_array_equal(parallel.report.success_curve,
                                          serial.report.success_curve)
            np.testing.assert_array_equal(parallel.report.efficiency_curve,
                                          serial.report.efficiency_curve)
            assert net_digest(parallel.report.net) == \
                net_digest(serial.report.net)
            assert parallel.report.replay_buffer is None
        assert not multiprocessing.active_children()

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_ablation_reports_variants_before_a_later_one_fails(
            self, cpus, monkeypatch):
        _use_cpus(monkeypatch, cpus)
        _diverge_full(monkeypatch)
        done = []
        with pytest.raises(TrainingDivergence):
            for entry in run_ablation(small_config(train_steps=20,
                                                   eval_runs=2)):
                done.append(entry.name)
        assert done == ["baseline", "tpgr"]
        assert not multiprocessing.active_children()

    def test_fan_out_keeps_order_and_forks_the_function(self, forked):
        offset = 100    # a lambda cannot be pickled; the fork carries it
        out = list(fan_out(lambda item: (item + offset, os.getpid()),
                           range(7)))
        assert [value for value, _ in out] == list(range(100, 107))
        assert out[0][1] == os.getpid()     # the first call sets the pace
        assert os.getpid() not in {pid for _, pid in out[1:]}
        assert not multiprocessing.active_children()

    def test_quick_calls_stay_in_process(self, monkeypatch):
        monkeypatch.setattr(harness, "usable_cpus", lambda: 2)
        assert {pid for pid in fan_out(lambda _: os.getpid(), range(5))} == \
            {os.getpid()}

    def test_workers_do_not_fork_again(self, forked):
        def inner_pids(_):
            return {pid for pid in fan_out(lambda _: os.getpid(), range(4))}
        outer = list(fan_out(lambda item: (os.getpid(), inner_pids(item)),
                             range(3)))
        assert outer[0][0] == os.getpid()
        for pid, inner in outer[1:]:   # in a worker
            assert inner == {pid}
        assert not multiprocessing.active_children()

    def test_wrapped_loop_call_keeps_evaluation_in_process(
            self, forked, monkeypatch):
        calls = []
        real_step = harness.gridsim.step

        def step(ws, action):
            calls.append(action)
            return real_step(ws, action)
        monkeypatch.setattr(harness.gridsim, "step", step)
        cfg = small_config(eval_runs=4)
        metrics = evaluate(harness._fresh_network(cfg), cfg)
        assert len(calls) == sum(run.actions for run in metrics.runs)

    def test_worker_error_raised_and_pool_joined(self, forked):
        with pytest.raises(ValueError, match="item 3"):
            list(fan_out(_fail_on_three, range(6)))
        assert not multiprocessing.active_children()

    def test_dead_worker_raises_instead_of_hanging(self, forked):
        with pytest.raises(BrokenProcessPool):
            list(fan_out(_die_on_three, range(6)))
        assert not multiprocessing.active_children()
