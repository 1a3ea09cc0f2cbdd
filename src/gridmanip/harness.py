"""Training, evaluation and the three-rung ablation ladder.

Training is strictly sequential: each step's network input depends on the
previous action's Q prediction. Every random draw flows from named
SeedSequence streams of the run seed, so a (config, seed) pair fully
determines all logged numbers. Evaluation runs greedy episodes on frozen
weights: it runs ``forward_all`` on every step but never updates a weight.
Evaluation runs and ablation variants depend only on their own seed or
variant, so ``fan_out`` may spread them over forked workers without changing
a bit of the results.
"""

import itertools
import math
import os
import time
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from . import gridsim
from .gridsim import (ConfigError, DoneReason, Primitive, TaskConfig,
                      TaskKind, check_value, theta_radians, valid_action_mask)
from .policy import (ExplorationState, NoValidActionError, epsilon_greedy_decay,
                     greedy_action, select_action, update_exploration)
from .qfunc import (QNetwork, TrainHyper, compute_target, forward_all,
                    forward_one, train_step)
from .replay import ReplayBuffer, Transition
from .reward import (RewardParams, baseline_reward, spike_reward_map,
                     step_reward, tpg_reward_map)

REWARD_KINDS = ("tpg", "baseline")
EXPLORATION_KINDS = ("lae", "decay")
# Bound on the largest reward weight x max(1, kernel peak) x (1 + gamma),
# which bounds the reward map's peak and every target, over min(1,
# loss_scale). build_target_map's y * values then stays below its square,
# 1e240, as does the robust loss's square of a target over loss_scale: far
# below the float64 maximum, 1.8e308. The loss also divides by loss_scale
# squared, which must not underflow to 0.
REWARD_SCALE_LIMIT = 1e120

# SeedSequence stream tags.
_STREAM_EPISODE = 0
_STREAM_POLICY = 1
_STREAM_REPLAY = 2
_STREAM_INIT = 3
_STREAM_EVAL = 4


def derive_seed(seed, stream, index=0):
    return int(np.random.SeedSequence([seed, stream, index])
               .generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class RunConfig:
    """Everything one run reads. Each part checks its own fields when it is
    built; this checks its own and the rules that span parts."""
    task: TaskConfig
    reward: RewardParams = field(default_factory=RewardParams)
    exploration: ExplorationState = field(default_factory=ExplorationState)
    hyper: TrainHyper = field(default_factory=TrainHyper)
    reward_kind: str = "tpg"
    exploration_kind: str = "lae"
    decay_floor: float = 0.1
    decay_span: float = 0.4
    decay_rate: float = 0.9998
    hidden_channels: int = 16
    batch_size: int = 8
    replay_capacity: int = 2000
    rank_exponent: float = 0.7
    train_steps: int = 2000
    eval_runs: int = 30
    seed: int = 0
    checkpoint_every: int = 500
    window: int = 100

    def __post_init__(self):
        if self.reward_kind not in REWARD_KINDS:
            raise ConfigError(f"reward.kind={self.reward_kind!r} must be one of "
                              f"{', '.join(REWARD_KINDS)}")
        if self.exploration_kind not in EXPLORATION_KINDS:
            raise ConfigError(f"policy.kind={self.exploration_kind!r} must be "
                              f"one of {', '.join(EXPLORATION_KINDS)}")
        if self.batch_size < 1 or self.train_steps < 0 or self.eval_runs < 1:
            raise ConfigError("batch_size/train_steps/eval_runs out of range")
        if self.replay_capacity < self.batch_size:
            raise ConfigError(
                f"replay.capacity={self.replay_capacity} is below "
                f"network.batch_size={self.batch_size}; no batch could be drawn")
        check_value("network.hidden_channels", self.hidden_channels,
                    self.hidden_channels >= 1, ">= 1")
        check_value("replay.rank_exponent", self.rank_exponent,
                    0 <= self.rank_exponent < math.inf, "finite and >= 0")
        check_value("run.seed", self.seed, self.seed >= 0, ">= 0")
        check_value("run.window", self.window, self.window >= 1, ">= 1")
        check_value("run.checkpoint_every", self.checkpoint_every,
                    self.checkpoint_every >= 0,
                    ">= 0 (0: no periodic checkpoint)")
        weight = max(self.reward.weights.values())
        c = self.hyper.loss_scale
        scale = (weight * max(1.0, self.reward.kernel_peak)
                 * (1.0 + self.hyper.gamma)) / min(1.0, c)
        if not (scale <= REWARD_SCALE_LIMIT and c * c > 0):
            key = next(f"reward.weight_{p.value}"
                       for p, w in self.reward.weights.items() if w == weight)
            raise ConfigError(
                f"{key}={weight} with network.loss_scale={c} gives a reward "
                f"scale of {scale:g} (weight x max(1, kernel peak) x (1 + "
                f"network.gamma) / min(1, network.loss_scale)); it must be <= "
                f"{REWARD_SCALE_LIMIT:g}, with network.loss_scale**2 > 0, or "
                "targets and the loss overflow")
        floor, span = self.decay_floor, self.decay_span
        check_value("policy.decay_rate", self.decay_rate,
                    0 <= self.decay_rate <= 1, "in [0, 1]")
        check_value("policy.decay_span", span, span >= 0, ">= 0")
        check_value("policy.decay_floor", floor,
                    0 <= floor and floor + span <= 1,
                    ">= 0, with policy.decay_floor + policy.decay_span <= 1 "
                    "(epsilon is a probability)")


@dataclass(frozen=True)
class StepRecord:
    step: int
    primitive: str
    x: int
    y: int
    theta_index: int
    q_value: float
    success: int
    progress: float
    r_tp: float
    y_target: float | None
    loss: float | None
    epsilon: float
    done: bool
    done_reason: str


@dataclass
class EpisodeSummary:
    end_step: int
    actions: int
    done_reason: str


@dataclass
class TrainReport:
    records: list
    episodes: list
    success_curve: np.ndarray
    efficiency_curve: np.ndarray
    net: QNetwork
    final_exploration: ExplorationState
    replay_buffer: ReplayBuffer | None    # None in ablation entries


@dataclass
class EvalRun:
    completed: bool
    done_reason: str
    actions: int
    picks_attempted: int
    picks_succeeded: int
    tallest_stack_picks: int
    records: list


@dataclass
class Metrics:
    completion_rate: float
    pick_success: float | None
    action_efficiency: float | None
    runs: list


def ideal_actions(task: TaskConfig) -> int:
    """Minimum actions to finish the task in this simulator."""
    if task.kind is TaskKind.BLOCK_STACKING:
        return 2 * (task.goal_stack_height - 1)
    return task.n_blocks


def _fresh_network(cfg: RunConfig) -> QNetwork:
    rng = np.random.default_rng(derive_seed(cfg.seed, _STREAM_INIT))
    return QNetwork.init(rng, hidden_channels=cfg.hidden_channels,
                         rotations=cfg.task.rotations)


def _reward_for_step(cfg, action, success, progress, prev_progress, shape):
    if cfg.reward_kind == "tpg":
        r_tp = step_reward(action.primitive, success, progress, prev_progress,
                           cfg.reward)
        theta = theta_radians(action.theta_index, cfg.task.rotations)
        rmap = tpg_reward_map(r_tp, (action.x, action.y, theta), cfg.reward, shape)
    else:
        r_tp = baseline_reward(success)
        rmap = spike_reward_map(r_tp, (action.x, action.y), shape)
    return r_tp, rmap


def _play(net, task: TaskConfig, seeds, choose):
    """The episode-step loop that training and evaluation share.

    For each seed: reset the world, then step until the episode ends. A step
    builds the validity masks, picks an action with
    ``choose(ws, q_maps, q_one, masks)`` and executes it. Only ``choose``
    runs the network: ``q_maps()`` gives the Q maps of the primitives with a
    valid pose, ``q_one(primitive, r)`` one rotation of one primitive's.
    Yields ``(ws, obs, prev, progress, action, result)``, where obs, the
    previous action ``prev`` (None at the episode's start) and progress are
    what the action was chosen from. ``TaskConfig`` admits only tasks that
    allow pick, so some pose is valid at every step; when ``choose`` still
    returns None (greedy evaluation over NaN Q maps), the step yields
    ``action = result = None`` and ends the episode.
    """
    for seed in seeds:
        ws, obs = gridsim.reset(task, seed)
        prev = None
        progress = gridsim.task_progress(ws)
        while True:
            masks = {p: valid_action_mask(ws, p) for p in task.allowed_primitives}
            actable = [p for p, m in masks.items() if m.any()]
            action = choose(ws, partial(forward_all, net, obs, prev, actable),
                            partial(forward_one, net, obs, prev), masks)
            result = None if action is None else gridsim.step(ws, action)
            yield ws, obs, prev, progress, action, result
            if result is None or result.done:
                break
            obs = result.next_observation
            prev = action
            progress = result.progress


def _step_record(step, action, result, r_tp=0.0, y_target=None, loss=None,
                 epsilon=0.0):
    return StepRecord(
        step=step, primitive=action.primitive.value, x=action.x, y=action.y,
        theta_index=action.theta_index, q_value=action.q_value,
        success=result.primitive_success, progress=result.progress,
        r_tp=r_tp, y_target=y_target, loss=loss, epsilon=epsilon,
        done=result.done,
        done_reason=result.done_reason.value if result.done_reason else "")


def _exploration(cfg, lae, step_i):
    """The epsilon training acts with at step_i: the LAE state's, or the
    decay schedule's (which may reach 1)."""
    if cfg.exploration_kind == "lae":
        return lae.epsilon
    return epsilon_greedy_decay(step_i, cfg.decay_floor, cfg.decay_span,
                                cfg.decay_rate)


def train(cfg: RunConfig, checkpoint_cb=None) -> TrainReport:
    """Run the training loop for cfg.train_steps actions. Every step acts:
    the task allows pick, so some pose is always valid, and an epsilon draw
    or an argmax over finite Q maps always finds it.

    ``checkpoint_cb(step, net)``, when given, is invoked every
    cfg.checkpoint_every steps (the CLI uses it to write checkpoint files).
    """
    shape = (cfg.task.height, cfg.task.width)
    net = _fresh_network(cfg)
    policy_rng = np.random.default_rng(derive_seed(cfg.seed, _STREAM_POLICY))
    replay_rng = np.random.default_rng(derive_seed(cfg.seed, _STREAM_REPLAY))
    buffer = ReplayBuffer(capacity=cfg.replay_capacity,
                          rank_exponent=cfg.rank_exponent,
                          max_height=cfg.task.n_blocks)
    lae = cfg.exploration
    seeds = (derive_seed(cfg.seed, _STREAM_EPISODE, episode)
             for episode in itertools.count())
    # The policy reads eps when it is called: the current step's.
    steps = _play(net, cfg.task, seeds, lambda ws, q_maps, q_one, masks:
                  select_action(q_maps, q_one, masks, cfg.task.rotations, eps,
                                policy_rng))
    records, episodes = [], []
    step_i = 0

    while step_i < cfg.train_steps:
        eps = _exploration(cfg, lae, step_i)
        ws, obs, prev, prev_progress, action, result = next(steps)
        r_tp, rmap = _reward_for_step(cfg, action, result.primitive_success,
                                      result.progress, prev_progress, shape)
        y_target = None
        if buffer.has_pending:
            y_target = compute_target(buffer.pending_reward(), r_tp,
                                      cfg.hyper.gamma)
            buffer.finalize_pending(r_tp)
        buffer.push(Transition(observation=obs, prev_action=prev,
                               action=action, r_t=r_tp, reward_map=rmap))
        if result.done:
            buffer.finalize_pending(0.0)

        loss = None
        if buffer.sampleable_count() >= cfg.batch_size:
            ids = buffer.sample(cfg.batch_size, replay_rng)
            loss, per_losses = train_step(net, buffer.rows(ids), cfg.hyper)
            buffer.update_priorities(ids, per_losses)
            if cfg.exploration_kind == "lae":
                lae = update_exploration(lae, loss)

        records.append(_step_record(step_i, action, result, r_tp=r_tp,
                                    y_target=y_target, loss=loss, epsilon=eps))
        if checkpoint_cb and cfg.checkpoint_every > 0 \
                and (step_i + 1) % cfg.checkpoint_every == 0:
            checkpoint_cb(step_i + 1, net)
        if result.done:
            episodes.append(EpisodeSummary(step_i, ws.step_count,
                                           result.done_reason.value))
        step_i += 1

    success_curve, efficiency_curve = _learning_curves(cfg, records, episodes)
    return TrainReport(records=records, episodes=episodes,
                       success_curve=success_curve,
                       efficiency_curve=efficiency_curve,
                       net=net, final_exploration=lae, replay_buffer=buffer)


def _learning_curves(cfg, records, episodes):
    """Windowed action success rate and completed-episode action efficiency
    (nan for windows without a completion)."""
    n_windows = math.ceil(len(records) / cfg.window) if records else 0
    success = np.full(n_windows, np.nan)
    efficiency = np.full(n_windows, np.nan)
    ideal = ideal_actions(cfg.task)
    effs = [[] for _ in range(n_windows)]     # per window, in episode order
    for ep in episodes:
        if ep.done_reason == DoneReason.GOAL.value:
            effs[ep.end_step // cfg.window].append(ideal / ep.actions)
    for k in range(n_windows):
        chunk = records[k * cfg.window:(k + 1) * cfg.window]
        success[k] = float(np.mean([r.success for r in chunk]))
        if effs[k]:
            efficiency[k] = float(np.mean(effs[k]))
    return success, efficiency


def _eval_run(net: QNetwork, task: TaskConfig, seed: int) -> EvalRun:
    """One greedy run from a fresh reset with ``seed``."""
    tallest = []    # per pick: at the tallest (2+) stack?

    def choose(ws, q_maps, _, masks):
        try:
            action = greedy_action(q_maps(), masks)
        except NoValidActionError:
            return None
        if action.primitive is Primitive.PICK:
            tallest.append(bool(ws.heights[action.y, action.x]
                                == ws.heights.max() >= 2))
        return action

    records = []
    for ws, _, _, _, action, result in _play(net, task, [seed], choose):
        if action is not None:
            records.append(_step_record(ws.step_count - 1, action, result))
    reason = "no_valid_action" if action is None else result.done_reason.value
    picks = [r.success for r in records if r.primitive == Primitive.PICK.value]
    return EvalRun(completed=reason == DoneReason.GOAL.value,
                   done_reason=reason, actions=ws.step_count,
                   picks_attempted=len(picks), picks_succeeded=sum(picks),
                   tallest_stack_picks=sum(tallest), records=records)


def evaluate(net: QNetwork, cfg: RunConfig) -> Metrics:
    """Greedy deterministic evaluation over cfg.eval_runs fresh seeds.

    Weights are read-only; a run completes iff the task goal is reached
    before a fail streak or the step budget ends the episode. Runs are
    independent, so ``fan_out`` may spread them over forked workers with the
    same result.
    """
    seeds = [derive_seed(cfg.seed, _STREAM_EVAL, run_i)
             for run_i in range(cfg.eval_runs)]
    runs = list(fan_out(partial(_eval_run, net, cfg.task), seeds))

    completed = [r for r in runs if r.completed]
    completion_rate = len(completed) / len(runs)
    with_picks = [r for r in completed if r.picks_attempted > 0]
    pick_success = (float(np.mean([r.picks_succeeded / r.picks_attempted
                                   for r in with_picks]))
                    if with_picks else None)
    ideal = ideal_actions(cfg.task)
    action_efficiency = (float(np.mean([ideal / r.actions for r in completed]))
                         if completed else None)
    return Metrics(completion_rate=completion_rate, pick_success=pick_success,
                   action_efficiency=action_efficiency, runs=runs)


ABLATION_VARIANTS = (
    ("baseline", "baseline", "decay"),
    ("tpgr", "tpg", "decay"),
    ("full", "tpg", "lae"),
)


def variant_config(cfg: RunConfig, name: str) -> RunConfig:
    for variant, reward_kind, exploration_kind in ABLATION_VARIANTS:
        if variant == name:
            return replace(cfg, reward_kind=reward_kind,
                           exploration_kind=exploration_kind)
    raise ValueError(f"unknown ablation variant {name!r}")


@dataclass
class AblationEntry:
    name: str
    cfg: RunConfig
    report: TrainReport
    metrics: Metrics


def ablation_entry(cfg: RunConfig, name: str) -> AblationEntry:
    """Train and evaluate one rung of the ladder; its replay buffer is
    dropped, since no caller reads it and a worker would pickle it back."""
    vcfg = variant_config(cfg, name)
    report = replace(train(vcfg), replay_buffer=None)
    return AblationEntry(name=name, cfg=vcfg, report=report,
                         metrics=evaluate(report.net, vcfg))


def run_ablation(cfg: RunConfig):
    """Yield each rung's AblationEntry in ladder order, as soon as it and the
    rungs before it are done; the rungs share cfg's seeds."""
    return fan_out(partial(ablation_entry, cfg),
                   [name for name, _, _ in ABLATION_VARIANTS])


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one (so ``taskset -c 0`` gives 1), else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# What a two-worker fork pool costs beyond the work it splits: start-up,
# shutdown and the workers' copy-on-write faults. Measured on a 2-vCPU cloud
# VM (Python 3.11) in a process that had just trained the default config: a
# 29-run greedy evaluation took 60 ms in-process and 104 ms forked, 74 ms
# over half the serial time. fan_out forks only when that is bought back.
POOL_START_S = 0.1


def _loop_calls():
    return forward_all, valid_action_mask, gridsim.reset, gridsim.step


# What the episode loop calls, as imported. A tracer that wraps one of them
# records only the calls made in its own process.
_LOOP_CALLS = _loop_calls()

_worker_fn = None   # set in each forked worker by _init_worker


def _init_worker(fn):
    global _worker_fn
    _worker_fn = fn


def _call_worker(item):
    return _worker_fn(item)


def _may_fork():
    """Not inside a worker (its pool already holds the CPUs), not while an
    episode-loop call is wrapped, and only where ``fork`` exists."""
    if _worker_fn is not None or _loop_calls() != _LOOP_CALLS:
        return False
    import multiprocessing
    return "fork" in multiprocessing.get_all_start_methods()


def fan_out(fn, items):
    """Yield ``fn(item)`` for each item, in input order, each as soon as it
    and the ones before it are done.

    The first call runs in this process and sets the pace. If the remaining
    calls at that pace would save more than POOL_START_S by running on all
    usable CPUs, and ``_may_fork()``, they go to a pool of that many worker
    processes started by ``fork``; otherwise they run here too. ``fn``
    reaches the workers through the fork, never through pickling, so it may
    close over large read-only state such as a network; only items and
    results are pickled. Each call must depend on nothing but its item, so
    the results equal the serial ones. The pool is shut down and its workers
    joined before the generator finishes or is closed. A call that raises,
    or a worker that dies (BrokenProcessPool), raises here once the calls
    already running have ended.
    """
    items = list(items)
    if not items:
        return
    start = time.perf_counter()
    first = fn(items[0])
    pace = time.perf_counter() - start
    yield first
    rest = items[1:]
    jobs = min(usable_cpus(), len(rest))
    if jobs < 2 or pace * len(rest) * (1 - 1 / jobs) < POOL_START_S \
            or not _may_fork():
        for item in rest:
            yield fn(item)
        return
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(jobs, mp_context=multiprocessing.get_context(
            "fork"), initializer=_init_worker, initargs=(fn,)) as pool:
        yield from pool.map(_call_worker, rest)
