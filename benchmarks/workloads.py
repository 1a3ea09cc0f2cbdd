"""The benchmark's workloads and the measurements they take.

Every workload starts from ``configs/default.ini`` and applies fixed
``section.key=value`` overrides plus ``run.seed``; the benchmark seed reaches
the program only as that config value. Workloads drive gridmanip through its
public functions: ``config``, ``harness.train``/``harness.evaluate`` and
``cli.main``.

- train-stack: the shipped default run (10x10 stacking to height 2,
  pick/place, TPG reward, LAE exploration, 2000 steps), then its 30-run
  greedy evaluation. ``qfunc.train_step`` does most of the work; replay stays
  at 2000 items or fewer.
- train-replay-deep: the ablation ladder's baseline rung (spike reward,
  decaying epsilon) on a 6x6 grid with 4 blocks, with replay capacity twice
  and run length three times the default. Rank-prioritized replay costs
  O(buffer) per step, so this is where replay shows; the Gaussian reward map
  is bypassed. The buffer is full for the last third of the run, so the
  slowest steps, which set the p90, are spread over that third rather than
  bunched at the very end.
- eval-clutter: greedy evaluation only, ``cli.main(["eval", ...])`` over many
  runs of 14x14 clutter removal with 12 blocks and push/pick. Set-up trains a
  300-step run through ``cli.main(["train", ...])`` and writes the
  checkpoint. The push reward weight is 0.05 so that this short run learns to
  prefer pick on every seed and every greedy run clears the grid in 12
  actions; with the shipped 0.5, 2 of 50 seeds learned to push until the
  fail or step limit. The measured phase never calls replay, reward or
  ``train_step``.
"""

import contextlib
import csv
import dataclasses
import hashlib
import io
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from gridmanip import cli, config, harness

from tracing import RUN, SETUP

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_INI = ROOT / "configs" / "default.ini"
# The acceptance threshold for a trained default run (criterion 5).
MIN_STACK_COMPLETION = 0.9
# Set-up of the train workloads is only config building; repeat it so its
# median is not a single sub-millisecond reading.
TRAIN_SETUP_REPEATS = 5
# The greedy evaluation after training takes about 0.1 s, so one reading
# lands in whatever speed the host happens to have then. Train workloads also
# time a short greedy evaluation of the network every PROBE_EVERY steps, from
# the training callback, so eval throughput is sampled across the whole run.
# Each probe episode is cut at PROBE_MAX_ACTIONS, so a network that still
# fails early in training does not make the early probes longer than the late
# ones. Probe episodes are timed but not counted as operations: the network
# is still learning.
PROBE_EVERY = 100
PROBE_RUNS = 5
PROBE_MAX_ACTIONS = 4


@dataclass
class Measurements:
    """Everything one benchmark run observes, summed over its iterations."""
    setup_s: list = field(default_factory=list)
    iteration_s: list = field(default_factory=list)
    step_ms: list = field(default_factory=list)
    train_steps: int = 0
    train_s: float = 0.0
    eval_actions: int = 0
    eval_s: float = 0.0
    eval_runs: int = 0
    eval_completed: int = 0
    attempted: int = 0
    failed: int = 0
    gate_failures: list = field(default_factory=list)
    fingerprints: dict = field(default_factory=dict)
    # (phase, steps, replay length at the end) per harness.train call.
    train_calls: list = field(default_factory=list)
    phase: str = SETUP

    def gate(self, ok, message):
        if not ok:
            self.gate_failures.append(message)

    def add_eval_time(self, actions, seconds):
        self.eval_actions += actions
        self.eval_s += seconds

    def add_eval_outcomes(self, runs, completed):
        self.attempted += runs
        self.failed += runs - completed
        self.eval_runs += runs
        self.eval_completed += completed


class StepTimer:
    """Replaces ``harness.train`` for the length of a run.

    Each call runs the real ``harness.train`` with ``checkpoint_every=1`` so
    its public ``checkpoint_cb`` hook fires after every step; the interval
    between two calls is one step. The caller's own callback still runs, at
    the steps its config asked for, and its time is left out of the step
    intervals and of the training time.
    """

    def __init__(self):
        self.meas = None
        self._train = harness.train

    def __enter__(self):
        harness.train = self
        return self

    def __exit__(self, *exc):
        harness.train = self._train
        return False

    def __call__(self, cfg, checkpoint_cb=None):
        every = cfg.checkpoint_every
        step_ms = []
        callback_s = 0.0
        last = time.perf_counter()

        def timed_cb(step, net):
            nonlocal last, callback_s
            now = time.perf_counter()
            step_ms.append((now - last) * 1e3)
            if checkpoint_cb and every > 0 and step % every == 0:
                checkpoint_cb(step, net)
            last = time.perf_counter()
            callback_s += last - now

        start = time.perf_counter()
        report = self._train(replace(cfg, checkpoint_every=1),
                             checkpoint_cb=timed_cb)
        seconds = time.perf_counter() - start - callback_s
        meas = self.meas
        meas.gate(len(report.records) == cfg.train_steps == len(step_ms),
                  f"train logged {len(report.records)} records and "
                  f"{len(step_ms)} steps, configured {cfg.train_steps}")
        meas.step_ms += step_ms
        meas.train_steps += len(step_ms)
        meas.train_s += seconds
        meas.train_calls.append((meas.phase, len(step_ms),
                                 len(report.replay_buffer)))
        return report


def records_sha256(lines):
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode())
        digest.update(b"\n")
    return digest.hexdigest()


def _load(overrides):
    values = config.load_config(DEFAULT_INI)
    config.apply_overrides(values, overrides)
    return config.build_run_config(values)


def _timed_eval(net, cfg, meas):
    start = time.perf_counter()
    metrics = harness.evaluate(net, cfg)
    meas.add_eval_time(sum(run.actions for run in metrics.runs),
                       time.perf_counter() - start)
    return metrics


class TrainWorkload:
    """Train with ``harness.train``, then evaluate the trained network."""

    setup_each_cycle = False

    def __init__(self, name, overrides, quick_overrides, min_completion=None):
        self.name = name
        self.overrides = overrides
        self.quick_overrides = quick_overrides
        self.min_completion = min_completion

    def start(self, seed, quick, workdir, probe):
        self.quick = quick
        self.probe = probe
        self._overrides = ([f"run.seed={seed}"] + self.overrides
                           + (self.quick_overrides if quick else []))

    def setup(self, meas):
        for _ in range(TRAIN_SETUP_REPEATS):
            start = time.perf_counter()
            self.cfg = _load(self._overrides)
            meas.setup_s.append(time.perf_counter() - start)

    def iteration(self, meas):
        cfg = self.cfg
        meas.attempted += 1
        if self.probe:
            probe_cfg = replace(cfg, eval_runs=PROBE_RUNS,
                                task=replace(cfg.task,
                                             max_steps=PROBE_MAX_ACTIONS))
            report = harness.train(replace(cfg, checkpoint_every=PROBE_EVERY),
                                   lambda step, net: _timed_eval(
                                       net, probe_cfg, meas))
        else:
            report = harness.train(cfg)
        metrics = _timed_eval(report.net, cfg, meas)
        meas.add_eval_outcomes(len(metrics.runs),
                               sum(run.completed for run in metrics.runs))
        meas.gate(len(metrics.runs) == cfg.eval_runs,
                  f"eval reported {len(metrics.runs)} runs, "
                  f"configured {cfg.eval_runs}")
        if self.min_completion is not None and not self.quick:
            meas.gate(metrics.completion_rate >= self.min_completion,
                      f"completion {metrics.completion_rate} below "
                      f"{self.min_completion}")
        meas.fingerprints.setdefault(
            "records_sha256",
            records_sha256(repr(dataclasses.astuple(r))
                           for r in report.records))


class EvalWorkload:
    """Evaluate a checkpoint through ``cli.main(["eval", ...])``."""

    setup_each_cycle = True

    def __init__(self, name, overrides, quick_overrides):
        self.name = name
        self.overrides = overrides
        self.quick_overrides = quick_overrides

    def start(self, seed, quick, workdir, probe):
        sets = self.overrides + (self.quick_overrides if quick else [])
        self._common = ["--config", str(DEFAULT_INI), "--seed", str(seed)]
        for item in sets:
            self._common += ["--set", item]
        self._train_dir = workdir / "train"
        self._eval_dir = workdir / "eval"
        self.eval_runs = _load(sets).eval_runs

    @staticmethod
    def _cli(meas, argv):
        meas.attempted += 1
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        meas.gate(code == 0, f"gridmanip {argv[0]} exited {code}")
        if code != 0:
            meas.failed += 1
        return code

    def setup(self, meas):
        start = time.perf_counter()
        self._cli(meas, ["train", "--out", str(self._train_dir)] + self._common)
        meas.setup_s.append(time.perf_counter() - start)

    def iteration(self, meas):
        start = time.perf_counter()
        code = self._cli(meas, ["eval", "--out", str(self._eval_dir),
                                "--checkpoint",
                                str(self._train_dir / "checkpoint.bin")]
                         + self._common)
        seconds = time.perf_counter() - start
        if code != 0:
            return
        with open(self._eval_dir / "metrics.csv", newline="") as fh:
            row = next(csv.DictReader(fh))
        log = (self._eval_dir / "run.log").read_text().splitlines()
        runs = int(row["eval_runs"])
        meas.add_eval_time(len(log), seconds)
        meas.add_eval_outcomes(runs, int(row["completed_runs"]))
        meas.gate(runs == self.eval_runs and
                  len({line.split()[0] for line in log}) == self.eval_runs,
                  f"eval reported {runs} runs, configured {self.eval_runs}")
        meas.fingerprints.setdefault("records_sha256",
                                     records_sha256(log))


WORKLOADS = {w.name: w for w in (
    TrainWorkload("train-stack", [],
                  ["run.train_steps=60", "run.eval_runs=3"],
                  min_completion=MIN_STACK_COMPLETION),
    TrainWorkload("train-replay-deep",
                  ["task.width=6", "task.height=6", "task.n_blocks=4",
                   "reward.kind=baseline", "policy.kind=decay",
                   "replay.capacity=4000", "run.train_steps=6000"],
                  ["replay.capacity=40", "run.train_steps=60",
                   "run.eval_runs=3"]),
    EvalWorkload("eval-clutter",
                 ["task.kind=clutter_removal", "task.width=14",
                  "task.height=14", "task.n_blocks=12",
                  "task.allowed_primitives=push,pick",
                  "reward.weight_push=0.05",
                  "run.train_steps=300", "run.eval_runs=100"],
                 ["run.train_steps=20", "run.eval_runs=3"]),
)}


def run_cycles(workload, meas, seconds, timer, tracer=None):
    """Set up, then repeat iterations while the next one, at the mean cycle
    length so far, still ends within ``seconds``; at least one iteration.
    Workloads whose set-up is costly set up again before every iteration,
    so set-up and measured work interleave over the whole run."""
    timer.meas = meas
    begin = time.perf_counter()
    while True:
        if workload.setup_each_cycle or not meas.setup_s:
            _enter(SETUP, meas, tracer)
            workload.setup(meas)
        _enter(RUN, meas, tracer)
        start = time.perf_counter()
        workload.iteration(meas)
        meas.iteration_s.append(time.perf_counter() - start)
        elapsed = time.perf_counter() - begin
        if meas.gate_failures or \
                elapsed * (1 + 1 / len(meas.iteration_s)) > seconds:
            return


def _enter(phase, meas, tracer):
    meas.phase = phase
    if tracer is not None:
        tracer.phase = phase
