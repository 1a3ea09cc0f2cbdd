"""Acceptance suite: one test per criterion, each printing a pass line.

Expected values are computed by independent routes inside this module
(direct formula evaluation, four-loop convolution, closed-form EMA) and the
learning/ablation thresholds are frozen from the tuned default
configuration. Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import math
import time

import numpy as np
import pytest

from gridmanip import config as config_mod
from gridmanip import harness
from gridmanip.cli import main as cli_main
from gridmanip.gridsim import Action, Observation, Primitive
from gridmanip.policy import ExplorationState, boltzmann_loss_term, update_exploration
from gridmanip.qfunc import compute_target
from gridmanip.replay import ReplayBuffer, Transition
from gridmanip.reward import (RewardParams, gaussian_kernel, spike_reward_map,
                              task_progress_reward, tpg_reward_map)
from gridmanip.selftest import (brute_force_convolve, convolution_check,
                                gradient_check)

TOL = 1e-9


def _report(name, elapsed, budget, detail=""):
    print(f"criterion {name}: PASS in {elapsed:.2f}s (budget {budget}s) {detail}")


def default_values(**overrides):
    values = config_mod.default_config()
    for dotted, val in overrides.items():
        section, key = dotted.split(".")
        values[section][key] = str(val)
    return values


class TestCriterion1EquationOracles:
    def test_criterion_1(self):
        start = time.time()

        # gated bootstrap target: y = r_t + eta * gamma * r_next, eta = [r_t > 0]
        rng = np.random.default_rng(101)
        for _ in range(200):
            r_t = float(rng.choice([0.0, rng.uniform(0, 1.5)]))
            r_next = float(rng.uniform(0, 1.5))
            gamma = float(rng.uniform(0, 1))
            direct = r_t + (1.0 if r_t > 0 else 0.0) * gamma * r_next
            assert abs(compute_target(r_t, r_next, gamma) - direct) <= TOL
        assert compute_target(0.0, 0.8, 0.5) == 0.0

        # shaped reward product: weight * indicator * progress
        params = RewardParams(sigma_y=1.0)
        for _ in range(200):
            prim = list(Primitive)[int(rng.integers(3))]
            x_ind = int(rng.integers(2))
            progress = float(rng.uniform(0, 1))
            direct = params.weights[prim] * x_ind * progress
            assert abs(task_progress_reward(prim, x_ind, progress, params)
                       - direct) <= TOL

        # anisotropic kernel values against the density formula evaluated here
        sx, sy = 2.0, 1.0
        for theta in (0.0, math.pi / 2, 0.7, 2.2):
            kernel = gaussian_kernel(theta, params)
            mid = kernel.shape[0] // 2
            for dx, dy in ((0, 0), (2, 0), (0, 1), (1, 1), (-3, 2)):
                xr = dx * math.cos(theta) + dy * math.sin(theta)
                yr = -dx * math.sin(theta) + dy * math.cos(theta)
                direct = (1.0 / (2 * math.pi * sx * sy)
                          * math.exp(-(xr ** 2 / (2 * sx ** 2)
                                       + yr ** 2 / (2 * sy ** 2))))
                assert abs(kernel[mid + dy, mid + dx] - direct) <= TOL
        assert abs(gaussian_kernel(0.0, params)[6, 6] - 1 / (4 * math.pi)) <= TOL

        # max-fusion dominance, against independently built pieces
        for _ in range(20):
            r_tp = float(rng.uniform(0, 1.2))
            x, y = int(rng.integers(10)), int(rng.integers(10))
            theta = float(rng.uniform(0, 2 * math.pi))
            rmap = tpg_reward_map(r_tp, (x, y, theta), params, (10, 10))
            spike = np.zeros((10, 10))
            spike[y, x] = r_tp
            smoothed = brute_force_convolve(spike, gaussian_kernel(theta, params))
            assert (rmap.grid >= spike - TOL).all()
            assert (rmap.grid >= smoothed - TOL).all()
            assert np.max(np.abs(rmap.grid - np.maximum(spike, smoothed))) <= TOL

        # loss transform: range, monotonicity, closed-form point
        state = ExplorationState(epsilon=0.5, beta=0.1, sigma=1.0,
                                 alpha_scale=1.0)
        direct = (1 - math.exp(-1)) / (1 + math.exp(-1))
        assert abs(boltzmann_loss_term(1.0, state) - direct) <= TOL
        values = [boltzmann_loss_term(l, state)
                  for l in np.linspace(0, 12, 400)]
        assert all(0.0 <= v < 1.0 for v in values)
        assert all(b > a for a, b in zip(values, values[1:]))
        assert boltzmann_loss_term(0.0, state) == 0.0
        assert boltzmann_loss_term(1e9, state) > 0.999

        # exploration EMA: iterate vs closed form eps_n = f + (1-b)^n (eps_0 - f)
        for beta, loss in ((0.1, 0.7), (0.3, 2.0), (0.02, 0.05)):
            st = ExplorationState(epsilon=0.5, beta=beta, sigma=1.0,
                                  alpha_scale=1.0)
            f = boltzmann_loss_term(loss, st)
            stepped = st
            for _ in range(1000):
                stepped = update_exploration(stepped, loss)
            closed = f + (1 - beta) ** 1000 * (0.5 - f)
            assert abs(stepped.epsilon - closed) <= TOL
        st = ExplorationState(epsilon=0.5, beta=0.1, sigma=1.0, alpha_scale=1.0)
        f = boltzmann_loss_term(0.7, st)
        for _ in range(1000):
            st = update_exploration(st, 0.7)
        assert abs(st.epsilon - f) < 1e-6

        elapsed = time.time() - start
        assert elapsed < 1.0
        _report("1 (equation oracles)", elapsed, 1)


class TestCriterion2Gradients:
    def test_criterion_2(self):
        start = time.time()
        report = gradient_check(n_draws=100, h=6, w=6)
        elapsed = time.time() - start
        assert report.passed, report.detail
        assert report.worst < 1e-4
        assert elapsed < 30.0
        _report("2 (gradient correctness)", elapsed, 30, report.detail)


class TestCriterion3Convolution:
    def test_criterion_3(self):
        start = time.time()
        report = convolution_check(n_grids=200, max_size=32)
        elapsed = time.time() - start
        assert report.passed, report.detail
        assert report.worst < 1e-12
        assert elapsed < 10.0
        _report("3 (convolution equivalence)", elapsed, 10, report.detail)


class TestCriterion4ReplayLaw:
    def test_criterion_4(self):
        start = time.time()
        priorities = [5.0, 0.3, 2.0, 2.0, 9.0, 0.01, 1.0, 4.0]
        buf = ReplayBuffer(capacity=16, rank_exponent=0.7)
        items = []
        for p in priorities:
            # A real 1x1 row; only its priority matters here.
            t = Transition(observation=Observation(np.zeros((1, 1), int),
                                                   False, 1),
                           prev_action=None,
                           action=Action(Primitive.PICK, 0, 0, 0),
                           r_t=0.0,
                           reward_map=spike_reward_map(0.0, (0, 0), (1, 1)),
                           r_next=0.0)
            buf.push(t)
            buf.update_priorities([t.insert_index], [p])
            items.append(t)
        probs = buf.probabilities()
        n = 1_000_000
        rng = np.random.default_rng(0)
        counts = np.zeros(len(priorities))
        id_to_pos = {t.insert_index: i for i, t in enumerate(items)}
        for _ in range(n):
            _, ids = buf.sample(1, rng)
            counts[id_to_pos[ids[0]]] += 1
        freqs = counts / n
        se = np.sqrt(probs * (1 - probs) / n)
        deviations = np.abs(freqs - probs) / se
        assert (deviations <= 3.0).all(), (probs, freqs, deviations)
        elapsed = time.time() - start
        assert elapsed < 30.0
        _report("4 (replay rank law)", elapsed, 30,
                f"max deviation {deviations.max():.2f} standard errors")


@pytest.fixture(scope="module")
def trained_default():
    """Criterion 5's tuned default run, shared with criterion 7."""
    cfg = config_mod.build_run_config(default_values())
    start = time.time()
    report = harness.train(cfg)
    metrics = harness.evaluate(report.net, cfg)
    return report, metrics, time.time() - start


class TestCriterion5LearningAbsolute:
    def test_criterion_5(self, trained_default):
        report, metrics, elapsed = trained_default
        assert len(report.records) == 2000
        assert len(metrics.runs) == 30
        assert metrics.completion_rate >= 0.9, metrics.completion_rate
        # learning visibly happened: last success window beats the first
        assert report.success_curve[-1] > report.success_curve[0]
        if metrics.action_efficiency is not None:
            assert 0.0 < metrics.action_efficiency <= 1.0
        if metrics.pick_success is not None:
            assert 0.0 <= metrics.pick_success <= 1.0
        assert elapsed < 600.0
        _report("5 (learning, absolute)", elapsed, 600,
                f"completion_rate {metrics.completion_rate:.3f}")


class TestCriterion6AblationDirectional:
    def test_criterion_6(self):
        start = time.time()
        completions = {"baseline": [], "tpgr": [], "full": []}
        efficiencies = {"baseline": [], "tpgr": [], "full": []}
        # All 15 (seed, rung) runs in one fan-out, so the first run sets the
        # pace once and the rest share the CPUs.
        jobs = [(config_mod.build_run_config(default_values(
                    **{"task.goal_stack_height": 3, "run.seed": seed})), name)
                for seed in range(5) for name in completions]
        for entry in harness.fan_out(
                lambda job: harness.ablation_entry(*job), jobs):
            completions[entry.name].append(entry.metrics.completion_rate)
            efficiencies[entry.name].append(
                entry.metrics.action_efficiency or 0.0)
        med_c = {k: float(np.median(v)) for k, v in completions.items()}
        med_e = {k: float(np.median(v)) for k, v in efficiencies.items()}
        assert med_c["full"] >= med_c["tpgr"] >= med_c["baseline"], med_c
        assert med_e["full"] >= med_e["tpgr"] >= med_e["baseline"], med_e
        assert med_c["full"] - med_c["baseline"] >= 0.1, med_c
        elapsed = time.time() - start
        assert elapsed < 3600.0
        _report("6 (ablation, directional)", elapsed, 3600,
                f"completions {med_c} efficiencies {med_e}")


class TestCriterion7ProgressReversal:
    def test_criterion_7(self, trained_default):
        _, metrics, _ = trained_default
        picks = sum(r.picks_attempted for r in metrics.runs)
        tallest = sum(r.tallest_stack_picks for r in metrics.runs)
        assert picks > 0
        fraction = tallest / picks
        assert fraction < 0.10, (tallest, picks)
        _report("7 (progress reversal avoidance)", 0.0, 600,
                f"tallest-stack picks {tallest}/{picks}")


class TestCriterion8Determinism:
    def test_criterion_8(self, tmp_path):
        start = time.time()
        cfg_path = tmp_path / "run.ini"
        values = default_values(**{"run.train_steps": 150,
                                   "run.eval_runs": 5,
                                   "run.checkpoint_every": 0})
        cfg_path.write_text(config_mod.config_text(values))
        train_logs, eval_files = [], []
        for tag in ("a", "b"):
            train_out = tmp_path / f"train_{tag}"
            assert cli_main(["train", "--config", str(cfg_path),
                             "--out", str(train_out)]) == 0
            eval_out = tmp_path / f"eval_{tag}"
            assert cli_main(["eval", "--config", str(cfg_path),
                             "--out", str(eval_out), "--checkpoint",
                             str(train_out / "checkpoint.bin")]) == 0
            train_logs.append((train_out / "run.log").read_bytes())
            eval_files.append(((eval_out / "run.log").read_bytes(),
                               (eval_out / "metrics.csv").read_bytes()))
        assert train_logs[0] == train_logs[1]
        assert eval_files[0] == eval_files[1]
        elapsed = time.time() - start
        _report("8 (end-to-end determinism)", elapsed, 60)
