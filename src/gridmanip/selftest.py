"""Numerical self-checks: analytic gradients vs central finite differences,
and the TPG reward map vs a brute-force convolution of its spike.

Both suites are deliberately independent re-derivations: the finite
difference probe only ever calls the forward path, and the reference
convolution below shares no code with reward.tpg_reward_map.
"""

from dataclasses import dataclass

import numpy as np

from .gridsim import Action, Observation, PRIMITIVE_ORDER
from .qfunc import (QNetwork, TrainHyper, _PARAM_NAMES, transition_backward,
                    transition_loss)
from .replay import Transition
from .reward import RewardMap, RewardParams, gaussian_kernel, tpg_reward_map


@dataclass
class CheckReport:
    name: str
    passed: bool
    worst: float
    detail: str


def brute_force_convolve(grid, kernel):
    """Reference zero-padded 'same' convolution, four explicit loops."""
    h, w = grid.shape
    kh, kw = kernel.shape
    ky, kx = kh // 2, kw // 2
    out = np.zeros_like(grid)
    for y in range(h):
        for x in range(w):
            acc = 0.0
            for i in range(kh):
                for j in range(kw):
                    sy = y - (i - ky)
                    sx = x - (j - kx)
                    if 0 <= sy < h and 0 <= sx < w:
                        acc += kernel[i, j] * grid[sy, sx]
            out[y, x] = acc
    return out


def convolution_check(n_grids=200, max_size=32, seed=20240501,
                      tolerance=1e-12) -> CheckReport:
    """Random shapes, poses, angles and sigmas: the reward map training uses,
    tpg_reward_map, vs max(spike, brute-force spike * Gaussian kernel)."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_grids):
        h = int(rng.integers(1, max_size + 1))
        w = int(rng.integers(1, max_size + 1))
        x, y = int(rng.integers(w)), int(rng.integers(h))
        theta = float(rng.uniform(0, 2 * np.pi))
        r_tp = float(rng.uniform(0.0, 2.0))
        params = RewardParams(sigma_y=float(rng.uniform(0.5, 1.5)),
                              anisotropy=float(rng.uniform(1.0, 2.5)))
        spike = np.zeros((h, w))
        spike[y, x] = r_tp
        expected = np.maximum(spike, brute_force_convolve(
            spike, gaussian_kernel(theta, params)))
        found = tpg_reward_map(r_tp, (x, y, theta), params, (h, w)).grid
        worst = max(worst, float(np.max(np.abs(found - expected))))
    return CheckReport(name="convolution", passed=worst < tolerance, worst=worst,
                       detail=f"max |reward map - brute| = {worst:.3e} "
                              f"over {n_grids} grids (tol {tolerance:g})")


def _transition_loss(net, transition, hp):
    """Scalar loss of one transition plus the ReLU on/off pattern.

    The pattern lets the finite-difference probe reject steps that cross an
    activation kink, where central differences are invalid but the analytic
    gradient is exact.
    """
    losses, saved = transition_loss(net, transition, hp)
    z1, z2 = saved[1][0], saved[1][2]
    pattern = np.concatenate([(z1 > 0.0).ravel(), (z2 > 0.0).ravel()])
    return float(np.mean(losses)), pattern


def random_transition(rng, h=6, w=6, rotations=4):
    """A synthetic finalized transition on a random height grid, holding a
    block, so that every scene channel of the input is non-zero; its reward
    map is a random box around the executed pixel."""
    obs = Observation(heights=rng.integers(0, 4, size=(h, w)), holding=True,
                      height_norm=2)
    q_prev = rng.uniform(0.0, 1.0)
    prim_prev = PRIMITIVE_ORDER[int(rng.integers(3))]
    y_prev, x_prev = int(rng.integers(h)), int(rng.integers(w))
    prev = Action(prim_prev, x_prev, y_prev, 0, q_prev)
    primitive = PRIMITIVE_ORDER[int(rng.integers(3))]
    action = Action(primitive=primitive, x=int(rng.integers(w)),
                    y=int(rng.integers(h)),
                    theta_index=int(rng.integers(rotations)),
                    q_value=float(rng.uniform(0, 1)))
    # A random supervised box around the executed pixel, random values on it.
    y0, x0 = int(rng.integers(action.y + 1)), int(rng.integers(action.x + 1))
    y1 = int(rng.integers(action.y + 1, h + 1))
    x1 = int(rng.integers(action.x + 1, w + 1))
    rmap = RewardMap(y0=y0, x0=x0,
                     values=np.abs(rng.normal(size=(y1 - y0, x1 - x0))),
                     shape=(h, w))
    return Transition(observation=obs, prev_action=prev, action=action,
                      r_t=float(rng.uniform(0.1, 1.0)), reward_map=rmap,
                      r_next=float(rng.uniform(0.0, 1.0)))


def gradient_check(n_draws=100, coords_per_draw=40, h=6, w=6, seed=20240502,
                   step=1e-4, tolerance=1e-4, exhaustive_first=True) -> CheckReport:
    """Central finite differences against the analytic backward pass.

    Each draw builds a fresh random network and transition and probes a
    random spread of parameter coordinates (every coordinate on the first
    draw when ``exhaustive_first``). Probes whose parameter step flips a
    ReLU unit are discarded: the loss is not smooth across the step there,
    so the central difference says nothing about the gradient. Relative
    error uses the larger of the two gradients as scale, with an absolute
    floor for near-zero pairs.
    """
    rng = np.random.default_rng(seed)
    hp = TrainHyper()
    worst = 0.0
    checked = skipped = 0
    for draw in range(n_draws):
        # Draw 0 probes every coordinate of the full-width stack; later draws
        # spread sampled coordinates over narrow stacks for speed.
        hidden = 16 if (exhaustive_first and draw == 0) else 4
        net = QNetwork.init(rng, hidden_channels=hidden, rotations=4)
        tr = random_transition(rng, h=h, w=w)
        grads = {}      # analytic dLoss/dparams; no update is applied
        transition_backward(net, tr, transition_loss(net, tr, hp)[1], grads)
        stack = net.stacks[tr.action.primitive]
        for name in _PARAM_NAMES:
            arr = getattr(stack, name)
            if exhaustive_first and draw == 0:
                coords = list(np.ndindex(arr.shape))
            else:
                flat = rng.choice(arr.size,
                                  size=min(coords_per_draw, arr.size),
                                  replace=False)
                coords = [np.unravel_index(i, arr.shape) for i in flat]
            for coord in coords:
                original = arr[coord]
                arr[coord] = original + step
                up, pattern_up = _transition_loss(net, tr, hp)
                arr[coord] = original - step
                down, pattern_down = _transition_loss(net, tr, hp)
                arr[coord] = original
                if not np.array_equal(pattern_up, pattern_down):
                    skipped += 1
                    continue
                numeric = (up - down) / (2.0 * step)
                analytic = grads[name][coord]
                scale = max(abs(numeric), abs(analytic))
                if scale < 1e-8:
                    continue
                checked += 1
                worst = max(worst, abs(numeric - analytic) / scale)
    passed = worst < tolerance and checked > 0.5 * (checked + skipped)
    return CheckReport(name="gradient", passed=passed, worst=worst,
                       detail=f"max relative error = {worst:.3e} over "
                              f"{checked} probes in {n_draws} draws "
                              f"({skipped} kink-crossing probes skipped, "
                              f"tol {tolerance:g})")


def run_all(fast=False):
    """The checks behind the ``selftest`` CLI subcommand."""
    checks = [
        convolution_check(n_grids=40 if fast else 200),
        gradient_check(n_draws=10 if fast else 100,
                       exhaustive_first=not fast),
    ]
    return checks
