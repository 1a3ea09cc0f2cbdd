"""Action selection over per-primitive, per-rotation Q-maps.

Two exploration schemes share the same selection core: a loss-adjusted
epsilon that tracks an exponential moving average of a bounded Boltzmann
transform of the training loss, and a plain decaying epsilon-greedy
baseline. Greedy selection is deterministic with lexicographic tie-breaking
(primitive order, rotation, row, column). An exploration draw needs the Q
value of its one drawn entry only, so it computes that alone.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .gridsim import Action, ConfigError, PRIMITIVE_ORDER, check_value


class NoValidActionError(RuntimeError):
    """Every pose is masked out; the caller should end the episode."""


@dataclass(frozen=True)
class ExplorationState:
    epsilon: float = 0.9
    beta: float = 0.01
    sigma: float = 0.01          # inverse sensitivity of the loss transform
    alpha_scale: float = 1.0

    def __post_init__(self):
        if not (0.0 <= self.epsilon < 1.0 and 0.0 <= self.beta < 1.0):
            raise ConfigError("epsilon and beta must lie in [0, 1)")
        check_value("policy.sigma", self.sigma, 0 < self.sigma < math.inf,
                    "finite and > 0")
        check_value("policy.alpha_scale", self.alpha_scale,
                    0 < self.alpha_scale < math.inf, "finite and > 0")


def boltzmann_loss_term(loss: float, state: ExplorationState) -> float:
    """(1 - e^(-|a*L|/sigma)) / (1 + e^(-|a*L|/sigma)), in [0, 1).

    Algebraically tanh(|a*L| / (2 sigma)); clamped below 1 so the epsilon
    EMA can never saturate to 1 even when tanh rounds up.
    """
    f = math.tanh(abs(state.alpha_scale * loss) / (2.0 * state.sigma))
    return min(f, math.nextafter(1.0, 0.0))


def update_exploration(state: ExplorationState, loss: float) -> ExplorationState:
    """EMA step: epsilon <- beta * f(loss) + (1 - beta) * epsilon."""
    f = boltzmann_loss_term(loss, state)
    return replace(state, epsilon=state.beta * f + (1.0 - state.beta) * state.epsilon)


def epsilon_greedy_decay(step: int, floor: float = 0.1, span: float = 0.4,
                         rate: float = 0.9998) -> float:
    """Ablation baseline schedule: floor + span * rate**step."""
    return floor + span * rate ** step


def _uniform_valid(q_one, masks, rotations, rng):
    counts = [(prim, rotations * int(masks[prim].sum()))
              for prim in PRIMITIVE_ORDER if prim in masks]
    total = sum(c for _, c in counts)
    if total == 0:
        raise NoValidActionError("no valid pose under any primitive mask")
    draw = int(rng.integers(total))
    for prim, count in counts:
        if draw >= count:
            draw -= count
            continue
        r, cell = divmod(draw, count // rotations)
        ys, xs = np.nonzero(masks[prim])
        y, x = int(ys[cell]), int(xs[cell])
        return Action(primitive=prim, x=x, y=y, theta_index=r,
                      q_value=float(q_one(prim, r)[y, x]))
    raise AssertionError("unreachable")


def greedy_action(q_maps: dict, masks: dict) -> Action:
    """Deterministic argmax over mask-valid (primitive, rotation, y, x)
    entries; ties resolve to the lowest lexicographic index."""
    best = None
    best_q = -np.inf
    for prim in PRIMITIVE_ORDER:
        if prim not in q_maps:
            continue
        q = q_maps[prim]
        if not masks[prim].any():
            continue
        masked = np.where(masks[prim][None, :, :], q, -np.inf)
        flat = int(np.argmax(masked))
        r, y, x = np.unravel_index(flat, q.shape)
        if masked[r, y, x] > best_q:
            best_q = float(masked[r, y, x])
            best = Action(primitive=prim, x=int(x), y=int(y), theta_index=int(r),
                          q_value=best_q)
    if best is None:
        raise NoValidActionError("no valid pose under any primitive mask")
    return best


def select_action(q_maps, q_one, masks: dict, rotations: int,
                  epsilon: float, rng: np.random.Generator) -> Action:
    """Epsilon-gated choice between a uniform draw over the ``rotations`` x
    valid cells of each primitive's mask and the greedy argmax. The returned
    action carries the Q at its entry.

    The Q values are computed on demand: an exploration draw computes one,
    from the (h, w) map ``q_one(primitive, r)``; a greedy draw computes every
    map with ``q_maps()``, as ``greedy_action`` takes them.
    """
    if float(rng.random()) < epsilon:
        return _uniform_valid(q_one, masks, rotations, rng)
    return greedy_action(q_maps(), masks)
