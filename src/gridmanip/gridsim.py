"""Deterministic 2D grid manipulation environment.

Blocks are unit cubes living on a width x height cell grid. The workspace
is the number of blocks stacked on each cell, whether the gripper holds a
block, and how many blocks have left the scene. Three scripted primitives
act on the grid: push slides a whole stack, pick lifts the top block into the gripper,
place deposits the held block. All dynamics are deterministic; randomness
enters only through the seeded initial placement.
"""

import enum
import math
from dataclasses import dataclass, field

import numpy as np


class Primitive(enum.Enum):
    PUSH = "push"
    PICK = "pick"
    PLACE = "place"


# Canonical ordering used for tie-breaking and channel layout.
PRIMITIVE_ORDER = (Primitive.PUSH, Primitive.PICK, Primitive.PLACE)


class TaskKind(enum.Enum):
    CLUTTER_REMOVAL = "clutter_removal"
    BLOCK_STACKING = "block_stacking"
    SCRIPTED_ARRANGEMENT = "scripted_arrangement"


class DoneReason(enum.Enum):
    GOAL = "goal"
    FAIL_STREAK = "fail_streak"
    MAX_STEPS = "max_steps"


class ConfigError(ValueError):
    """The one error for a bad configuration. Config objects raise it when
    they are built, so every one that exists is valid; a bad argument or
    checkpoint file raises it too."""


def check_value(key, value, ok, rule):
    """Raise ConfigError naming the INI key and its rule unless ``ok``."""
    if not ok:
        raise ConfigError(f"{key}={value} must be {rule}")


class ContractViolation(ValueError):
    """Caller passed a malformed action or workspace."""


@dataclass(frozen=True)
class Action:
    primitive: Primitive
    x: int
    y: int
    theta_index: int
    q_value: float = 0.0


def action_fields(action):
    """An Action as replay rows keep it and ``qfunc.stack_input`` reads it:
    (its primitive's place in PRIMITIVE_ORDER, x, y, theta_index, q_value)."""
    return (PRIMITIVE_ORDER.index(action.primitive), action.x, action.y,
            action.theta_index, action.q_value)


@dataclass(frozen=True)
class TaskConfig:
    kind: TaskKind
    n_blocks: int
    width: int = 10
    height: int = 10
    goal_stack_height: int = 0
    allowed_primitives: tuple = PRIMITIVE_ORDER
    max_steps: int = 0          # 0 -> 8 * n_blocks
    push_distance: int = 2
    fail_limit: int = 10
    rotations: int = 4
    layout: str = ""            # scripted arrangements: digit grid, one char per cell
    # A scripted layout parsed once, when the task is built; its block count
    # fills n_blocks when that is 0.
    layout_heights: np.ndarray | None = field(default=None, init=False,
                                              repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.kind, TaskKind):
            raise ConfigError(f"task.kind={self.kind!r} must be a TaskKind")
        allowed = tuple(self.allowed_primitives)
        if not all(isinstance(p, Primitive) for p in allowed):
            raise ConfigError(f"task.allowed_primitives={allowed!r} must "
                              "hold Primitive members")
        # Canonical: each primitive once, in PRIMITIVE_ORDER.
        object.__setattr__(self, "allowed_primitives",
                           tuple(p for p in PRIMITIVE_ORDER if p in allowed))
        # Only pick removes a block and only place raises a stack, so each
        # kind's goal needs these. With pick allowed some pose is always
        # valid: until the goal, a removal task has a block on the grid, and
        # a stacking task holds at most one of its two or more blocks.
        needed = ((Primitive.PICK, Primitive.PLACE)
                  if self.kind is TaskKind.BLOCK_STACKING else (Primitive.PICK,))
        missing = [p.value for p in needed if p not in self.allowed_primitives]
        if missing:
            raise ConfigError(
                "task.allowed_primitives="
                f"{','.join(p.value for p in self.allowed_primitives)} lacks "
                f"{' and '.join(missing)}, without which task.kind="
                f"{self.kind.value} can never reach its goal")
        if self.width < 1 or self.height < 1:
            raise ConfigError("grid dimensions must be positive")
        if self.rotations < 1:
            raise ConfigError("rotation count must be >= 1")
        if self.rotations not in (1, 2) and self.width != self.height:
            raise ConfigError(
                f"task.width={self.width} differs from task.height="
                f"{self.height}, but task.rotations={self.rotations} turns "
                "the grid by 90 degrees; use a square grid or 1 or 2 rotations")
        check_value("task.push_distance", self.push_distance,
                    self.push_distance >= 1, ">= 1")
        check_value("task.fail_limit", self.fail_limit, self.fail_limit >= 1,
                    ">= 1")
        scripted = self.kind is TaskKind.SCRIPTED_ARRANGEMENT
        if scripted and not self.layout.strip():
            raise ConfigError("scripted arrangement requires a layout grid")
        if not scripted and self.layout.strip():
            raise ConfigError(
                f"task.layout is only read by task.kind=scripted_arrangement, "
                f"not {self.kind.value}; leave it empty")
        if scripted:
            heights = _parse_layout(self.layout, self.width, self.height)
            total = int(heights.sum())
            if total == 0:
                raise ConfigError("scripted layout places no blocks")
            if self.n_blocks not in (0, total):
                raise ConfigError(
                    f"layout places {total} blocks but n_blocks={self.n_blocks}")
            object.__setattr__(self, "layout_heights", heights)
            object.__setattr__(self, "n_blocks", total)
        elif self.n_blocks < 1:
            raise ConfigError(
                f"task.n_blocks={self.n_blocks} must be >= 1 for task.kind="
                f"{self.kind.value} (0 takes the count from the layout only "
                "for scripted_arrangement)")
        elif self.n_blocks > self.width * self.height:
            raise ConfigError(
                f"grid {self.width}x{self.height} too small for {self.n_blocks} blocks")
        if self.kind is TaskKind.BLOCK_STACKING and \
                not 2 <= self.goal_stack_height <= self.n_blocks:
            raise ConfigError(
                "goal_stack_height must lie in [2, n_blocks], got "
                f"{self.goal_stack_height} with n_blocks={self.n_blocks}")
        check_value("task.max_steps", self.max_steps, self.max_steps >= 0,
                    ">= 0 (0: 8 x task.n_blocks)")
        if self.max_steps == 0:
            object.__setattr__(self, "max_steps", 8 * self.n_blocks)

    @property
    def height_norm(self):
        """The stack height that the network's height channel maps to 1:
        the goal height when stacking, else the tallest initial stack."""
        if self.kind is TaskKind.BLOCK_STACKING:
            return self.goal_stack_height
        if self.layout_heights is not None:
            return max(1, int(self.layout_heights.max()))
        return 1


@dataclass
class Workspace:
    heights: np.ndarray          # (task.height, task.width) ints: blocks per cell
    task: TaskConfig
    holding: bool = False        # the gripper holds a block (stacking tasks)
    removed: int = 0             # blocks picked out of the scene (removal tasks)
    step_count: int = 0
    failure_streak: int = 0


@dataclass(frozen=True)
class Observation:
    """What the learner sees of a workspace, taken at one step: a copy of
    its height grid, the holding flag and the task's ``height_norm``.
    Acting passes these fields to ``qfunc.stack_input``, which lays them out
    as the network's input; a replay row keeps them in its slot arrays, and
    training passes them from there, with no Observation."""
    heights: np.ndarray          # (height, width) ints, a copy
    holding: bool
    height_norm: int

    @property
    def shape(self):
        return self.heights.shape


@dataclass(frozen=True)
class StepResult:
    next_observation: Observation
    primitive_success: int
    progress: float
    done: bool
    done_reason: DoneReason | None


def theta_radians(theta_index, rotations):
    return 2.0 * math.pi * theta_index / rotations


def push_direction(theta_index, rotations):
    """Unit cell step for a push along rotation ``theta_index``."""
    theta = theta_radians(theta_index, rotations)
    return int(round(math.cos(theta))), int(round(math.sin(theta)))


def _parse_layout(layout, width, height):
    rows = [line for line in layout.splitlines() if line.strip()]
    if len(rows) != height or any(len(r) != width for r in rows):
        raise ConfigError(
            f"layout must be {height} rows of {width} characters"
        )
    heights = np.zeros((height, width), dtype=int)
    for y, row in enumerate(rows):
        for x, ch in enumerate(row):
            if ch.isdecimal():
                heights[y, x] = int(ch)
            elif ch not in ".- ":
                raise ConfigError(f"layout character {ch!r} not understood")
    return heights


def reset(task: TaskConfig, seed: int):
    """Build a fresh workspace: the scripted layout, or n_blocks dropped on
    distinct random cells.

    Identical (task, seed) pairs produce identical workspaces.
    """
    if task.kind is TaskKind.SCRIPTED_ARRANGEMENT:
        heights = task.layout_heights.copy()
    else:
        heights = np.zeros((task.height, task.width), dtype=int)
        rng = np.random.default_rng(seed)
        heights.flat[rng.choice(task.width * task.height, size=task.n_blocks,
                                replace=False)] = 1
    ws = Workspace(heights=heights, task=task)
    return ws, observe(ws)


def task_progress(ws: Workspace) -> float:
    """Overall goal progress in [0, 1]."""
    if ws.task.kind is TaskKind.BLOCK_STACKING:
        return min(1.0, int(ws.heights.max()) / ws.task.goal_stack_height)
    return ws.removed / ws.task.n_blocks


def observe(ws: Workspace) -> Observation:
    return Observation(heights=ws.heights.copy(), holding=ws.holding,
                       height_norm=ws.task.height_norm)


def _shifted(grid, dx, dy):
    """out[y, x] = grid[y + dy, x + dx], False where that cell is off-grid."""
    h, w = grid.shape
    out = np.zeros_like(grid)
    out[max(0, -dy):h - max(0, dy), max(0, -dx):w - max(0, dx)] = \
        grid[max(0, dy):h + min(0, dy), max(0, dx):w + min(0, dx)]
    return out


def valid_action_mask(ws: Workspace, primitive: Primitive) -> np.ndarray:
    """Boolean (height, width) grid of poses worth attempting."""
    occupied = ws.heights > 0
    if primitive is Primitive.PICK:
        return occupied
    if primitive is Primitive.PUSH:
        # An occupied cell with a free on-grid neighbour along a push direction.
        free = ~occupied
        dirs = {push_direction(r, ws.task.rotations) for r in range(ws.task.rotations)}
        reachable = np.zeros_like(occupied)
        for dx, dy in dirs:
            reachable |= _shifted(free, dx, dy)
        return occupied & reachable
    # Place: on or adjacent to an occupied cell, only while holding a block.
    mask = np.zeros_like(occupied)
    if ws.holding:
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                mask |= _shifted(occupied, dx, dy)
    return mask


def _execute_push(ws, action):
    heights, x, y = ws.heights, action.x, action.y
    if not heights[y, x]:
        return 0
    dx, dy = push_direction(action.theta_index, ws.task.rotations)
    h, w = heights.shape
    cx, cy = x, y
    for _ in range(ws.task.push_distance):
        nx, ny = cx + dx, cy + dy
        if not (0 <= nx < w and 0 <= ny < h) or heights[ny, nx]:
            break
        cx, cy = nx, ny
    if (cx, cy) == (x, y):
        return 0
    heights[cy, cx], heights[y, x] = heights[y, x], 0
    return 1


def _execute_pick(ws, action):
    if ws.holding or not ws.heights[action.y, action.x]:
        return 0
    ws.heights[action.y, action.x] -= 1
    if ws.task.kind is TaskKind.BLOCK_STACKING:
        ws.holding = True
    else:
        # Removal tasks: a picked block leaves the scene entirely.
        ws.removed += 1
    return 1


def _execute_place(ws, action):
    if not ws.holding:
        return 0
    prev_max = ws.heights.max()
    ws.heights[action.y, action.x] += 1
    ws.holding = False
    # Successful only if the new stack tops the previous global maximum.
    return 1 if ws.heights[action.y, action.x] > prev_max else 0


def step(ws: Workspace, action: Action) -> StepResult:
    """Execute one primitive, mutating the workspace in place."""
    task = ws.task
    if action.primitive not in task.allowed_primitives:
        raise ContractViolation(f"{action.primitive} not allowed for this task")
    h, w = ws.heights.shape
    if not (0 <= action.x < w and 0 <= action.y < h):
        raise ContractViolation(f"pose ({action.x},{action.y}) outside grid")
    if not (0 <= action.theta_index < task.rotations):
        raise ContractViolation(f"theta_index {action.theta_index} out of range")

    if action.primitive is Primitive.PUSH:
        success = _execute_push(ws, action)
    elif action.primitive is Primitive.PICK:
        success = _execute_pick(ws, action)
    else:
        success = _execute_place(ws, action)

    ws.step_count += 1
    if success:
        ws.failure_streak = 0
    else:
        ws.failure_streak += 1

    progress = task_progress(ws)
    done = False
    reason = None
    if progress >= 1.0:
        done, reason = True, DoneReason.GOAL
    elif ws.failure_streak >= task.fail_limit:
        done, reason = True, DoneReason.FAIL_STREAK
    elif ws.step_count >= task.max_steps:
        done, reason = True, DoneReason.MAX_STEPS

    return StepResult(next_observation=observe(ws),
                      primitive_success=success,
                      progress=progress,
                      done=done,
                      done_reason=reason)
